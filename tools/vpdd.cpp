// vpdd — the VPD evaluation daemon.
//
// Reads newline-delimited JSON on stdin (or, with --listen, serves many
// concurrent socket clients) and writes one JSON response line per
// request. Each line is either a bare evaluation request (the v1 wire
// form) or a control envelope selected by "cmd":
//
//   {"cmd":"evaluate", ...request fields...}   evaluate (same as bare)
//   {"cmd":"evaluate_batch",                   batch-first evaluation:
//    "requests":[...]}                         same-operator requests
//                                              solve as one group
//                                              (docs/serve.md)
//   {"cmd":"transient", ...request fields...}  droop campaign (see
//                                              docs/transient.md)
//   {"cmd":"optimize", ...request fields...}   Pareto design search (see
//                                              docs/optimize.md)
//   {"cmd":"metrics"}                          unified telemetry snapshot
//   {"cmd":"trace", "path":"out.json"}         flush the trace buffer
//   {"cmd":"shutdown"}                         graceful drain: finish
//                                              in-flight work, reply with
//                                              the final metrics, exit 0
//
// Requests carry an optional "id" member which is echoed verbatim in the
// response — even when the line is malformed, as long as the id is
// recoverable from the raw bytes — so clients may pipeline: send many
// requests without waiting, match responses by id. Responses are written
// in request order (evaluation itself is parallel and out of order;
// ordering costs nothing because every response is buffered in its
// future until its turn). Control verbs resolve when their turn in the
// output order comes, so a "metrics" line reflects every request before
// it.
//
// A malformed or invalid request produces a {"status":"error"} response
// line — the daemon never crashes on bad input and keeps serving. A line
// longer than 64 MiB (net::Connection::kMaxLineBytes) is no request: the
// lines before it are answered, then one {"status":"error"} line names
// the limit, and the stream ends (stdin: vpdd drains and exits 1; a
// socket: that connection closes). See docs/serve.md for the wire
// protocol, docs/sockets.md for the socket server, and
// docs/observability.md for telemetry formats.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "vpd/net/server.hpp"
#include "vpd/net/session.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/serve/service.hpp"

namespace {

void print_usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--threads N] [--queue N] [--cache N] [--pretty] "
      "[--metrics] [--trace FILE] [--slow-ms MS] [--listen ADDR] "
      "[--max-conns N]\n"
      "  --threads N    worker threads (default: hardware concurrency)\n"
      "  --queue N      max in-flight evaluations before rejecting "
      "(default 256)\n"
      "  --cache N      completed-result LRU capacity (default 1024)\n"
      "  --pretty       indent response JSON (default: one compact line)\n"
      "  --metrics      dump service metrics JSON to stderr on shutdown\n"
      "  --trace FILE   enable tracing; write Chrome trace-event JSON\n"
      "                 (or NDJSON if FILE ends in .ndjson) on shutdown\n"
      "  --slow-ms MS   log requests slower than MS milliseconds to "
      "stderr\n"
      "  --listen ADDR  serve NDJSON over a socket instead of stdin:\n"
      "                 unix:/path/to.sock or tcp:127.0.0.1:PORT\n"
      "                 (tcp:...:0 picks a port; printed on stderr)\n"
      "  --max-conns N  socket mode: reject clients beyond N concurrent "
      "connections (default 64)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vpd;

  serve::ServiceConfig config;
  net::ServerOptions server_options;
  net::SessionOptions session_options;
  bool metrics = false;
  std::string listen_address;
  for (int i = 1; i < argc; ++i) {
    const auto size_arg = [&](const char* flag, std::size_t* out) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      *out = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      return true;
    };
    if (size_arg("--threads", &config.threads) ||
        size_arg("--queue", &config.queue_capacity) ||
        size_arg("--cache", &config.result_cache_capacity) ||
        size_arg("--max-conns", &server_options.max_connections)) {
      continue;
    }
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--pretty") == 0) {
      session_options.pretty = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace needs a file path\n");
        return 2;
      }
      session_options.default_trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--slow-ms") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--slow-ms needs a value\n");
        return 2;
      }
      config.slow_request_seconds = std::strtod(argv[++i], nullptr) / 1000.0;
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--listen needs an address\n");
        return 2;
      }
      listen_address = argv[++i];
    } else {
      print_usage(argv[0]);
      return 2;
    }
  }

  if (!session_options.default_trace_path.empty()) {
    obs::set_tracing_enabled(true);
  }

  serve::EvaluationService service(config);
  bool refused = false;  // stdin mode: a line over the limit ended input

  if (!listen_address.empty()) {
    // Socket mode: a dying client must not kill the daemon mid-write.
    std::signal(SIGPIPE, SIG_IGN);
    try {
      const net::Endpoint endpoint = net::Endpoint::parse(listen_address);
      net::NdjsonServer server(
          endpoint,
          [&](net::Sink sink) {
            return std::make_unique<net::LineSession>(
                service, std::move(sink), session_options);
          },
          service.registry(), server_options);
      std::fprintf(stderr, "vpdd: listening on %s (%zu threads)\n",
                   server.endpoint().to_string().c_str(),
                   service.thread_count());
      server.serve();
    } catch (const Error& e) {
      std::fprintf(stderr, "vpdd: %s\n", e.what());
      return 1;
    }
  } else {
    // stdin/stdout framed like a socket connection: the same line limit
    // and the same stream loop.
    net::Connection connection(STDIN_FILENO, STDOUT_FILENO);
    net::LineSession session(
        service,
        [&connection](const std::string& response) {
          connection.write_line(response);
        },
        session_options);
    refused = net::serve_stream(connection, session) ==
              net::StreamEnd::kRefused;
  }

  if (!session_options.default_trace_path.empty()) {
    const std::string& trace_path = session_options.default_trace_path;
    if (obs::write_trace(trace_path)) {
      std::fprintf(stderr, "vpdd: wrote %zu trace events to %s\n",
                   obs::trace_event_count(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "vpdd: failed to write trace to %s\n",
                   trace_path.c_str());
    }
  }
  if (metrics) {
    const std::string dump = io::dump_pretty(service.metrics_json());
    std::fputs(dump.c_str(), stderr);
    std::fputc('\n', stderr);
  }
  return refused ? 1 : 0;
}
