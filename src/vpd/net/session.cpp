#include "vpd/net/session.hpp"

#include <chrono>
#include <utility>

#include "vpd/obs/trace.hpp"

namespace vpd {
namespace net {

io::Value error_body(const std::string& message) {
  io::Value body = io::Value::object();
  body.set("status", "error");
  body.set("schema_version", io::kSchemaVersion);
  body.set("error", message);
  return body;
}

std::string response_line(const io::Value& id, io::Value body, bool pretty) {
  io::Value framed = io::Value::object();
  framed.set("id", id);
  for (auto& [key, value] : body.as_object()) {
    framed.set(std::move(key), std::move(value));
  }
  return pretty ? io::dump_pretty(framed) : io::dump(framed);
}

ResponseQueue::ResponseQueue(Sink sink) : sink_(std::move(sink)) {
  VPD_REQUIRE(sink_ != nullptr, "ResponseQueue needs a sink");
  writer_ = std::thread([this] { writer_loop(); });
}

ResponseQueue::~ResponseQueue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ready_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

void ResponseQueue::push(std::function<std::string()> resolve) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(resolve));
    ++outstanding_;
  }
  ready_cv_.notify_one();
}

void ResponseQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

std::size_t ResponseQueue::emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

void ResponseQueue::writer_loop() {
  for (;;) {
    std::function<std::string()> resolve;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_cv_.wait(lock, [this] { return !queue_.empty() || stop_; });
      if (queue_.empty()) return;  // stop_ set and everything emitted
      resolve = std::move(queue_.front());
      queue_.pop_front();
    }
    // Resolving blocks until this response's turn completes — the whole
    // point: emission is driven by completion, not by the next input.
    std::string line;
    try {
      line = resolve();
    } catch (const std::exception& e) {
      line = response_line(io::Value(), error_body(e.what()),
                           /*pretty=*/false);
    }
    bool deliver;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      deliver = sink_alive_;
    }
    if (deliver) {
      try {
        sink_(line);
      } catch (...) {
        // Client vanished mid-stream: keep consuming resolvers so
        // in-flight work still completes, but stop writing.
        std::lock_guard<std::mutex> lock(mutex_);
        sink_alive_ = false;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++emitted_;
      --outstanding_;
    }
    idle_cv_.notify_all();
  }
}

LineSession::LineSession(serve::EvaluationService& service, Sink sink,
                         SessionOptions options)
    : service_(service),
      options_(std::move(options)),
      queue_(std::move(sink)) {}

bool LineSession::feed(std::string_view line) {
  if (shutdown_requested_) return false;
  if (line.find_first_not_of(" \t\r") == std::string_view::npos) {
    return true;  // blank lines keep the stream alive but produce nothing
  }
  ++lines_in_;

  Pending item;
  try {
    const io::Value doc = io::parse(line);
    if (const io::Value* requested_id = doc.find("id")) {
      item.id = *requested_id;
    }
    // The envelope's "cmd" and "id" need no stripping: the schema reader
    // ignores unknown fields (the v2 compatibility rule).
    std::string cmd = "evaluate";
    if (const io::Value* requested_cmd = doc.find("cmd")) {
      cmd = requested_cmd->as_string();
    }
    if (cmd == "evaluate") {
      const io::EvaluationRequest request =
          io::evaluation_request_from_json(doc);
      item.kind = Pending::Kind::kEvaluate;
      item.future = service_.submit(request);
    } else if (cmd == "evaluate_batch") {
      const io::Value* requests = doc.find("requests");
      if (requests == nullptr) {
        throw InvalidArgument("evaluate_batch needs a \"requests\" array");
      }
      item.kind = Pending::Kind::kEvaluateBatch;
      for (const io::Value& entry : requests->as_array()) {
        item.batch.push_back(io::evaluation_request_from_json(entry));
      }
    } else if (cmd == "transient") {
      item.kind = Pending::Kind::kTransient;
      item.transient = io::transient_request_from_json(doc);
    } else if (cmd == "optimize") {
      item.kind = Pending::Kind::kOptimize;
      item.optimize = io::optimize_request_from_json(doc);
    } else if (cmd == "metrics") {
      item.kind = Pending::Kind::kMetrics;
    } else if (cmd == "trace") {
      item.kind = Pending::Kind::kTrace;
      if (const io::Value* path = doc.find("path")) {
        item.path = path->as_string();
      }
    } else if (cmd == "shutdown") {
      item.kind = Pending::Kind::kShutdown;
      shutdown_requested_ = true;
    } else {
      item.kind = Pending::Kind::kBody;
      item.body = error_body(
          "unknown cmd " + io::quote_for_error(cmd) +
          " (expected evaluate, evaluate_batch, transient, optimize, "
          "metrics, trace or shutdown)");
    }
  } catch (const Error& e) {
    // Queue a resolved error response so output order stays request order
    // even when a bad line lands between in-flight evaluations. The id is
    // recovered from the raw bytes when the envelope did not parse —
    // pipelining clients must never receive an orphaned error.
    item.kind = Pending::Kind::kBody;
    if (item.id.is_null()) item.id = io::recover_wire_id(line);
    item.body = error_body(e.what());
  }
  // shared_ptr because std::function requires a copyable callable.
  auto pending = std::make_shared<Pending>(std::move(item));
  queue_.push([this, pending] {
    return response_line(pending->id, resolve(*pending), options_.pretty);
  });
  return !shutdown_requested_;
}

void LineSession::drain() { queue_.wait_idle(); }

void LineSession::refuse(const std::string& reason) {
  queue_.push([line = io::dump(error_body(reason))] { return line; });
}

io::Value LineSession::resolve(Pending& item) {
  switch (item.kind) {
    case Pending::Kind::kBody:
      return std::move(item.body);
    case Pending::Kind::kMetrics: {
      io::Value body = io::Value::object();
      body.set("status", "ok");
      body.set("schema_version", io::kSchemaVersion);
      body.set("metrics", service_.metrics_json());
      return body;
    }
    case Pending::Kind::kTrace: {
      const std::string& path =
          item.path.empty() ? options_.default_trace_path : item.path;
      if (path.empty()) {
        return error_body(
            "trace: no output path (pass \"path\" or start vpdd with "
            "--trace FILE)");
      }
      if (!obs::write_trace(path)) {
        return error_body("trace: cannot write " + path);
      }
      io::Value body = io::Value::object();
      body.set("status", "ok");
      body.set("schema_version", io::kSchemaVersion);
      io::Value trace = io::Value::object();
      trace.set("path", path);
      trace.set("events", double(obs::trace_event_count()));
      trace.set("dropped", double(obs::trace_events_dropped()));
      body.set("trace", trace);
      return body;
    }
    case Pending::Kind::kEvaluateBatch: {
      // Synchronous at its output turn, like transient and optimize: the
      // batch engine runs on this thread, and a later "metrics" line sees
      // the whole batch's serve.batch.* accounting.
      const std::vector<serve::ServiceResponse> results =
          service_.evaluate_batch(item.batch);
      io::Value body = io::Value::object();
      body.set("status", "ok");
      body.set("schema_version", io::kSchemaVersion);
      io::Value array = io::Value::array();
      for (const serve::ServiceResponse& response : results) {
        array.push_back(serve::to_json(response));
      }
      body.set("results", std::move(array));
      return body;
    }
    case Pending::Kind::kTransient:
      // Runs synchronously at its output turn: the campaign owns its own
      // worker pool, and resolving in order keeps the pipelining contract
      // (a later "metrics" line sees the whole campaign).
      return serve::to_json(service_.run_transient(*item.transient));
    case Pending::Kind::kOptimize:
      // Same synchronous-at-turn rule as transient: the optimizer owns
      // its own worker pool and a later "metrics" line sees the run.
      return serve::to_json(service_.run_optimize(*item.optimize));
    case Pending::Kind::kShutdown: {
      // The shutdown response is the final metrics line: every earlier
      // request has resolved by this turn, so the snapshot is the
      // stream's complete accounting.
      io::Value body = io::Value::object();
      body.set("status", "ok");
      body.set("schema_version", io::kSchemaVersion);
      body.set("shutdown", true);
      body.set("metrics", service_.metrics_json());
      return body;
    }
    case Pending::Kind::kEvaluate:
      break;
  }
  return serve::to_json(item.future.get());
}

}  // namespace net
}  // namespace vpd
