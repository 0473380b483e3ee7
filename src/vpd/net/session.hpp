// The NDJSON request loop, factored out of the vpdd main loop so the
// stdin/stdout daemon and every socket connection run the identical
// protocol: one response line per input line, in request order, ids
// echoed (recovered from the raw bytes when the line is malformed), the
// reject-not-block backpressure of the underlying EvaluationService, and
// the verbs evaluate / evaluate_batch / transient / optimize / metrics /
// trace / shutdown.
//
// Response ordering works like the original daemon — evaluation is
// parallel and out of order, but every response waits in its future until
// its turn, and control verbs are resolved at their output turn so a
// "metrics" line reflects every request before it — with one deliberate
// upgrade: a per-session writer thread (ResponseQueue) emits each
// response the moment its turn completes, instead of only when the next
// input line or EOF prompts a flush. A client that pipelines a request
// and then waits gets its answer immediately; under the old
// flush-on-input loop it would wait forever while the daemon's read
// blocked — fatal once sessions sit behind persistent sockets, where the
// stream stays open between requests.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "vpd/io/json.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/serve/service.hpp"

namespace vpd {
namespace net {

/// Receives one complete response line (no trailing newline). Called on
/// the thread that runs feed()/drain().
using Sink = std::function<void(const std::string& line)>;

struct SessionOptions {
  bool pretty{false};
  /// Output file for {"cmd":"trace"} without an explicit "path" (the
  /// daemon's --trace flag).
  std::string default_trace_path;
};

/// The canonical {"status":"error"} response body.
io::Value error_body(const std::string& message);

/// Frames a response line: the client's id first, then the body members,
/// moved out of `body` rather than copied.
std::string response_line(const io::Value& id, io::Value body, bool pretty);

/// Order-preserving asynchronous response emitter: push() enqueues a
/// resolver per request, a dedicated writer thread runs each resolver at
/// its FIFO turn (blocking there until that response is ready) and hands
/// the line to the sink, so responses stream out the moment they
/// complete while output order stays request order. A sink that throws
/// (client gone mid-stream) mutes further emission but every resolver
/// still runs, so in-flight work is always consumed. A resolver that
/// throws emits a {"status":"error"} line instead of killing the stream.
class ResponseQueue {
 public:
  explicit ResponseQueue(Sink sink);
  /// Blocks until everything queued has been emitted, then stops the
  /// writer.
  ~ResponseQueue();

  ResponseQueue(const ResponseQueue&) = delete;
  ResponseQueue& operator=(const ResponseQueue&) = delete;

  /// Enqueues the resolver for the next response line. Called from the
  /// feeding thread only.
  void push(std::function<std::string()> resolve);
  /// Blocks until every resolver pushed so far has been emitted.
  void wait_idle();

  std::size_t emitted() const;

 private:
  void writer_loop();

  Sink sink_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;  // writer: work arrived / stopping
  std::condition_variable idle_cv_;   // wait_idle: outstanding hit zero
  std::deque<std::function<std::string()>> queue_;
  std::size_t outstanding_{0};  // pushed, not yet fully emitted
  std::size_t emitted_{0};
  bool stop_{false};
  bool sink_alive_{true};
  std::thread writer_;
};

/// One NDJSON stream (stdin or one socket connection) in front of an
/// EvaluationService.
class LineSession {
 public:
  LineSession(serve::EvaluationService& service, Sink sink,
              SessionOptions options = {});

  /// Feeds one raw input line. Emits any responses whose turn has come.
  /// Returns false once a shutdown verb has been accepted — the caller
  /// must stop feeding and call drain().
  bool feed(std::string_view line);
  /// Blocks until every pending response (shutdown's final line included)
  /// has been emitted.
  void drain();
  /// Ends a stream whose framing was lost: queues one bare
  /// {"status":"error"} line (no id) carrying `reason` after every
  /// response fed so far. The caller must stop feeding and call drain().
  void refuse(const std::string& reason);

  bool shutdown_requested() const { return shutdown_requested_; }
  std::size_t lines_in() const { return lines_in_; }
  std::size_t lines_out() const { return queue_.emitted(); }

 private:
  /// One response in flight, resolved in request order (see vpdd's
  /// original Pending): exactly one of `future` (evaluations) and `kind`
  /// != kEvaluate is active; control verbs build their bodies when their
  /// turn comes so they observe every earlier request.
  struct Pending {
    enum class Kind {
      kEvaluate,
      kEvaluateBatch,
      kBody,      // prebuilt (parse errors)
      kMetrics,
      kTrace,
      kTransient,
      kOptimize,
      kShutdown,  // final metrics line, then the stream ends
    };
    Kind kind{Kind::kEvaluate};
    io::Value id;
    std::shared_future<serve::ServiceResponse> future;  // kEvaluate
    io::Value body;                                     // kBody
    std::string path;  // kTrace ("" = default_trace_path)
    std::vector<io::EvaluationRequest> batch;           // kEvaluateBatch
    std::optional<io::TransientRequest> transient;      // kTransient
    std::optional<io::OptimizeRequest> optimize;        // kOptimize
  };

  io::Value resolve(Pending& item);

  serve::EvaluationService& service_;
  SessionOptions options_;
  bool shutdown_requested_{false};
  std::size_t lines_in_{0};
  ResponseQueue queue_;  // last member: writer stops before the rest dies
};

/// Builds a session for one accepted connection, writing responses
/// through `sink`.
using SessionFactory =
    std::function<std::unique_ptr<LineSession>(Sink sink)>;

}  // namespace net
}  // namespace vpd
