// serve_mix: NDJSON traffic over the in-process `vpdd --listen` stack
// (NdjsonServer + LineSession + EvaluationService with vpdd's default
// queue and result-LRU capacities, wired the way tools/vpdd.cpp wires
// them), reached through two client connections on a Unix socket in the
// working directory.
//
// The request stream follows the one bench_serve documents: 12 designs
// (the hot set of 4 architectures x 2 topologies, 2 near-duplicates that
// share mesh geometry, 2 fault variants) drawn uniformly, with the share
// of first-seen keys that stream has (12 in 180) carried over as a tail of
// never-repeating keys. Over a run the tail outgrows the result LRU, so
// misses evaluate, insert and evict.
//
// Untraced runs time two closed-loop phases on fresh requests: a capacity
// phase with a deep window on each connection (throughput) and a latency
// phase with one request in flight per connection, so a hit never waits
// behind a miss in the session's ordered writer (latency). An open-loop
// phase (Poisson arrivals, every request timed from its scheduled send)
// varied several-fold in latency between runs of one seed on a shared
// host, so it runs in traced runs only, for the generator's health and the
// service and io layer metrics. Every response is checked against an
// in-process evaluate_with_exclusion of its request.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "vpd/common/rng.hpp"
#include "vpd/core/explorer.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/net/server.hpp"
#include "vpd/net/session.hpp"
#include "vpd/net/socket.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/serve/service.hpp"
#include "vpd/sweep/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace vpd;

constexpr std::size_t kConnections = 2;
/// Arrival rate of the traced open-loop phase, where the generator's
/// health and the per-request layer costs are measured: about a tenth of
/// the stack's closed-loop capacity on a 4-core host.
constexpr double kNominalRate = 800.0;
/// A phase stops sending beyond this many outstanding requests, below the
/// service's default queue capacity (256), so the service never has to
/// reject.
constexpr std::size_t kBacklogLimit = 250;
/// Requests in flight per connection during the capacity phase: enough
/// queued misses to keep both service workers busy.
constexpr std::size_t kCapacityWindow = 32;
/// Requests per closed-loop chunk (checked between chunks).
constexpr std::size_t kChunk = 4000;
/// Shares of the run's seconds: the capacity and latency phases (untraced
/// runs) and the nominal phase (traced runs).
constexpr double kCapacityShare = 0.45;
constexpr double kLatencyShare = 0.25;
constexpr double kNominalShare = 0.5;

/// The request population: the designs fixed by the seed, draws by the
/// caller's stream.
class RequestMix {
 public:
  explicit RequestMix(std::uint64_t seed) {
    Rng rng(seed, 3);
    io::EvaluationRequest request;
    request.options = paper_mode_options(41);
    for (ArchitectureKind arch : kCampaignArchitectures) {
      for (TopologyKind topo : {TopologyKind::kDpmih, TopologyKind::kDsch}) {
        request.architecture = arch;
        request.topology = topo;
        designs_.push_back(request);
      }
    }
    // Near-duplicates: A1 and A2 (DSCH) at another derating — the same mesh
    // geometry (mesh-cache hit), a different result key.
    for (std::size_t k : {1, 3}) {
      io::EvaluationRequest near = designs_[k];
      near.options.derating = rng.uniform(0.60, 0.70);
      designs_.push_back(near);
    }
    // Fault variants on A2 (DSCH): a dropped below-die VR and a damaged
    // mesh region (a perturbed, separately assembled operator).
    io::EvaluationRequest dropout = designs_[3];
    dropout.options.faults.dropped_sites = {rng.next_below(8)};
    designs_.push_back(dropout);
    io::EvaluationRequest damaged = designs_[3];
    const double x0 = rng.uniform(2e-3, 16e-3);
    const double y0 = rng.uniform(2e-3, 16e-3);
    damaged.options.faults.mesh_perturbation.push_back(EdgeScaleRegion{
        Length{x0}, Length{y0}, Length{x0 + 3e-3}, Length{y0 + 3e-3}, 0.1});
    designs_.push_back(damaged);
  }

  /// The repeating designs; a warm service has seen them all.
  const std::vector<io::EvaluationRequest>& designs() const {
    return designs_;
  }

  /// Next request: with probability 12/180 a key never seen before (a hot
  /// design at a fresh derating), else one of the designs.
  io::EvaluationRequest draw(Rng& rng) const {
    const bool tail = rng.next_double() < 12.0 / 180.0;
    const auto pick = [&](std::size_t n) {
      return designs_[rng.next_below(static_cast<std::uint32_t>(n))];
    };
    if (!tail) return pick(designs_.size());
    io::EvaluationRequest fresh = pick(8);
    fresh.options.derating = rng.uniform(0.60, 0.70);
    return fresh;
  }

 private:
  std::vector<io::EvaluationRequest> designs_;
};

/// The client side: one NDJSON connection per slot, each with a reader
/// thread matching responses to requests in send order (the session
/// answers in request order).
class Client {
 public:
  struct Received {
    std::size_t id;
    Clock::time_point at;
    std::string line;
  };

  explicit Client(const net::Endpoint& endpoint) {
    for (std::size_t k = 0; k < kConnections; ++k) {
      conns_[k] = net::connect_to(endpoint);
    }
    for (std::size_t k = 0; k < kConnections; ++k) {
      readers_[k] = std::thread([this, k] { read_loop(k); });
    }
  }

  ~Client() {
    for (net::Connection& conn : conns_) conn.shutdown_write();
    for (std::thread& reader : readers_) {
      if (reader.joinable()) reader.join();
    }
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  static std::size_t connection_of(std::size_t id) { return id % kConnections; }

  /// Sends request `id` on its connection. One caller only.
  void send(std::size_t id, const std::string& line) {
    const std::size_t k = connection_of(id);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_[k].push_back(id);
      ++outstanding_;
    }
    conns_[k].write_line(line);
  }

  std::size_t outstanding() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return outstanding_;
  }

  /// Waits for every sent request's response; false on timeout or when a
  /// connection failed.
  bool wait_idle(double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return idle_cv_.wait_for(
               lock, std::chrono::duration<double>(timeout_s),
               [this] { return outstanding_ == 0 || broken_; }) &&
           !broken_;
  }

  /// Blocks while `limit` or more requests are outstanding on connection
  /// `k`.
  void wait_below(std::size_t k, std::size_t limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return pending_[k].size() < limit || broken_; });
  }

  std::vector<Received> take_received() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(received_, {});
  }

 private:
  void read_loop(std::size_t k) {
    std::string line;
    try {
      while (conns_[k].read_line(&line)) {
        const Clock::time_point at = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        if (pending_[k].empty()) {
          broken_ = true;  // a response nobody asked for
        } else {
          received_.push_back({pending_[k].front(), at, std::move(line)});
          pending_[k].pop_front();
          --outstanding_;
        }
        idle_cv_.notify_all();
      }
    } catch (const std::exception&) {
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!pending_[k].empty()) broken_ = true;
    idle_cv_.notify_all();
  }

  net::Connection conns_[kConnections];
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::deque<std::size_t> pending_[kConnections];  // guarded by mutex_
  std::vector<Received> received_;                 // guarded by mutex_
  std::size_t outstanding_{0};                     // guarded by mutex_
  bool broken_{false};                             // guarded by mutex_
  std::thread readers_[kConnections];              // last: joined first
};

/// The served process: the service, the socket server on its own thread,
/// and the client connected to it.
class Stack {
 public:
  Stack() : service_(service_config()) {
    static int instance = 0;
    const net::Endpoint endpoint = net::Endpoint::parse(
        "unix:.perfbench-" + std::to_string(::getpid()) + "-" +
        std::to_string(instance++) + ".sock");
    server_ = std::make_unique<net::NdjsonServer>(
        endpoint,
        [this](net::Sink sink) {
          return std::make_unique<net::LineSession>(service_, std::move(sink));
        },
        service_.registry());
    serving_ = std::thread([this] { server_->serve(); });
    try {
      client_ = std::make_unique<Client>(server_->endpoint());
    } catch (...) {
      server_->request_shutdown();
      serving_.join();
      throw;
    }
  }

  ~Stack() {
    client_.reset();
    server_->request_shutdown();
    serving_.join();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  serve::EvaluationService& service() { return service_; }
  Client& client() { return *client_; }

 private:
  /// vpdd's defaults (queue 256, result LRU 1024) on the benchmark's
  /// worker threads.
  static serve::ServiceConfig service_config() {
    serve::ServiceConfig config;
    config.threads = kWorkerThreads;
    return config;
  }

  serve::EvaluationService service_;
  std::unique_ptr<net::NdjsonServer> server_;
  std::thread serving_;
  std::unique_ptr<Client> client_;
};

/// One request's slot in a phase schedule.
struct Arrival {
  std::size_t id{0};
  double due_s{0.0};  // scheduled send, seconds after the phase start
};

/// Yields a phase's next arrival; false when the phase is over.
using Schedule = std::function<bool(Arrival*)>;

/// Poisson arrivals of `ids` at `rate`.
Schedule poisson(std::vector<std::size_t> ids, double rate, Rng rng) {
  return [ids = std::move(ids), rate, rng, i = std::size_t{0},
          t = 0.0](Arrival* a) mutable {
    if (i == ids.size()) return false;
    t += -std::log(1.0 - rng.next_double()) / rate;
    *a = {ids[i++], t};
    return true;
  };
}

/// `ids` back to back (the phase's window paces them).
Schedule closed_loop(std::vector<std::size_t> ids) {
  return [ids = std::move(ids), i = std::size_t{0}](Arrival* a) mutable {
    if (i == ids.size()) return false;
    *a = {ids[i++], 0.0};
    return true;
  };
}

/// What one phase of traffic measured, per request in send order.
struct Phase {
  std::vector<double> latency_ms;       // scheduled send -> response
  std::vector<double> sent_latency_ms;  // actual send -> response
  std::vector<double> late_ms;          // actual send - scheduled send
  std::size_t backlog_max{0};
  bool aborted{false};  // stopped at the backlog limit
  double wall_s{0.0};   // phase start -> last response
};

/// The requests of the run that are not yet checked: each with its wire
/// line and, once answered, its response.
class Ledger {
 public:
  explicit Ledger(std::uint64_t seed) : mix_(seed) {}

  const RequestMix& mix() const { return mix_; }

  std::size_t add(const io::EvaluationRequest& request) {
    const std::size_t id = next_id_++;
    io::Value line = io::Value::object();
    line.set("id", id);
    line.set("cmd", "evaluate");
    const io::Value body = io::to_json(request);
    for (const auto& [key, value] : body.as_object()) line.set(key, value);
    slots_[id] = Slot{request, io::dump(line), {}};
    return id;
  }

  /// Appends `n` requests drawn from the mix.
  std::vector<std::size_t> draw(std::size_t n, Rng& rng) {
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(add(mix_.draw(rng)));
    return ids;
  }

  /// Appends copies of earlier (unchecked) requests under new ids.
  std::vector<std::size_t> copy(const std::vector<std::size_t>& from) {
    std::vector<std::size_t> ids;
    for (std::size_t id : from) {
      const io::EvaluationRequest request = slots_.at(id).request;
      ids.push_back(add(request));
    }
    return ids;
  }

  /// Runs one phase: sends each arrival at its due time or, with `window`
  /// > 0, as soon as fewer than `window` requests are outstanding on its
  /// connection; stops sending once more than kBacklogLimit are
  /// outstanding; then waits for every response.
  Phase run(Client& client, const Schedule& next, std::size_t window = 0) {
    Phase phase;
    std::vector<Clock::time_point> due;
    std::vector<Clock::time_point> sent;
    std::unordered_map<std::size_t, std::size_t> position;  // id -> slot
    // An open-loop schedule starts a moment ahead, so its first arrival is
    // not late by the set-up of the loop.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(window > 0 ? 0 : 2);
    Arrival a;
    while (next(&a)) {
      Clock::time_point when =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(a.due_s));
      if (window > 0) {
        client.wait_below(Client::connection_of(a.id), window);
        when = Clock::now();
      } else {
        // Sleep, then spin the last stretch: a sleeping thread wakes up to
        // a few hundred microseconds late on a virtualized host, and that
        // lateness would be charged to the served request.
        std::this_thread::sleep_until(when - std::chrono::microseconds(300));
        while (Clock::now() < when) {
        }
      }
      const std::size_t backlog = client.outstanding();
      if (backlog > kBacklogLimit) {
        phase.aborted = true;
        break;
      }
      position[a.id] = due.size();
      due.push_back(when);
      sent.push_back(Clock::now());
      client.send(a.id, slots_.at(a.id).line);
      phase.late_ms.push_back(1e3 * seconds_between(when, sent.back()));
      phase.backlog_max = std::max(phase.backlog_max, backlog + 1);
    }
    if (!client.wait_idle(60.0)) {
      throw std::runtime_error("serve_mix: responses stopped arriving");
    }
    phase.wall_s = seconds_since(start);
    phase.latency_ms.resize(due.size());
    phase.sent_latency_ms.resize(due.size());
    for (Client::Received& r : client.take_received()) {
      const std::size_t slot = position.at(r.id);
      phase.latency_ms[slot] = 1e3 * seconds_between(due[slot], r.at);
      phase.sent_latency_ms[slot] = 1e3 * seconds_between(sent[slot], r.at);
      slots_.at(r.id).response = std::move(r.line);
      answered_.push_back(r.id);
    }
    return phase;
  }

  /// Checks every request answered since the last check against an
  /// in-process evaluate_with_exclusion of the same request: status
  /// ok/excluded and a bit-identical result. Reference evaluations run once
  /// per canonical key; checked requests are dropped unless kept for the io
  /// probes.
  void check(RunRecord& record) {
    // Never-seen keys make up a share of every phase and never repeat:
    // bound the reference cache rather than keep them all.
    if (!keep_ && reference_.size() > 512) reference_.clear();
    std::vector<std::string> keys;
    std::vector<std::size_t> fresh;  // answered_ slots needing a reference
    for (std::size_t id : answered_) {
      keys.push_back(io::canonical_request_key(slots_.at(id).request));
      if (reference_.emplace(keys.back(), Reference{}).second) {
        fresh.push_back(keys.size() - 1);
      }
    }
    {
      // Every key is inserted above, so the workers only write into
      // existing entries: no rehash races.
      ThreadPool pool(4);
      for (std::size_t k : fresh) {
        pool.submit([this, request = slots_.at(answered_[k]).request,
                     &ref = reference_.at(keys[k])]() mutable {
          request.options.mesh_cache = nullptr;
          auto entry = std::make_shared<const ExplorationEntry>(
              evaluate_with_exclusion(request.spec, request.architecture,
                                      request.topology, request.tech,
                                      request.options));
          ref.expected = io::dump(io::to_json(*entry));
          if (keep_) ref.entry = std::move(entry);
        });
      }
      pool.wait_idle();
    }
    for (std::size_t k = 0; k < answered_.size(); ++k) {
      const std::size_t id = answered_[k];
      record.attempt();
      const std::string& expected = reference_.at(keys[k]).expected;
      if (!result_matches(id, expected)) explain_mismatch(id, expected, record);
      if (!keep_) slots_.erase(id);
    }
    answered_.clear();
  }

  /// Keep checked requests and their reference entries for probe_io.
  void keep_for_probes() { keep_ = true; }

  /// Mean per-request cost [us] of parse, decode, canonical key and
  /// response encode on `ids`' own lines (after check()).
  void probe_io(const std::vector<std::size_t>& ids, RunRecord& record) const {
    const auto mean_us = [&](auto&& op) {
      std::vector<double> passes;
      for (int pass = 0; pass < 3; ++pass) {
        const auto start = Clock::now();
        for (std::size_t id : ids) op(slots_.at(id), id);
        passes.push_back(1e6 * seconds_since(start) / double(ids.size()));
      }
      return median(passes);
    };
    std::unordered_map<std::size_t, io::Value> docs;
    for (std::size_t id : ids) docs[id] = io::Value();
    record.metric("io.parse_us", mean_us([&](const Slot& s, std::size_t id) {
      docs.at(id) = io::parse(s.line);
    }));
    record.metric("io.decode_us", mean_us([&](const Slot&, std::size_t id) {
      io::evaluation_request_from_json(docs.at(id));
    }));
    record.metric("io.key_us", mean_us([&](const Slot& s, std::size_t) {
      io::canonical_request_key(s.request);
    }));
    record.metric("io.encode_us", mean_us([&](const Slot& s, std::size_t id) {
      serve::ServiceResponse response;
      response.status = serve::ResponseStatus::kOk;
      response.entry =
          reference_.at(io::canonical_request_key(s.request)).entry;
      net::response_line(io::Value(id), serve::to_json(response), false);
    }));
  }

 private:
  struct Slot {
    io::EvaluationRequest request;
    std::string line;
    std::string response;
  };
  struct Reference {
    std::string expected;  // the result's canonical dump
    std::shared_ptr<const ExplorationEntry> entry;
  };

  /// Fast check of a response line without parsing it: the session frames
  /// {"id":ID,"status":"ok"|"excluded",...,"result":RESULT,"from_cache":...}
  /// with the canonical writer, so RESULT is the reference's dump exactly.
  bool result_matches(std::size_t id, const std::string& expected) const {
    const std::string& line = slots_.at(id).response;
    const std::string head = "{\"id\":" + std::to_string(id) + ",\"status\":\"";
    if (line.size() < head.size() + 9 ||
        line.compare(0, head.size(), head) != 0) {
      return false;
    }
    const std::string_view status(line.data() + head.size(), 9);
    if (!status.starts_with("ok\"") && !status.starts_with("excluded\"")) {
      return false;
    }
    const std::size_t start = line.find(",\"result\":");
    const std::size_t end = line.rfind(",\"from_cache\":");
    const std::size_t at = start + 10;
    return start != std::string::npos && end != std::string::npos &&
           end >= at && line.compare(at, end - at, expected) == 0;
  }

  /// Slow path after a failed fast check: parses the response and records
  /// what is wrong with it.
  void explain_mismatch(std::size_t id, const std::string& expected,
                        RunRecord& record) const {
    const std::string what = "request " + std::to_string(id);
    try {
      const io::Value doc = io::parse(slots_.at(id).response);
      const std::string& status = doc.at("status").as_string();
      if (doc.at("id").as_number() != double(id)) {
        record.fail(what + ": response carries another id");
      } else if (status != "ok" && status != "excluded") {
        record.fail(what + ": status " + status);
      } else if (io::dump(doc.at("result")) != expected) {
        record.fail(what + ": result differs from the in-process evaluation");
      }
    } catch (const std::exception& e) {
      record.fail(what + ": " + e.what());
    }
  }

  RequestMix mix_;
  std::size_t next_id_{0};
  std::unordered_map<std::size_t, Slot> slots_;
  std::vector<std::size_t> answered_;  // not yet checked, answer order
  std::unordered_map<std::string, Reference> reference_;
  bool keep_{false};
};

/// Set-up: the served stack and a closed-loop warm-up over the mix's
/// designs.
std::unique_ptr<Stack> set_up(Ledger& ledger) {
  auto stack = std::make_unique<Stack>();
  std::vector<std::size_t> warm;
  for (const io::EvaluationRequest& request : ledger.mix().designs()) {
    warm.push_back(ledger.add(request));
  }
  const std::size_t window = warm.size();
  ledger.run(stack->client(), closed_loop(std::move(warm)), window);
  return stack;
}

/// The service's deterministic work since set-up: with every repeating key
/// resident in the result LRU, one evaluation per distinct key, whatever
/// the interleaving of hits, coalesced submits and misses.
void emit_counts(const serve::ServiceMetrics& m, RunRecord& record) {
  record.count("serve.evaluated", double(m.evaluated));
  record.count("solver.cg_solves", double(m.solver.cg_solves));
  record.count("solver.cg_iterations", double(m.solver.cg_iterations));
  record.count("mesh.assemblies", double(m.mesh_cache.misses));
}

/// What a closed-loop phase measured, per chunk: medians over chunks keep a
/// burst of host noise to the chunks it hit.
struct ClosedPhase {
  std::vector<double> rates;   // completions per second
  std::vector<double> p50_ms;  // request latency
  std::vector<double> p99_ms;
};

/// Closed-loop chunks of fresh requests at `window` per connection until
/// `seconds` of traffic, each checked before the next so the benchmark's
/// response log stays one chunk long. `after_first` runs once, after the
/// first chunk and before its check.
ClosedPhase closed_phase(Stack& stack, Ledger& ledger, Rng& draws,
                         std::size_t window, double seconds,
                         RunRecord& record,
                         const std::function<void()>& after_first) {
  ClosedPhase phase;
  double busy_s = 0.0;
  while (busy_s < seconds) {
    const Phase chunk = ledger.run(
        stack.client(), closed_loop(ledger.draw(kChunk, draws)), window);
    if (busy_s == 0.0 && after_first) after_first();
    phase.rates.push_back(ratio(double(kChunk), chunk.wall_s));
    phase.p50_ms.push_back(median(chunk.latency_ms));
    phase.p99_ms.push_back(quantile(chunk.latency_ms, 0.99));
    busy_s += chunk.wall_s;
    ledger.check(record);
  }
  return phase;
}

}  // namespace

void run_serve_mix(const RunOptions& options, RunRecord& record) {
  Ledger ledger(options.seed);
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  // Set-up takes milliseconds here: three times the repeats for a steady
  // median.
  for (std::size_t k = 0; k < 3 * kSetupRepeats; ++k) {
    const auto start = Clock::now();
    stack.reset();
    stack = set_up(ledger);
    setup_s.push_back(seconds_since(start));
  }

  if (!options.trace) {
    record.metric("setup_s", median(setup_s));
    Rng draws(options.seed, 20);
    // Capacity: both connections kept kCapacityWindow deep.
    const ClosedPhase deep = closed_phase(
        *stack, ledger, draws, kCapacityWindow,
        kCapacityShare * options.seconds, record, [&] {
          // After set-up and one fixed chunk, before any reference copies.
          record.metric("peak_rss_mb", peak_rss_mb());
          emit_counts(stack->service().metrics(), record);
        });
    record.metric("throughput_per_s", median(deep.rates));
    // Latency: one request in flight per connection.
    const ClosedPhase single =
        closed_phase(*stack, ledger, draws, 1, kLatencyShare * options.seconds,
                     record, nullptr);
    record.metric("latency_p50_ms", median(single.p50_ms));
    record.metric("latency_tail_ms", median(single.p99_ms));
    return;
  }

  // Traced: the open-loop nominal phase with the program's spans on.
  ledger.keep_for_probes();
  Rng draws(options.seed, 10);
  const std::vector<std::size_t> nominal_ids = ledger.draw(
      static_cast<std::size_t>(kNominalRate * kNominalShare * options.seconds),
      draws);
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  const Phase nominal = ledger.run(
      stack->client(),
      poisson(nominal_ids, kNominalRate, Rng(options.seed, 11)));
  obs::set_tracing_enabled(false);
  if (nominal.aborted) record.fail("nominal phase: the backlog kept growing");

  SpanTable spans;
  spans.add(collect_spans());
  obs::clear_trace();
  const serve::ServiceMetrics m = stack->service().metrics();
  emit_counts(m, record);
  record.count("evaluate.calls", double(spans.count("vpd.evaluate")));
  const obs::HistogramData* queue_wait =
      m.observability.histogram("serve.stage.queue_seconds");
  record.metric("serve.queue_wait_p99_ms",
                queue_wait ? 1e3 * queue_wait->quantile(0.99) : 0.0);
  record.metric("serve.hit_ratio",
                ratio(double(m.result_cache_hits + m.coalesced),
                      double(m.requests)));
  record.metric("serve.evaluated", double(m.evaluated));
  record.metric("serve.rejected", double(m.rejected));
  record.metric("serve.queue_high_water", double(m.queue_high_water));
  record.metric("serve.latency_p99_ms", 1e3 * m.latency_p99_seconds);
  double client_ms = 0.0;
  for (double v : nominal.sent_latency_ms) client_ms += v;
  record.metric("net.overhead_ms",
                ratio(client_ms, double(nominal.sent_latency_ms.size())) -
                    1e3 * m.latency_mean_seconds);
  record.metric("gen.late_p99_ms", quantile(nominal.late_ms, 0.99));
  record.metric("gen.backlog_max", double(nominal.backlog_max));
  record.metric("mesh.assemblies", double(m.mesh_cache.misses));
  record.metric("mesh.assemble_ms", 1e-3 * spans.mean_dur_us("mesh.assemble"));
  record.metric("mesh.cache_hit_ratio", m.mesh_cache_hit_rate());
  record.metric("irdrop.solves", double(spans.count("irdrop.solve")));
  record.metric("irdrop.overhead_us", spans.mean_self_us("irdrop.solve"));
  record.metric("solver.cg_solves", double(m.solver.cg_solves));
  record.metric("solver.cg_iterations", double(m.solver.cg_iterations));
  record.metric("solver.iterations_per_solve",
                ratio(double(m.solver.cg_iterations),
                      double(m.solver.cg_solves)));
  record.metric("solver.precond_factorizations",
                double(m.solver.precond_factorizations));
  record.metric("solver.precond_reuse_ratio",
                ratio(double(m.solver.precond_reuses),
                      double(m.solver.precond_reuses +
                             m.solver.precond_factorizations)));
  record.metric("evaluate.calls_per_point",
                ratio(double(spans.count("vpd.evaluate")),
                      double(spans.count("serve.request"))));
  record.metric("evaluate.self_ms", 1e-3 * spans.mean_self_us("vpd.evaluate"));

  // Tracing overhead: closed-loop replays of the nominal requests through
  // fresh stacks, alternately untraced and traced.
  const std::vector<std::size_t> replay(
      nominal_ids.begin(),
      nominal_ids.begin() + std::min<std::size_t>(600, nominal_ids.size()));
  std::vector<double> walls[2];
  for (int r = 0; r < 4; ++r) {
    const bool traced = r % 2 == 1;
    stack = set_up(ledger);
    obs::set_tracing_enabled(traced);
    walls[traced].push_back(
        ledger.run(stack->client(), closed_loop(ledger.copy(replay)),
                   /*window=*/8)
            .wall_s);
    obs::set_tracing_enabled(false);
    obs::clear_trace();
  }
  stack.reset();
  record.metric("trace.overhead_ratio",
                ratio(median(walls[1]), median(walls[0])));

  ledger.check(record);
  ledger.probe_io(replay, record);
  run_layer_probes(paper_probe_target(41), record);
}

}  // namespace perfbench
