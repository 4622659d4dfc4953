#include "service/gateway.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/sha256.hpp"
#include "container/image.hpp"
#include "service/distribution.hpp"

namespace xaas::service {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void append_f64(std::string& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

void append_i64(std::string& out, long long v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}

/// Whether a fleet node can serve an image of the given OCI architecture
/// (source images are per-base-ISA; IR images use the llvm-ir+<isa>
/// pseudo-architectures of §5.2).
bool node_serves_arch(const vm::NodeSpec& node, const std::string& arch) {
  if (node.cpu.arch == isa::Arch::X86_64) {
    return arch == container::kArchAmd64 || arch == container::kArchLlvmIrAmd64;
  }
  return arch == container::kArchArm64 || arch == container::kArchLlvmIrArm64;
}

/// Feeds one tiered cache's events into `<prefix>.hits`,
/// `<prefix>.disk_hits`, `<prefix>.<computed>` and the
/// `<prefix>.<seconds>` histogram of compute times; a failed compute also
/// counts `<prefix>.<failures>` when that name is given.
common::CacheObserver cache_observer(telemetry::MetricsRegistry& metrics,
                                     const std::string& prefix,
                                     const std::string& computed,
                                     const std::string& seconds,
                                     const std::string& failures = {}) {
  auto* hits = &metrics.counter(prefix + ".hits");
  auto* tier_hits = &metrics.counter(prefix + ".disk_hits");
  auto* computes = &metrics.counter(prefix + "." + computed);
  auto* failed =
      failures.empty() ? nullptr : &metrics.counter(prefix + "." + failures);
  auto* hist = &metrics.histogram(prefix + "." + seconds);
  return [=](const common::CacheEvent& event) {
    switch (event.kind) {
      case common::CacheEvent::Kind::Hit:
        hits->add(1);
        break;
      case common::CacheEvent::Kind::TierHit:
        tier_hits->add(1);
        break;
      case common::CacheEvent::Kind::Computed:
        computes->add(1);
        hist->observe(event.seconds);
        if (failed && !event.ok) failed->add(1);
        break;
    }
  };
}

}  // namespace

std::string numerics_digest(const vm::RunResult& run,
                            const vm::Workload& workload) {
  std::string bytes;
  bytes.reserve(128);
  append_f64(bytes, run.ret_f64);
  append_i64(bytes, run.ret_i64);
  append_f64(bytes, run.cycles_serial);
  append_f64(bytes, run.cycles_parallel);
  append_f64(bytes, run.cycles_gpu);
  append_i64(bytes, run.fork_joins);
  append_i64(bytes, run.instructions);
  append_f64(bytes, run.elapsed_seconds);
  for (const auto& [name, buffer] : workload.f64_buffers) {
    bytes.append(name);
    bytes.push_back('\0');
    append_u64(bytes, buffer.size());
    for (const double v : buffer) append_f64(bytes, v);
  }
  for (const auto& [name, buffer] : workload.i64_buffers) {
    bytes.append(name);
    bytes.push_back('\0');
    append_u64(bytes, buffer.size());
    for (const long long v : buffer) append_i64(bytes, v);
  }
  return common::sha256_hex(bytes);
}

Gateway::Gateway(std::vector<vm::NodeSpec> fleet, GatewayOptions options,
                 StealFn steal)
    : options_(std::move(options)),
      fleet_(std::move(fleet)),
      artifact_store_([&]() -> std::unique_ptr<ArtifactStore> {
        if (options_.artifact_dir.empty()) return nullptr;
        ArtifactStoreOptions store_options;
        store_options.dir = options_.artifact_dir;
        store_options.max_bytes = options_.artifact_max_bytes;
        return std::make_unique<ArtifactStore>(std::move(store_options));
      }()),
      peer_([&]() -> std::unique_ptr<DistributionPeer> {
        // The registry peer needs a store to serve from; without one the
        // gateway simply stays off the fabric.
        if (!options_.distribution || !artifact_store_) return nullptr;
        return std::make_unique<DistributionPeer>(
            options_.distribution_name.empty() ? "gateway"
                                               : options_.distribution_name,
            *artifact_store_, *options_.distribution);
      }()),
      // The gateway's workers carry the fan-out; an inner pool wider than
      // one thread would only idle.
      farm_(registry_, BuildFarmOptions{1, artifact_store_.get(), peer_.get()}),
      scheduler_(registry_, farm_,
                 DeploySchedulerOptions{1, artifact_store_.get(), peer_.get()}),
      steal_(std::move(steal)) {
  // A zero bound would make every blocking submit() unsatisfiable.
  if (options_.max_queue == 0) options_.max_queue = 1;
  requests_ = &metrics_.counter("gateway.requests");
  admitted_ = &metrics_.counter("gateway.admitted");
  rejected_ = &metrics_.counter("gateway.rejected");
  shed_ = &metrics_.counter("gateway.shed");
  completed_ = &metrics_.counter("gateway.completed");
  failed_ = &metrics_.counter("gateway.failed");
  backpressure_waits_ = &metrics_.counter("gateway.backpressure_waits");
  retries_ = &metrics_.counter("gateway.retries");
  breaker_open_ = &metrics_.counter("gateway.breaker_open");
  deadline_exceeded_ = &metrics_.counter("gateway.deadline_exceeded");
  vm_runs_ = &metrics_.counter("vm.runs");
  vm_instructions_ = &metrics_.counter("vm.instructions");
  queue_depth_ = &metrics_.gauge("gateway.queue_depth");
  in_flight_ = &metrics_.gauge("gateway.in_flight");
  queue_hist_ = &metrics_.histogram("gateway.queue_seconds");
  deploy_hist_ = &metrics_.histogram("gateway.deploy_seconds");
  run_hist_ = &metrics_.histogram("gateway.run_seconds");
  total_hist_ = &metrics_.histogram("gateway.total_seconds");

  // The caches report into the same registry: both whole-deployment
  // caches (IR scheduler + source farm) feed one set of specialization
  // metrics, the farm's per-image TU caches feed the TU metrics.
  const auto spec_observer = cache_observer(
      metrics_, "spec_cache", "misses", "lowering_seconds", "deploy_failures");
  scheduler_.cache().set_observer(spec_observer);
  farm_.cache().set_observer(spec_observer);
  farm_.set_tu_observer(
      cache_observer(metrics_, "tu_cache", "compiles", "compile_seconds"));

  if (artifact_store_) {
    auto* store_hits = &metrics_.counter("artifact_store.disk_hits");
    auto* store_misses = &metrics_.counter("artifact_store.disk_misses");
    auto* store_writes = &metrics_.counter("artifact_store.writes");
    auto* store_evictions = &metrics_.counter("artifact_store.evictions");
    auto* store_verify_failures =
        &metrics_.counter("artifact_store.verify_failures");
    artifact_store_->set_observer(
        [store_hits, store_misses, store_writes, store_evictions,
         store_verify_failures](const ArtifactStore::Event& event) {
          switch (event.kind) {
            case ArtifactStore::Event::Kind::DiskHit:
              store_hits->add(1);
              break;
            case ArtifactStore::Event::Kind::DiskMiss:
              store_misses->add(1);
              break;
            case ArtifactStore::Event::Kind::Write:
              store_writes->add(1);
              break;
            case ArtifactStore::Event::Kind::Eviction:
              store_evictions->add(1);
              break;
            case ArtifactStore::Event::Kind::VerifyFailure:
              store_verify_failures->add(1);
              break;
          }
        });
  }

  load_.reserve(fleet_.size());
  breakers_.reserve(fleet_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    load_.push_back(std::make_unique<NodeLoad>());
    breakers_.push_back(std::make_unique<CircuitBreaker>(options_.breaker));
  }
  // Routing snapshot starts all-closed (matches the fresh breakers).
  {
    auto table = std::make_unique<RouteTable>();
    table->nodes.resize(fleet_.size());
    route_table_.store(std::move(table));
  }

  std::size_t worker_count = options_.worker_threads;
  if (worker_count == 0) {
    worker_count = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Gateway::~Gateway() { stop(); }

void Gateway::stop() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_workers_.notify_all();
  cv_space_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::future<RunResult> Gateway::submit(RunRequest request) {
  return submit_impl(std::move(request), /*never_block=*/false);
}

std::vector<std::future<RunResult>> Gateway::submit_batch(
    std::vector<RunRequest> requests) {
  std::vector<std::future<RunResult>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) {
    futures.push_back(submit_impl(std::move(request), /*never_block=*/true));
  }
  return futures;
}

std::future<RunResult> Gateway::submit_impl(RunRequest request,
                                            bool never_block) {
  auto promise = std::make_shared<std::promise<RunResult>>();
  auto future = promise->get_future();
  const auto refuse = [&](RunResult result) {
    promise->set_value(std::move(result));
    return std::move(future);
  };

  std::unique_lock lock(mutex_);
  if (stop_) {
    lock.unlock();
    return refuse(reject(ErrorCode::ShuttingDown, "gateway is shutting down"));
  }
  if (should_shed()) {
    lock.unlock();
    return refuse(shed(retry_after_hint()));
  }
  bool counted_wait = false;
  while (queued_.load(std::memory_order_relaxed) >= options_.max_queue) {
    if (options_.reject_on_full) {
      lock.unlock();
      return refuse(reject(ErrorCode::QueueFull,
                           "gateway queue full (" +
                               std::to_string(options_.max_queue) +
                               " requests waiting)",
                           retry_after_hint()));
    }
    if (never_block) {
      // Partial-batch degradation: the caller asked never to stall, so
      // the requests that do not fit are shed rather than queued.
      lock.unlock();
      return refuse(shed(retry_after_hint()));
    }
    if (!counted_wait) {
      counted_wait = true;  // once per submission, not per wakeup
      backpressure_waits_->add(1);
    }
    cv_space_.wait(lock);
    if (stop_) {
      lock.unlock();
      return refuse(
          reject(ErrorCode::ShuttingDown, "gateway is shutting down"));
    }
  }
  push_locked(Job{std::move(request), Clock::now(),
                  [promise](RunResult result, Gateway&) {
                    promise->set_value(std::move(result));
                  }});
  lock.unlock();
  cv_workers_.notify_one();
  return future;
}

std::size_t Gateway::enqueue(Job&& job) {
  std::size_t depth = 0;
  {
    std::lock_guard lock(mutex_);
    if (stop_) return 0;
    depth = push_locked(std::move(job));
  }
  cv_workers_.notify_one();
  return depth;
}

std::size_t Gateway::push_locked(Job&& job) {
  job.seq = next_seq_++;
  // Copied first: the push moves the job, tenant string included.
  const std::string tenant = job.request.tenant;
  const double weight = job.request.weight;
  queue_[job.request.priority].push_weighted(tenant, /*cost=*/1.0, weight,
                                             std::move(job));
  queue_depth_->add(1);
  return queued_.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool Gateway::pop_locked(Job& out) {
  if (queued_.load(std::memory_order_relaxed) == 0) return false;
  for (auto& [priority, tenants] : queue_) {
    if (tenants.pop(&out)) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      queue_depth_->add(-1);
      return true;
    }
  }
  return false;
}

bool Gateway::try_pop(Job& out) {
  {
    std::lock_guard lock(mutex_);
    if (!pop_locked(out)) return false;
  }
  cv_space_.notify_one();
  return true;
}

bool Gateway::wake_idle() {
  bool idle = false;
  {
    std::lock_guard lock(mutex_);
    ++wakeups_;
    idle = idle_ > 0;
  }
  if (idle) cv_workers_.notify_one();
  return idle;
}

bool Gateway::next_job(Job& out) {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (pop_locked(out)) {
      lock.unlock();
      cv_space_.notify_one();
      return true;
    }
    if (stop_) return false;  // drained
    if (steal_) {
      // The steal locks a sibling's queue, never this one. wakeups_ says
      // whether a sibling backed up meanwhile: its wake_idle() found no
      // worker asleep here, so this one retries instead of sleeping.
      const std::uint64_t seen = wakeups_;
      lock.unlock();
      if (steal_(out)) return true;
      lock.lock();
      if (wakeups_ != seen || queued_.load(std::memory_order_relaxed) > 0 ||
          stop_) {
        continue;
      }
    }
    ++idle_;
    cv_workers_.wait(lock);
    --idle_;
  }
}

bool Gateway::should_shed() const {
  if (options_.shed_queue_fraction > 0.0 &&
      static_cast<double>(queued_.load(std::memory_order_acquire)) >=
          options_.shed_queue_fraction *
              static_cast<double>(options_.max_queue)) {
    return true;
  }
  if (options_.shed_failure_rate > 0.0) {
    const auto total = window_total_.load(std::memory_order_relaxed);
    if (total >= options_.shed_min_samples) {
      const auto failed = window_failed_.load(std::memory_order_relaxed);
      if (static_cast<double>(failed) >=
          options_.shed_failure_rate * static_cast<double>(total)) {
        return true;
      }
    }
  }
  return false;
}

double Gateway::retry_after_hint() const {
  // Estimated drain time of the current backlog: recent per-request
  // service time (EMA; 1 ms floor before any completion) spread over the
  // workers, plus one service slot for the retried request itself.
  const double ema = std::bit_cast<double>(
      service_ema_bits_.load(std::memory_order_relaxed));
  const double per_request = ema > 0.0 ? ema : 1e-3;
  const double workers =
      static_cast<double>(std::max<std::size_t>(1, workers_.size()));
  const double depth =
      static_cast<double>(queued_.load(std::memory_order_acquire));
  return per_request * (1.0 + depth / workers);
}

void Gateway::record_completion(bool ok, double total_seconds) {
  // Service-time EMA (retry_after hint): seeded by the first completion.
  auto bits = service_ema_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const double current = std::bit_cast<double>(bits);
    const double next =
        current == 0.0 ? total_seconds : current * 0.9 + total_seconds * 0.1;
    if (service_ema_bits_.compare_exchange_weak(
            bits, std::bit_cast<std::uint64_t>(next),
            std::memory_order_relaxed)) {
      break;
    }
  }
  if (options_.shed_failure_rate <= 0.0) return;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now().time_since_epoch())
                       .count();
  auto start = window_start_nanos_.load(std::memory_order_relaxed);
  const auto window_nanos =
      static_cast<std::int64_t>(options_.shed_window_seconds * 1e9);
  if (now - start > window_nanos &&
      window_start_nanos_.compare_exchange_strong(start, now,
                                                  std::memory_order_relaxed)) {
    // One completion rotates the window; concurrent completions land in
    // the fresh window (approximate by design — shedding is advisory).
    window_total_.store(0, std::memory_order_relaxed);
    window_failed_.store(0, std::memory_order_relaxed);
  }
  window_total_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) window_failed_.fetch_add(1, std::memory_order_relaxed);
}

void Gateway::observe_fault_plan(fault::FaultPlan& plan) {
  plan.set_observer([this](std::string_view site) {
    metrics_.counter("fault." + std::string(site)).add(1);
  });
}

std::vector<RunResult> Gateway::run_all(std::vector<RunRequest> requests) {
  std::vector<std::future<RunResult>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) futures.push_back(submit(std::move(request)));
  std::vector<RunResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

std::size_t Gateway::queue_depth() const {
  return queued_.load(std::memory_order_acquire);
}

telemetry::MetricsSnapshot Gateway::snapshot() const {
  telemetry::MetricsSnapshot snap = metrics_.snapshot();
  // Process-wide RCU reclamation counters: every snapshot swap retires
  // one version, every deferred free reclaims one.
  const auto& domain = common::rcu::EpochDomain::instance();
  snap.counters["epoch.swaps"] = domain.retired();
  snap.counters["epoch.deferred_frees"] = domain.freed();
  // This gateway's registry-peer counters (fabric-wide totals live in
  // the Cluster's snapshot — overlaying them here too would double-count
  // across gateways).
  if (peer_) {
    const PeerStats stats = peer_->stats();
    snap.counters["distribution.blobs_in"] = stats.blobs_in;
    snap.counters["distribution.bytes_in"] = stats.bytes_in;
    snap.counters["distribution.blobs_out"] = stats.blobs_out;
    snap.counters["distribution.bytes_out"] = stats.bytes_out;
    snap.counters["distribution.pushed_in"] = stats.pushed_in;
    snap.counters["distribution.prewarm_fetches"] = stats.prewarm_fetches;
    snap.counters["distribution.lazy_fetches"] = stats.lazy_fetches;
    snap.counters["distribution.verify_rejects"] = stats.verify_rejects;
  }
  return snap;
}

void Gateway::worker_loop() {
  for (;;) {
    Job job;
    if (!next_job(job)) return;
    // Counted where it runs (reject() and shed() count refusals), so a
    // stolen job reconciles at its thief.
    requests_->add(1);
    admitted_->add(1);
    in_flight_->add(1);
    // Queue wait is admission→dequeue, measured here so resolve/routing
    // overheads inside execute() are never misattributed to the queue.
    const double queue_seconds = seconds_since(job.admitted);

    RunResult result;
    if (job.request.deadline_seconds > 0.0 &&
        queue_seconds >= job.request.deadline_seconds) {
      // The budget ran out while queued: fail fast, never start work.
      deadline_exceeded_->add(1);
      result.code = ErrorCode::DeadlineExceeded;
      result.error = "deadline exceeded while queued";
    } else {
      result = execute(job.request, job.admitted, job.seq);
    }
    result.total_seconds = seconds_since(job.admitted);
    result.queue_seconds = queue_seconds;
    queue_hist_->observe(result.queue_seconds);
    total_hist_->observe(result.total_seconds);
    (result.ok ? completed_ : failed_)->add(1);
    record_completion(result.ok, result.total_seconds);

    in_flight_->add(-1);
    finish(std::move(job), std::move(result));
  }
}

void Gateway::finish(Job job, RunResult result) {
  result.completion_seq = completion_seq_.fetch_add(1) + 1;
  job.done(std::move(result), *this);
}

RunResult Gateway::reject(ErrorCode code, const std::string& reason,
                          double retry_after) {
  requests_->add(1);
  rejected_->add(1);
  RunResult result;
  result.code = code;
  result.error = reason;
  result.retry_after_seconds = retry_after;
  result.completion_seq = completion_seq_.fetch_add(1) + 1;
  return result;
}

RunResult Gateway::shed(double retry_after) {
  requests_->add(1);
  shed_->add(1);
  RunResult result;
  result.code = ErrorCode::Shed;
  result.error = "request shed (gateway overloaded)";
  result.retry_after_seconds = retry_after;
  result.completion_seq = completion_seq_.fetch_add(1) + 1;
  return result;
}

void Gateway::publish_route_state(std::size_t node_index, bool open,
                                  Clock::time_point open_until) {
  route_table_.update([&](RouteTable& table) {
    table.nodes[node_index].open = open;
    table.nodes[node_index].open_until = open_until;
  });
}

int Gateway::route(const container::Image& image, const RunRequest& request,
                   Clock::time_point now, bool* any_compatible) {
  if (any_compatible) *any_compatible = false;
  const std::size_t n = fleet_.size();
  if (n == 0) return -1;
  // Two passes at most: the second covers a breaker that opened while
  // the first pass was scanning (detected by the post-selection check).
  for (int pass = 0; pass < 2; ++pass) {
    // One pinned snapshot per pass: breaker state and the skip decision
    // come from the same epoch, so a node whose breaker opened before
    // the pass began can never be selected by it.
    const auto table = route_table_.read();
    // Rotate the scan start so equal-load compatible nodes share work.
    const std::size_t start =
        static_cast<std::size_t>(route_rr_.fetch_add(1) % n);
    int best = -1;
    int best_load = std::numeric_limits<int>::max();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (start + k) % n;
      const vm::NodeSpec& node = fleet_[i];
      if (!node_serves_arch(node, image.architecture)) continue;
      if (request.march) {
        // An explicit march the node cannot execute would only fail the
        // plan downstream — route around it up front.
        if (isa::arch_of(*request.march) != node.cpu.arch ||
            !isa::runs_on(*request.march, node.best_vector_isa())) {
          continue;
        }
      }
      if (any_compatible) *any_compatible = true;
      // A tripped breaker takes the node out of rotation until it
      // cools. Cooling nodes are skipped from the snapshot alone; once
      // the cooldown has elapsed the live breaker arbitrates half-open
      // probes (allow() hands out the bounded probe tokens).
      const RouteTable::Node& gate = table->nodes[i];
      if (gate.open && now < gate.open_until) continue;
      if (!breakers_[i]->allow(now)) continue;
      const int load = load_[i]->active.load(std::memory_order_relaxed);
      if (load < best_load) {
        best = static_cast<int>(i);
        best_load = load;
      }
    }
    if (best < 0) return -1;
    // Re-validate against the live breaker: if it opened mid-pass (after
    // our snapshot was pinned), rescan once with the fresh table instead
    // of routing to a node already known bad.
    if (breakers_[static_cast<std::size_t>(best)]->state() !=
        CircuitBreaker::State::Open) {
      return best;
    }
  }
  return -1;  // both passes raced an opening breaker: transient
}

bool Gateway::backoff_for_retry(RunResult& out, ErrorCode code,
                                const std::string& error, int charged_attempts,
                                std::uint64_t jitter_seed,
                                const Deadline& deadline, bool immediate) {
  if (charged_attempts >= options_.retry.max_attempts) {
    out.code = code;
    out.error = error + " (gave up after " +
                std::to_string(charged_attempts) + " attempts)";
    return false;
  }
  double backoff = 0.0;
  if (!immediate && charged_attempts > 0) {
    backoff = options_.retry.backoff_seconds(charged_attempts, jitter_seed);
  }
  if (deadline.active() &&
      deadline.remaining_seconds(Clock::now()) <= backoff) {
    // The budget cannot cover the sleep, let alone the retry.
    deadline_exceeded_->add(1);
    out.code = ErrorCode::DeadlineExceeded;
    out.error = "deadline exceeded while retrying after: " + error;
    return false;
  }
  if (backoff > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
  retries_->add(1);
  return true;
}

RunResult Gateway::execute(RunRequest& request, Clock::time_point admitted,
                           std::uint64_t seq) {
  RunResult out;
  const Deadline deadline = request.deadline_seconds > 0.0
                                ? Deadline::after(request.deadline_seconds,
                                                  admitted)
                                : Deadline();

  const auto digest = registry_.resolve(request.image_reference);
  if (!digest) {
    out.code = ErrorCode::NotFound;
    out.error = "image not found in registry: " + request.image_reference;
    return out;
  }
  const auto image = registry_.pull(*digest);  // shared, no layer copy

  // Decorrelate backoff jitter across requests while keeping one
  // request's schedule a pure function of its admission order.
  const std::uint64_t jitter_seed = (seq + 1) * 0x9e3779b97f4a7c15ULL;
  // Inherited single-flight failures (a waiter that joined a failing
  // leader) retry immediately without consuming attempts — but bounded,
  // so a pathological plan cannot loop forever.
  constexpr int kMaxInheritedRetries = 32;
  int inherited_retries = 0;

  for (int attempt = 1;; ++attempt) {
    out.attempts = attempt;
    const auto now = Clock::now();
    if (deadline.expired(now)) {
      deadline_exceeded_->add(1);
      out.code = ErrorCode::DeadlineExceeded;
      out.error = "deadline exceeded before attempt " +
                  std::to_string(attempt);
      return out;
    }

    bool any_compatible = false;
    const int node_index = route(*image, request, now, &any_compatible);
    if (node_index < 0) {
      if (!any_compatible) {
        // No node can *ever* serve this request: permanent, no retry.
        out.code = ErrorCode::NoCompatibleNode;
        out.error =
            "no compatible node in fleet for " + request.image_reference +
            " (architecture " + image->architecture +
            (request.march
                 ? ", march " + std::string(isa::to_string(*request.march))
                 : "") +
            ")";
        return out;
      }
      // Compatible nodes exist but every breaker is open right now.
      if (!backoff_for_retry(out, ErrorCode::NodesUnavailable,
                             "all compatible nodes unavailable (circuit "
                             "breakers open)",
                             attempt - inherited_retries, jitter_seed,
                             deadline, /*immediate=*/false)) {
        return out;
      }
      continue;
    }
    const vm::NodeSpec& node = fleet_[static_cast<std::size_t>(node_index)];
    out.node_name = node.name;
    CircuitBreaker& breaker = *breakers_[static_cast<std::size_t>(node_index)];
    NodeLoad& load = *load_[static_cast<std::size_t>(node_index)];
    load.active.fetch_add(1, std::memory_order_relaxed);

    // Deploy: the scheduler routes source images to the farm by the
    // container-kind annotation; both paths land in a specialization
    // cache, so repeat (image, config, target) requests reuse the cached
    // app.
    MixedDeployRequest deploy_request;
    deploy_request.node = node;
    deploy_request.image_reference = *digest;
    deploy_request.selections = request.selections;
    deploy_request.march = request.march;
    deploy_request.opt_level = request.opt_level;
    deploy_request.auto_specialize = request.auto_specialize;
    const auto t_deploy = Clock::now();
    const FleetDeployResult deployed = scheduler_.deploy(deploy_request);
    const double deploy_seconds = seconds_since(t_deploy);
    out.deploy_seconds += deploy_seconds;  // accumulated across attempts
    deploy_hist_->observe(deploy_seconds);
    if (!deployed.ok) {
      load.active.fetch_sub(1, std::memory_order_relaxed);
      if (!deployed.transient) {
        // Deterministic failure (unknown image, bad plan, malformed
        // source): retrying cannot help.
        out.code = deployed.code == ErrorCode::Ok ? ErrorCode::DeployFailed
                                                  : deployed.code;
        out.error = deployed.error;
        return out;
      }
      // Transient deploy failure. Failed lowerings are never kept (the
      // tiered caches erase them before publishing), so
      // a retry elects a fresh deployer. A waiter that inherited the
      // leader's failure (cache_hit on a failed result) did not spend
      // its own attempt — it retries immediately.
      const bool inherited = deployed.cache_hit;
      if (inherited) {
        ++inherited_retries;
        if (inherited_retries > kMaxInheritedRetries) {
          out.code = deployed.code;
          out.error = deployed.error + " (too many inherited failures)";
          return out;
        }
      }
      if (!backoff_for_retry(out, deployed.code, deployed.error,
                             attempt - inherited_retries, jitter_seed,
                             deadline, /*immediate=*/inherited)) {
        return out;
      }
      continue;
    }
    out.configuration = deployed.configuration;
    out.spec_cache_hit = deployed.cache_hit;
    // Memoized at deploy time; falling back to a fresh digest only covers
    // hand-constructed apps that never went through a deploy path.
    out.image_digest = deployed.app->image_digest.empty()
                           ? deployed.app->image.digest()
                           : deployed.app->image_digest;

    // The deploy may have eaten the budget: check before committing to
    // the run.
    if (deadline.expired(Clock::now())) {
      load.active.fetch_sub(1, std::memory_order_relaxed);
      deadline_exceeded_->add(1);
      out.code = ErrorCode::DeadlineExceeded;
      out.error = "deadline exceeded after deploy, before run";
      return out;
    }

    // Injected node failure modes: a crashed node fails every run routed
    // to it (its breaker opens and routing moves on); a slow node stalls
    // before executing.
    fault::FaultPlan* plan = fault::FaultInjector::active();
    vm::RunResult run;
    if (plan != nullptr && plan->node_crashed(node.name)) {
      run.ok = false;
      run.error = "injected node crash on " + node.name;
    } else {
      if (plan != nullptr && plan->fires(fault::kNodeSlow, node.name)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(plan->slowdown_seconds()));
      }
      // Run on the routed node through the shared pre-decoded program;
      // the stats hook streams VM counters into telemetry.
      vm::ExecutorOptions exec_options;
      exec_options.threads = request.threads;
      exec_options.stats_hook = [this](const vm::RunResult& r) {
        vm_runs_->add(1);
        if (r.instructions > 0) {
          vm_instructions_->add(static_cast<std::uint64_t>(r.instructions));
        }
      };
      const auto t_run = Clock::now();
      run = deployed.app->run_on(node, request.workload, exec_options);
      const double run_seconds = seconds_since(t_run);
      out.run_seconds += run_seconds;  // accumulated across attempts
      run_hist_->observe(run_seconds);
    }
    load.active.fetch_sub(1, std::memory_order_relaxed);

    if (!run.ok) {
      const auto failure_now = Clock::now();
      if (breaker.record_failure(failure_now)) {
        breaker_open_->add(1);
        // Publish the trip into the routing snapshot: every route() pass
        // that pins a later epoch skips this node until it cools.
        publish_route_state(
            static_cast<std::size_t>(node_index), /*open=*/true,
            failure_now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  options_.breaker.open_seconds)));
      }
      if (!backoff_for_retry(out, ErrorCode::RunFailed,
                             "run failed: " + run.error,
                             attempt - inherited_retries, jitter_seed,
                             deadline, /*immediate=*/false)) {
        return out;
      }
      continue;
    }
    breaker.record_success();
    // Close the routing gate if this node was marked open (a successful
    // half-open probe just re-admitted it). Probe only the snapshot on
    // the common path so healthy-node successes publish nothing.
    if (route_table_.read()->nodes[static_cast<std::size_t>(node_index)].open) {
      publish_route_state(static_cast<std::size_t>(node_index),
                          /*open=*/false, Clock::time_point{});
    }
    out.run = std::move(run);
    out.numerics_digest = numerics_digest(out.run, request.workload);
    out.code = ErrorCode::Ok;
    out.ok = true;
    return out;
  }
}

}  // namespace xaas::service
