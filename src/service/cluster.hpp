// Multi-gateway cluster: the front tier that scales the serving plane
// past one Gateway (the "Acceleration as a Service" split — a routing
// tier in front of many acceleration services, each owning a slice of
// the fleet). One request travels:
//
//   Cluster::submit(RunRequest{tenant, weight, ...})
//     ── per-tenant token bucket ──> quota_denied + retry-after, or
//     ── consistent-hash ring (request class key: reference/selections/
//        target) ──> home gateway (shed when its queue holds max_pending)
//     ── the home gateway's queue (priority classes, a per-tenant WFQ
//        inside each; see gateway.hpp) ──> a gateway worker ──> routing,
//        caches, execution
//   The request is queued once and handed between threads once: the
//   worker that runs it completes the ClusterRunResult. A worker whose
//   queue is empty STEALS the head of the most backed-up sibling's queue,
//   but only when the §6.5 bandwidth model (fabric::transfer_seconds)
//   prices the shipment below the victim's estimated queue wait. A push
//   that leaves a queue at steal_min_backlog or more wakes one idle
//   sibling worker, so nothing polls. With artifact_root set, a stolen
//   (or hash-moved) request class finds its artifacts through the
//   distribution layer (lazy pulls and gossip between the gateways'
//   registry peers) — the only cross-gateway artifact path.
//
// Everything reconciles exactly after drain (the fairness bench gate
// and ClusterStress assert this):
//   cluster.requests == admitted + rejected + shed + quota_denied
//   cluster.admitted == completed + failed
//   cluster.stolen   == sum over gateways of gateway.<name>.stolen
//   cluster.admitted == sum over gateways of gateway.<name>.served
// and the same identities hold per tenant, with per-tenant latency
// histograms (tenant.<t>.total_seconds) counting every admitted request.
//
// Thread-safety: submit()/run_all()/snapshot()/pending() are safe from
// any thread. gateway(i) exposes the owned gateways for inspection; do
// not mutate them while the cluster serves. Ownership: the Cluster owns
// its gateways, quota table, and metrics registry, and no threads of its
// own. The destructor stops admission and stealing, then stops every
// gateway (each drains its queue — every future completes) before any
// gateway dies.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/bandwidth.hpp"
#include "service/distribution.hpp"
#include "service/fair_queue.hpp"
#include "service/gateway.hpp"
#include "service/telemetry.hpp"

namespace xaas::service {

/// Seeded consistent-hash ring with virtual nodes. Placements are a pure
/// function of (seed, member set): identical seeds give identical rings,
/// insertion order never matters, and adding or removing one member
/// moves only the keys adjacent to its points (~K/N of K keys across N
/// members — the property tests in tests/service/cluster_test.cpp).
///
/// Thread-safety: not thread-safe; the Cluster builds it once at
/// construction and only reads it afterwards.
class ConsistentHashRing {
public:
  explicit ConsistentHashRing(std::size_t vnodes = 64,
                              std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  void add(const std::string& member);
  void remove(const std::string& member);

  /// The member owning `key`; empty string when the ring is empty.
  std::string lookup(std::string_view key) const;

  std::size_t member_count() const { return members_.size(); }
  const std::set<std::string>& members() const { return members_; }

private:
  std::uint64_t point(const std::string& member, std::size_t replica) const;

  std::size_t vnodes_;
  std::uint64_t seed_;
  /// point -> members hashing there (name-sorted; lookup takes the
  /// front, so a 64-bit point collision still resolves deterministically
  /// and independently of insertion order).
  std::map<std::uint64_t, std::vector<std::string>> ring_;
  std::set<std::string> members_;
};

struct ClusterOptions {
  /// Gateways in the cluster; the fleet is split into contiguous
  /// near-equal slices, one per gateway.
  std::size_t gateways = 4;
  /// Worker threads per gateway: sets each gateway's worker_threads
  /// unless `gateway.worker_threads` is set. The name predates the one
  /// queue, when cluster dispatcher threads fed the gateways.
  std::size_t dispatchers_per_gateway = 2;
  /// Virtual nodes per gateway on the hash ring.
  std::size_t vnodes = 64;
  /// Ring seed: identical seeds place identical request classes on
  /// identical gateways.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Per-gateway queue bound: a submission whose home gateway already
  /// queues this many jobs is shed (code Shed + retry-after hint). The
  /// Cluster's requests skip the gateway's own max_queue admission.
  std::size_t max_pending = 1024;
  /// Quota for tenants without an explicit entry (default: effectively
  /// unlimited — multi-tenancy is opt-in per tenant).
  TenantQuota default_quota{};
  /// Per-tenant quota overrides (rate, burst, WFQ weight).
  std::map<std::string, TenantQuota> tenant_quotas;

  /// Work stealing between gateways (disable to pin every request class
  /// to its hash home).
  bool steal = true;
  /// Victim backlog (queued jobs) required before a steal is considered;
  /// a push that leaves a queue this deep wakes an idle sibling worker.
  std::size_t steal_min_backlog = 2;
  /// Transport model for inter-gateway traffic (§6.5): steal shipments
  /// and (with artifact_root set) the registry protocol's blob traffic
  /// are priced by fabric::transfer_seconds over this stack.
  fabric::MpiStack fabric_stack{"cluster fabric (container MPICH + cxi)",
                                "mpich", "cxi", /*containerized=*/true};
  /// Artifact distribution: when non-empty, every gateway owns a
  /// persistent ArtifactStore under <artifact_root>/<gateway-name> and
  /// joins an owned DistributionFabric as a registry peer — cold classes
  /// replicate across gateways by lazy pulls (under the single-flight
  /// leaders) and gossip pre-warming instead of rebuilding. Overrides
  /// gateway.artifact_dir per shard. Empty = distribution off.
  std::string artifact_root;
  /// Gossip cadence: each shard runs one gossip round on its peer every
  /// N completions (0 disables background gossip; distribution_flush()
  /// still works).
  std::size_t gossip_every = 8;
  /// Registry protocol knobs. The stack is overridden with fabric_stack
  /// at construction so one knob prices all inter-gateway traffic.
  DistributionOptions distribution;
  /// Options applied to every owned gateway. worker_threads defaults to
  /// dispatchers_per_gateway. max_queue, reject_on_full and the shedding
  /// rules apply only to direct Gateway::submit calls.
  GatewayOptions gateway;
};

/// Completion of one cluster request: the gateway's RunResult plus the
/// cluster-level routing story.
struct ClusterRunResult {
  RunResult result;
  std::string tenant;        // as labeled in telemetry ("" -> "default")
  std::string gateway;       // gateway that served the request
  std::string home_gateway;  // consistent-hash owner of its class
  bool stolen = false;       // served by a thief, not the home gateway
  /// Modeled inter-gateway transfer time charged to this request (its
  /// steal shipment), from fabric::transfer_seconds.
  double fabric_seconds = 0.0;
  /// Cluster admission to completion, wall seconds. The gateway's
  /// RunResult times (queue_seconds, total_seconds) run from the same
  /// admission, so the two totals differ only by the completion hand-off.
  double total_seconds = 0.0;
};

class Cluster {
public:
  Cluster(std::vector<vm::NodeSpec> fleet, ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Push an image into every gateway's registry under `reference`.
  void push(const container::Image& image, const std::string& reference);

  /// Submit one request; the future always completes (quota denials,
  /// sheds, and rejections complete immediately with the matching code).
  std::future<ClusterRunResult> submit(RunRequest request);

  /// Submit a batch and wait; results in request order.
  std::vector<ClusterRunResult> run_all(std::vector<RunRequest> requests);

  /// The request-class key the ring hashes: reference, canonical
  /// selections, explicit march, opt level — the same tuple the
  /// specialization caches key on, so one class always lands (warm) on
  /// one gateway until stolen.
  static std::string request_class_key(const RunRequest& request);

  /// Pure steal-profitability rule (exposed for tests): ship only when
  /// the modeled transfer is cheaper than the victim's estimated wait.
  static bool steal_profitable(double transfer_seconds,
                               double victim_wait_seconds) {
    return transfer_seconds < victim_wait_seconds;
  }

  std::size_t gateway_count() const { return shards_.size(); }
  Gateway& gateway(std::size_t index) { return *shards_[index]->gateway; }
  const std::string& gateway_name(std::size_t index) const {
    return shards_[index]->name;
  }
  const ConsistentHashRing& ring() const { return ring_; }
  QuotaSet& quotas() { return quotas_; }

  /// Jobs queued in the gateways but not yet taken by a worker.
  std::size_t pending() const;

  /// The owned registry fabric, or nullptr when artifact_root was empty.
  DistributionFabric* distribution_fabric() { return fabric_.get(); }

  /// Drive gossip to quiescence: sweep every peer's gossip_round()
  /// repeatedly until a full sweep accepts no new blob anywhere (every
  /// announced hot digest is then replicated ring-wide). No-op without
  /// distribution. Safe to call while serving, though it is intended for
  /// drain points (benches, tests, maintenance windows).
  void distribution_flush();

  /// Cluster-level metrics (per-tenant, per-gateway, steal/fabric
  /// counters, and — with distribution on — the fabric-wide
  /// distribution.* totals). Gateway-internal metrics live in
  /// gateway(i).snapshot().
  telemetry::MetricsSnapshot snapshot() const;
  telemetry::MetricsRegistry& metrics() { return metrics_; }

private:
  using Clock = std::chrono::steady_clock;

  /// What an admitted request completes into; shared with the gateway
  /// job's completion callback.
  struct Pending {
    std::promise<ClusterRunResult> promise;
    std::string tenant_label;
    std::size_t home = 0;
    std::size_t bytes = 0;  // workload_bytes(): a steal's shipment
    Clock::time_point admitted;
  };

  struct Shard {
    std::string name;
    std::unique_ptr<Gateway> gateway;
    telemetry::Counter* served = nullptr;
    telemetry::Counter* stolen = nullptr;  // jobs THIS gateway stole
    /// Completions on this shard (drives the gossip cadence).
    std::atomic<std::uint64_t> completions{0};
  };

  /// The steal policy an idle worker of shard `thief` runs.
  bool try_steal(std::size_t thief, Gateway::Job& out);
  /// Wake one idle worker of a sibling of `home` to steal.
  void wake_thief(std::size_t home);
  /// A job's completion on `server` (its home gateway or a thief).
  void complete(Pending& pending, RunResult result, Gateway& server);
  double now_seconds() const;
  void complete_inline(Pending& pending, ErrorCode code,
                       const std::string& error, double retry_after);
  telemetry::Counter& tenant_counter(const std::string& label,
                                     const char* which);

  ClusterOptions options_;
  ConsistentHashRing ring_;
  std::map<std::string, std::size_t> shard_by_name_;
  telemetry::MetricsRegistry metrics_;
  telemetry::Counter* requests_ = nullptr;
  telemetry::Counter* admitted_ = nullptr;
  telemetry::Counter* rejected_ = nullptr;
  telemetry::Counter* shed_ = nullptr;
  telemetry::Counter* quota_denied_ = nullptr;
  telemetry::Counter* completed_ = nullptr;
  telemetry::Counter* failed_ = nullptr;
  telemetry::Counter* stolen_ = nullptr;
  telemetry::Counter* steal_skipped_ = nullptr;
  telemetry::Counter* fabric_nanos_ = nullptr;

  QuotaSet quotas_;
  Clock::time_point start_;

  /// Owned registry fabric (null when artifact_root is empty). Declared
  /// before shards_ so every gateway's peer deregisters before the
  /// fabric dies.
  std::unique_ptr<DistributionFabric> fabric_;

  /// Workload-size EMA pricing the next steal's shipment (relaxed:
  /// advisory, like the gateways' service-time EMAs).
  std::atomic<std::uint64_t> bytes_ema_{0};

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  /// Set once every shard exists, cleared first by the destructor:
  /// workers steal only while it holds.
  std::atomic<bool> stealing_{false};
};

/// Serialized size estimate of a workload (what a steal ships across the
/// fabric): buffer payloads plus a small framing overhead.
std::size_t workload_bytes(const vm::Workload& workload);

}  // namespace xaas::service
