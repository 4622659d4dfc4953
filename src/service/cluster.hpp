// Multi-gateway cluster: the front tier that scales the serving plane
// past one Gateway (the "Acceleration as a Service" split — a routing
// tier in front of many acceleration services, each owning a slice of
// the fleet). One request travels:
//
//   Cluster::submit(RunRequest{tenant, weight, ...})
//     ── per-tenant token bucket ──> quota_denied + retry-after, or
//     ── consistent-hash ring (request class key: reference/selections/
//        target) ──> home gateway's shard
//     ── weighted fair queue (per-tenant WFQ, see fair_queue.hpp) ──>
//        dispatcher ──> Gateway::submit on the shard's gateway
//        (per-priority MPMC rings, routing, caches, execution — all the
//        existing single-gateway machinery)
//   idle dispatchers STEAL the head of the most backed-up sibling's WFQ,
//   but only when the §6.5 bandwidth model (fabric::transfer_seconds)
//   prices the shipment below the victim's estimated queue wait. With
//   artifact_root set, a stolen (or hash-moved) request class finds its
//   artifacts through the distribution layer (lazy pulls and gossip
//   between the gateways' registry peers) — the only cross-gateway
//   artifact path.
//
// Everything reconciles exactly after drain (the fairness bench gate
// and ClusterStress assert this):
//   cluster.requests == admitted + rejected + shed + quota_denied
//   cluster.admitted == completed + failed
//   cluster.stolen   == sum over gateways of gateway.<name>.stolen
// and the same identities hold per tenant, with per-tenant latency
// histograms (tenant.<t>.total_seconds) counting every admitted request.
//
// Thread-safety: submit()/run_all()/snapshot()/pending() are safe from
// any thread. gateway(i) exposes the owned gateways for inspection; do
// not mutate them while the cluster serves. Ownership: the Cluster owns
// its gateways, dispatcher threads, quota table, and metrics registry;
// the destructor stops admission, drains every queued job (their futures
// complete), and joins the dispatchers before the gateways die.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
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
  /// Cluster dispatcher threads per gateway: each takes jobs from its
  /// shard's WFQ (or steals) and drives them through the gateway
  /// end to end, so this bounds per-gateway concurrency.
  std::size_t dispatchers_per_gateway = 2;
  /// Virtual nodes per gateway on the hash ring.
  std::size_t vnodes = 64;
  /// Ring seed: identical seeds place identical request classes on
  /// identical gateways.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Per-gateway WFQ bound: a submission to a shard already holding this
  /// many pending jobs is shed (code Shed + retry-after hint).
  std::size_t max_pending = 1024;
  /// Quota for tenants without an explicit entry (default: effectively
  /// unlimited — multi-tenancy is opt-in per tenant).
  TenantQuota default_quota{};
  /// Per-tenant quota overrides (rate, burst, WFQ weight).
  std::map<std::string, TenantQuota> tenant_quotas;

  /// Work stealing between gateways (disable to pin every request class
  /// to its hash home).
  bool steal = true;
  /// Victim backlog (pending jobs) required before a steal is considered.
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
  /// dispatchers_per_gateway (the dispatchers are the fan-out; a larger
  /// inner pool would only idle).
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
  /// Cluster admission to completion, wall seconds (includes the WFQ
  /// wait, which the per-gateway total_seconds does not see).
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

  /// Jobs admitted to WFQs but not yet taken by a dispatcher.
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

  struct Job {
    RunRequest request;
    std::promise<ClusterRunResult> promise;
    std::string tenant_label;
    std::string class_key;
    std::size_t home = 0;
    Clock::time_point admitted;
  };

  struct Shard {
    std::string name;
    std::unique_ptr<Gateway> gateway;
    /// Guards wfq (and pairs with cv); pending mirrors wfq.size() for
    /// lock-free backlog reads by thieves and shed checks.
    std::mutex mutex;
    std::condition_variable cv;
    WeightedFairQueue<Job> wfq;
    std::atomic<std::size_t> pending{0};
    telemetry::Counter* served = nullptr;
    telemetry::Counter* stolen = nullptr;  // jobs THIS gateway stole
    /// Completions on this shard (drives the gossip cadence).
    std::atomic<std::uint64_t> completions{0};
  };

  void dispatcher_loop(std::size_t shard_index);
  bool try_steal(std::size_t thief, Job* out);
  void serve(std::size_t shard_index, Job job, bool stolen);
  /// Estimated seconds until a shard with `backlog` pending jobs would
  /// reach a newly queued one (service-time EMA over the dispatchers).
  double estimated_wait_seconds(std::size_t backlog) const;
  double now_seconds() const;
  void complete_inline(Job&& job, ErrorCode code, const std::string& error,
                       double retry_after);
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

  // Cluster-wide EMAs feeding the steal-profitability and retry-after
  // estimates; relaxed atomics (advisory, like the gateway's).
  std::atomic<std::uint64_t> service_ema_bits_{0};  // bit_cast<double> s
  std::atomic<std::uint64_t> bytes_ema_{0};         // workload bytes

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> dispatchers_;  // last: joined before shards die
};

/// Serialized size estimate of a workload (what a steal ships across the
/// fabric): buffer payloads plus a small framing overhead.
std::size_t workload_bytes(const vm::Workload& workload);

}  // namespace xaas::service
