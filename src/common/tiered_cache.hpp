// Tiered single-flight cache: the one reuse protocol behind the serving
// layer's specialization cache and the TU compile cache. A specialization
// or TU that has already been built is served again, not rebuilt
// (§4.3/§5.2); at fleet scale that reuse path is the whole cost.
//
// A TieredCache::get resolves in exactly one of three ways:
//   hit      — the key's result is kept, or a leader is computing it (the
//              caller blocks on the leader's result);
//   tier hit — the key's elected leader revived the value from the
//              optional tier (a persistent store, possibly fronted by a
//              remote registry) instead of computing it;
//   computed — the leader ran the caller's compute.
//
// Hits on kept values are lock-free: every kept value is published into
// one of kShards RCU snapshots (common/rcu.hpp), so a hit is one epoch
// pin plus one hash probe — no mutex, no allocation. A publish copies
// only its own shard's snapshot. Misses fall through to the shard's
// SingleFlightMap, which elects one leader per key: concurrent callers
// of a cold key cost one tier load and at most one compute.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/rcu.hpp"

namespace xaas::common {

/// Single-flight memo map: the first caller of a key runs `compute`,
/// concurrent callers block on its shared_future instead of repeating the
/// work. A compute returns either a bare pointer (kept) or a Computed
/// saying whether its result stays cached. A result that is not kept is
/// erased before it is published, so it reaches only the waiters already
/// blocked on it; the next caller elects a fresh leader. A thrown
/// exception is never kept: it reaches the leader and the current waiters,
/// and the key is erased.
///
/// Thread-safety: all methods are safe from any thread; compute runs on
/// the leader's thread with no lock held.
template <typename Key, typename V, typename Hash = std::hash<Key>>
class SingleFlightMap {
public:
  using Ptr = std::shared_ptr<const V>;

  struct Computed {
    Ptr value;
    bool keep = true;
  };

  /// The kept or in-flight result for `key`, else `compute()` run once
  /// across all concurrent callers. `joined`, when non-null, reports
  /// whether this caller joined an existing entry (true) or led (false).
  template <typename Compute>
  Ptr get_or_compute(const Key& key, Compute&& compute,
                     bool* joined = nullptr) {
    std::promise<Ptr> promise;
    std::shared_future<Ptr> existing;
    {
      std::lock_guard lock(mutex_);
      const auto [it, leader] = entries_.try_emplace(key);
      if (leader) {
        it->second = promise.get_future().share();
      } else {
        existing = it->second;
      }
    }
    if (joined) *joined = existing.valid();
    if (existing.valid()) return existing.get();

    Computed result;
    try {
      result = Computed{compute()};
    } catch (...) {
      erase(key);
      promise.set_exception(std::current_exception());
      throw;
    }
    if (!result.keep) erase(key);
    promise.set_value(result.value);
    return result.value;
  }

  /// Entries kept or in flight.
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return entries_.size();
  }

private:
  void erase(const Key& key) {
    std::lock_guard lock(mutex_);
    entries_.erase(key);
  }

  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_future<Ptr>, Hash> entries_;
};

/// One storage level under a TieredCache. Only a key's elected leader
/// consults it: load() before computing, store() after publishing a kept
/// success. Implementations must be safe to call from any thread and
/// should not throw (a failing tier degrades to a miss); an exception
/// that does escape is treated like one from compute and is never kept.
template <typename Key, typename Value>
class CacheTier {
public:
  CacheTier() = default;
  virtual ~CacheTier() = default;
  CacheTier(const CacheTier&) = delete;
  CacheTier& operator=(const CacheTier&) = delete;

  /// A previously stored value, or null.
  virtual std::shared_ptr<const Value> load(const Key& key) = 0;
  virtual void store(const Key& key, const Value& value) = 0;
};

/// The telemetry event of every tiered cache: one per get(), saying how
/// the call resolved.
struct CacheEvent {
  enum class Kind { Hit, TierHit, Computed };
  Kind kind = Kind::Hit;
  /// Computed only: whether the result is a success (false when compute
  /// or the tier threw).
  bool ok = true;
  /// Computed only: the compute's wall seconds.
  double seconds = 0.0;
};
using CacheObserver = std::function<void(const CacheEvent&)>;

/// Lock-free-hit, single-flight cache with one optional tier. `Value`
/// must have a `bool ok` member: only kept values with ok == true are
/// stored to the tier. Values loaded from the tier are always kept.
///
/// Thread-safety: get() and the stats accessors are safe from any
/// thread. set_observer()/set_tier() must be called before the cache
/// starts serving. The observer is called outside every lock.
/// Ownership: the cache owns its entries and shares each value with
/// every caller through shared_ptr<const Value>; the tier is borrowed
/// and must outlive the cache.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class TieredCache {
public:
  using Ptr = std::shared_ptr<const Value>;
  using Tier = CacheTier<Key, Value>;
  using Computed = typename SingleFlightMap<Key, Value, Hash>::Computed;

  TieredCache() = default;
  TieredCache(const TieredCache&) = delete;
  TieredCache& operator=(const TieredCache&) = delete;

  void set_observer(CacheObserver observer) {
    observer_ = std::move(observer);
  }
  void set_tier(Tier* tier) { tier_ = tier; }

  /// The value for `key`: a kept one, the tier's, or `compute()` (which
  /// returns a Ptr, kept, or a Computed) run by the one elected leader.
  /// `how`, when non-null, reports how this call resolved.
  template <typename Compute>
  Ptr get(const Key& key, Compute&& compute, CacheEvent::Kind* how = nullptr) {
    const std::size_t hash = Hash{}(key);
    Shard& shard = shards_[hash % kShards];
    {
      const auto published = shard.published.read();
      const auto it = published->find(Probe{key, hash});
      if (it != published->end()) {
        finish(CacheEvent{}, how);
        return it->second;
      }
    }

    CacheEvent event;
    event.kind = CacheEvent::Kind::Computed;
    bool store = false;
    bool joined = false;
    const auto lead = [&]() -> Computed {
      Computed result;
      if (tier_) result.value = tier_->load(key);
      if (result.value) {
        event.kind = CacheEvent::Kind::TierHit;
      } else {
        const auto start = std::chrono::steady_clock::now();
        result = Computed{compute()};
        event.seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        event.ok = result.value && result.value->ok;
        store = tier_ && result.keep && event.ok;
      }
      // Published before the waiters are released.
      if (result.keep) publish(shard, key, result.value);
      return result;
    };
    Ptr value;
    try {
      value = shard.flights.get_or_compute(key, lead, &joined);
    } catch (...) {
      event.ok = false;
      finish(joined ? CacheEvent{} : event, how);
      throw;
    }
    finish(joined ? CacheEvent{} : event, how);
    // Stored after publishing, so waiters never block on serialization
    // or I/O.
    if (store) tier_->store(key, *value);
    return value;
  }

  /// Keys kept or in flight.
  std::size_t entry_count() const {
    std::size_t count = 0;
    for (const auto& shard : shards_) count += shard.flights.size();
    return count;
  }

  // Monotonic statistics since construction. Every get() is exactly one
  // of hits() / tier_hits() / computes(), and emits one event.
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t tier_hits() const {
    return tier_hits_.load(std::memory_order_relaxed);
  }
  /// Leader resolutions the tier did not serve: compute invocations,
  /// plus leaders whose tier load threw.
  std::size_t computes() const {
    return computes_.load(std::memory_order_relaxed);
  }

private:
  static constexpr std::size_t kShards = 16;

  // Heterogeneous probe carrying the hash already computed for shard
  // selection, so a hit hashes the key once.
  struct Probe {
    const Key& key;
    std::size_t hash;
  };
  struct ProbeHash {
    using is_transparent = void;
    std::size_t operator()(const Key& key) const { return Hash{}(key); }
    std::size_t operator()(const Probe& probe) const { return probe.hash; }
  };
  struct ProbeEqual {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const { return a == b; }
    bool operator()(const Probe& a, const Key& b) const { return a.key == b; }
    bool operator()(const Key& a, const Probe& b) const { return a == b.key; }
  };
  using Published = std::unordered_map<Key, Ptr, ProbeHash, ProbeEqual>;

  struct Shard {
    rcu::Snapshot<Published> published;  // kept values only
    SingleFlightMap<Key, Value, Hash> flights;
  };

  static void publish(Shard& shard, const Key& key, const Ptr& value) {
    shard.published.update([&](Published& map) { map.emplace(key, value); });
  }

  void finish(const CacheEvent& event, CacheEvent::Kind* how) {
    auto& counter = event.kind == CacheEvent::Kind::Hit       ? hits_
                    : event.kind == CacheEvent::Kind::TierHit ? tier_hits_
                                                              : computes_;
    counter.fetch_add(1, std::memory_order_relaxed);
    if (how) *how = event.kind;
    if (observer_) observer_(event);
  }

  CacheObserver observer_;  // set once before serving
  Tier* tier_ = nullptr;    // set once before serving
  std::array<Shard, kShards> shards_;
  // Written by every get() on every thread: padded off the lines that
  // hits only read (observer_, the shards' snapshot pointers).
  alignas(64) std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> tier_hits_{0};
  std::atomic<std::size_t> computes_{0};
};

}  // namespace xaas::common
