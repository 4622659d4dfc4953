// Tiered single-flight cache: the one reuse protocol behind the serving
// layer's specialization cache and the TU compile cache. A specialization
// or TU that has already been built is served again, not rebuilt
// (§4.3/§5.2); at fleet scale that reuse path is the whole cost.
//
// A TieredCache::get resolves in exactly one of three ways:
//   hit      — the key's result is kept, or a leader is computing it (the
//              caller blocks on the leader's result; with get_then it
//              leaves a callback that the leader runs instead);
//   tier hit — the key's elected leader revived the value from the
//              optional tier (a persistent store, possibly fronted by a
//              remote registry) instead of computing it;
//   computed — the leader ran the caller's compute.
//
// get() hits on kept values are lock-free: every kept value is published
// into one of kShards RCU snapshots (common/rcu.hpp), so a hit is one
// epoch pin plus one hash probe — no mutex, no allocation. A publish
// copies only its own shard's snapshot. Misses fall through to the
// shard's SingleFlightMap, which elects one leader per key: concurrent
// callers of a cold key cost one tier load and at most one compute.
// get_then() serves callers that must not wait, such as pool tasks of a
// fleet deploy: it goes straight to the SingleFlightMap, whose entry
// either holds the kept value or takes the caller's callback.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rcu.hpp"

namespace xaas::common {

/// Single-flight memo map: the first caller of a key runs `compute`;
/// concurrent callers join its entry instead of repeating the work,
/// either blocking on it (get_or_compute) or attaching a callback that
/// the leader runs (get_or_join), so a joiner need not hold a thread. A
/// compute returns either a bare pointer (kept) or a Computed saying
/// whether its result stays cached. A result that is not kept reaches
/// only the callers that joined its flight, and the key is erased; the
/// next caller elects a fresh leader. A thrown exception is never kept:
/// it reaches the leader and the joiners, and the key is erased.
///
/// Thread-safety: all methods are safe from any thread. No lock is held
/// while compute or a callback runs: compute runs on the leader's
/// thread, a callback on the leader's thread or, for a kept entry, on
/// its caller's.
template <typename Key, typename V, typename Hash = std::hash<Key>>
class SingleFlightMap {
public:
  using Ptr = std::shared_ptr<const V>;
  /// A callback joiner's continuation: the entry's value, or the
  /// exception its compute threw (with a null value). Must not throw.
  using Callback = std::function<void(Ptr, std::exception_ptr)>;

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
    std::optional<std::promise<Ptr>> promise;
    std::shared_future<Ptr> in_flight;
    {
      std::lock_guard lock(mutex_);
      const auto [it, leader] = entries_.try_emplace(key);
      Flight& flight = it->second;
      if (joined) *joined = !leader;
      if (leader) {
        flight.future = promise.emplace().get_future().share();
      } else if (flight.done) {
        return flight.future.get();
      } else {
        in_flight = flight.future;
      }
    }
    if (!promise) return in_flight.get();
    return lead(key, *promise, compute);
  }

  /// get_or_compute for a caller that must not wait on another caller's
  /// compute. When `key` is kept or in flight, `then` joins its entry
  /// and this returns nullopt at once: `then` runs now for a kept value,
  /// else on the leader's thread right after the leader publishes.
  /// Otherwise this caller leads, and the result is returned (or the
  /// exception thrown) exactly as by get_or_compute; `then` is not run.
  template <typename Compute>
  std::optional<Ptr> get_or_join(const Key& key, Compute&& compute,
                                 Callback then) {
    std::optional<std::promise<Ptr>> promise;
    Ptr kept;
    {
      std::lock_guard lock(mutex_);
      const auto [it, leader] = entries_.try_emplace(key);
      Flight& flight = it->second;
      if (leader) {
        flight.future = promise.emplace().get_future().share();
      } else if (flight.done) {
        kept = flight.future.get();
      } else {
        flight.callbacks.push_back(std::move(then));
        return std::nullopt;
      }
    }
    if (!promise) {
      then(std::move(kept), nullptr);
      return std::nullopt;
    }
    return lead(key, *promise, compute);
  }

  /// Entries kept or in flight.
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return entries_.size();
  }

  /// The kept values (a snapshot; flights still running are left out).
  std::vector<Ptr> values() const {
    std::vector<Ptr> out;
    std::lock_guard lock(mutex_);
    for (const auto& entry : entries_) {
      if (entry.second.done) out.push_back(entry.second.future.get());
    }
    return out;
  }

private:
  struct Flight {
    std::shared_future<Ptr> future;   // blocking joiners wait on it
    std::vector<Callback> callbacks;  // callback joiners, until done
    bool done = false;                // kept, and `future` is ready
  };

  // Runs the leader's compute and delivers its outcome: first to the
  // blocked joiners, then to the callback joiners.
  template <typename Compute>
  Ptr lead(const Key& key, std::promise<Ptr>& promise, Compute& compute) {
    Computed result;
    try {
      result = Computed{compute()};
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      promise.set_exception(error);
      for (Callback& then : settle(key, /*keep=*/false)) then(nullptr, error);
      throw;
    }
    promise.set_value(result.value);
    for (Callback& then : settle(key, result.keep)) then(result.value, nullptr);
    return result.value;
  }

  // Marks the leader's entry done, or erases it when its result is not
  // kept, and hands back the callbacks attached to it.
  std::vector<Callback> settle(const Key& key, bool keep) {
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(key);
    std::vector<Callback> callbacks = std::move(it->second.callbacks);
    if (keep) {
      it->second.done = true;
    } else {
      entries_.erase(it);
    }
    return callbacks;
  }

  mutable std::mutex mutex_;
  std::unordered_map<Key, Flight, Hash> entries_;
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

/// The telemetry event of every tiered cache: one per get() or
/// get_then(), saying how the call resolved.
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
/// Thread-safety: get(), get_then() and the stats accessors are safe
/// from any thread. set_observer()/set_tier() must be called before the
/// cache starts serving. The observer is called outside every lock.
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

    Miss miss;
    bool joined = false;
    Ptr value;
    try {
      value = shard.flights.get_or_compute(
          key, [&] { return lead(shard, key, compute, miss); }, &joined);
    } catch (...) {
      miss.event.ok = false;
      finish(joined ? CacheEvent{} : miss.event, how);
      throw;
    }
    finish(joined ? CacheEvent{} : miss.event, how);
    // Stored after publishing, so joiners never wait on serialization
    // or I/O.
    if (miss.store) tier_->store(key, *value);
    return value;
  }

  /// get() for a caller that must not wait on another caller's compute:
  /// `done(value, error, how)` receives what get() would return, throw
  /// and report. When `key` is in flight, `done` joins the flight and
  /// this returns at once; the leader runs it right after publishing,
  /// and it counts as a Hit. Otherwise `done` runs before this returns.
  /// `done` must not throw.
  template <typename Compute, typename Done>
  void get_then(const Key& key, Compute&& compute, Done done) {
    Shard& shard = shards_[Hash{}(key) % kShards];
    Miss miss;
    std::optional<Ptr> led;
    try {
      led = shard.flights.get_or_join(
          key, [&] { return lead(shard, key, compute, miss); },
          [this, done](Ptr value, std::exception_ptr error) mutable {
            finish(CacheEvent{}, nullptr);
            done(std::move(value), error, CacheEvent::Kind::Hit);
          });
    } catch (...) {
      miss.event.ok = false;
      finish(miss.event, nullptr);
      done(nullptr, std::current_exception(), miss.event.kind);
      return;
    }
    if (!led) return;  // joined: the callback reports
    finish(miss.event, nullptr);
    done(*led, nullptr, miss.event.kind);
    if (miss.store) tier_->store(key, **led);
  }

  /// Keys kept or in flight.
  std::size_t entry_count() const {
    std::size_t count = 0;
    for (const auto& shard : shards_) count += shard.flights.size();
    return count;
  }

  // Monotonic statistics since construction. Every get() or get_then()
  // is exactly one of hits() / tier_hits() / computes(), and emits one
  // event.
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
  // A publish copies its shard's snapshot under that shard's lock, so a
  // cache of N kept values copies about N / kShards of them per insert,
  // and leaders in different shards publish in parallel. The TU cache
  // of one paper-scale release keeps thousands of values.
  static constexpr std::size_t kShards = 256;

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

  // How a leader resolved its miss.
  struct Miss {
    CacheEvent event{CacheEvent::Kind::Computed};
    bool store = false;  // a kept success, stored to the tier after use
  };

  // The leader's resolution: the tier's value, else compute()'s. A kept
  // result is published before any joiner is released.
  template <typename Compute>
  Computed lead(Shard& shard, const Key& key, Compute& compute, Miss& miss) {
    Computed result;
    if (tier_) result.value = tier_->load(key);
    if (result.value) {
      miss.event.kind = CacheEvent::Kind::TierHit;
    } else {
      const auto start = std::chrono::steady_clock::now();
      result = Computed{compute()};
      miss.event.seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      miss.event.ok = result.value && result.value->ok;
      miss.store = tier_ && result.keep && miss.event.ok;
    }
    if (result.keep) publish(shard, key, result.value);
    return result;
  }

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
