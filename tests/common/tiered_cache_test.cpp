// The shared tiered-cache protocol, pinned once against a fake tier:
// single-flight leader election across the tier and compute, the keep
// rule, store-after-publish, counter/event reconciliation, joins by
// callback, and that a thrown exception never poisons a key — also
// through the public tier interfaces of both production caches.
#include "common/tiered_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <latch>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/vfs.hpp"
#include "minicc/compile_cache.hpp"
#include "service/spec_cache.hpp"

namespace xaas::common {
namespace {

using Kind = CacheEvent::Kind;

struct Value {
  bool ok = true;
  int payload = 0;
};
using Cache = TieredCache<std::string, Value>;
using Ptr = Cache::Ptr;

Ptr make_value(int payload, bool ok = true) {
  return std::make_shared<const Value>(Value{ok, payload});
}

std::string key_of(int k) {
  std::string key = "k";
  key += std::to_string(k);
  return key;
}

/// In-memory tier recording every call. `throw_loads` makes the next
/// loads throw; `on_store` runs inside store().
class FakeTier : public Cache::Tier {
public:
  Ptr load(const std::string& key) override {
    loads.fetch_add(1);
    if (throw_loads.load() > 0) {
      throw_loads.fetch_sub(1);
      throw std::runtime_error("tier down");
    }
    std::lock_guard lock(mutex_);
    const auto it = stored_.find(key);
    return it == stored_.end() ? nullptr : it->second;
  }
  void store(const std::string& key, const Value& value) override {
    stores.fetch_add(1);
    if (on_store) on_store(key);
    std::lock_guard lock(mutex_);
    stored_[key] = std::make_shared<const Value>(value);
  }

  std::atomic<int> loads{0};
  std::atomic<int> stores{0};
  std::atomic<int> throw_loads{0};
  std::function<void(const std::string&)> on_store;

private:
  std::mutex mutex_;
  std::map<std::string, Ptr> stored_;
};

TEST(TieredCache, ConcurrentColdKeyComputesOnceAndLoadsTierOnce) {
  Cache cache;
  FakeTier tier;
  cache.set_tier(&tier);
  constexpr int kCallers = 16;
  std::atomic<int> computes{0};
  std::latch start(kCallers);
  std::vector<Ptr> seen(kCallers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(i)] = cache.get("cold", [&] {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return make_value(7);
      });
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(tier.loads.load(), 1);
  EXPECT_EQ(tier.stores.load(), 1);
  for (const auto& value : seen) EXPECT_EQ(value, seen[0]);
  EXPECT_EQ(cache.computes(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::size_t>(kCallers - 1));
  EXPECT_EQ(cache.entry_count(), 1u);
}

/// Runs one leader whose compute is held until `kWaiters` callers have
/// started their get(), then ends it with `finish` (returning a result
/// that is not kept, or throwing). Waiters that joined the leader report
/// Kind::Hit; a late waiter may instead lead a fresh flight, which the
/// returned counts account for.
struct FlightOutcome {
  int joined = 0;         // waiters that shared the leader's outcome
  int shared_failure = 0;  // joined waiters that saw the leader's failure
  int computes = 0;        // compute invocations, leader included
};

FlightOutcome race_waiters(Cache& cache, const std::function<Ptr()>& finish) {
  constexpr int kWaiters = 8;
  std::latch waiters_started(kWaiters);
  std::atomic<int> computes{0};
  std::atomic<int> joined{0};
  std::atomic<int> shared_failure{0};
  std::thread leader([&] {
    try {
      cache.get("flaky", [&] {
        computes.fetch_add(1);
        waiters_started.wait();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return Cache::Computed{finish(), false};
      });
    } catch (const std::runtime_error&) {
    }
  });
  // Let the leader take the flight before any waiter arrives.
  while (cache.entry_count() == 0) std::this_thread::yield();
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      waiters_started.count_down();
      Kind how = Kind::Computed;
      Ptr value;
      bool threw = false;
      try {
        value = cache.get(
            "flaky",
            [&] {
              computes.fetch_add(1);
              return make_value(2);
            },
            &how);
      } catch (const std::runtime_error&) {
        threw = true;
      }
      if (how == Kind::Hit) {
        joined.fetch_add(1);
        if (threw || (value && !value->ok)) shared_failure.fetch_add(1);
      }
    });
  }
  leader.join();
  for (auto& w : waiters) w.join();
  return {joined.load(), shared_failure.load(), computes.load()};
}

TEST(TieredCache, UnkeptResultReachesWaitersThenNextCallerLeads) {
  Cache cache;
  const FlightOutcome outcome =
      race_waiters(cache, [] { return make_value(1, /*ok=*/false); });
  EXPECT_GE(outcome.joined, 1);
  EXPECT_EQ(outcome.shared_failure, outcome.joined);
  // Late waiters (if any) led their own flight after the erase; now the
  // key holds their kept success, or nothing.
  Kind how = Kind::Hit;
  const Ptr next = cache.get("flaky", [] { return make_value(3); }, &how);
  ASSERT_TRUE(next && next->ok);
  if (outcome.computes == 1) {
    EXPECT_EQ(how, Kind::Computed);
    EXPECT_EQ(next->payload, 3);
  }
}

TEST(TieredCache, ThrowingComputeReachesWaitersAndNeverPoisonsTheKey) {
  Cache cache;
  const FlightOutcome outcome = race_waiters(
      cache, []() -> Ptr { throw std::runtime_error("compute failed"); });
  EXPECT_GE(outcome.joined, 1);
  EXPECT_EQ(outcome.shared_failure, outcome.joined);
  const Ptr next = cache.get("flaky", [] { return make_value(3); });
  ASSERT_TRUE(next);
  EXPECT_TRUE(next->ok);
}

TEST(TieredCache, KeptFailureCountsAsHitAndIsNeverStored) {
  Cache cache;
  FakeTier tier;
  cache.set_tier(&tier);
  int computes = 0;
  const auto failing = [&] {
    ++computes;
    return make_value(0, /*ok=*/false);
  };
  Kind how = Kind::Hit;
  const Ptr first = cache.get("bad", failing, &how);
  EXPECT_EQ(how, Kind::Computed);
  const Ptr second = cache.get("bad", failing, &how);
  EXPECT_EQ(how, Kind::Hit);
  EXPECT_EQ(second, first);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.computes(), 1u);
  EXPECT_EQ(tier.stores.load(), 0);
}

TEST(TieredCache, TierStoreFollowsPublishAndTakesOnlyKeptSuccesses) {
  Cache cache;
  FakeTier tier;
  cache.set_tier(&tier);
  // Inside store(), the value is already served to other callers.
  std::vector<Kind> seen_at_store;
  tier.on_store = [&](const std::string& key) {
    Kind how = Kind::Computed;
    cache.get(
        key,
        []() -> Ptr {
          ADD_FAILURE() << "store ran before the value was published";
          return nullptr;
        },
        &how);
    seen_at_store.push_back(how);
  };

  cache.get("success", [] { return make_value(1); });
  EXPECT_EQ(tier.stores.load(), 1);
  ASSERT_EQ(seen_at_store.size(), 1u);
  EXPECT_EQ(seen_at_store[0], Kind::Hit);

  cache.get("unkept", [] { return Cache::Computed{make_value(2), false}; });
  cache.get("failure", [] { return make_value(3, /*ok=*/false); });
  EXPECT_EQ(tier.stores.load(), 1);

  // A value revived from the tier is kept but not stored back.
  Cache fresh;
  fresh.set_tier(&tier);
  tier.on_store = nullptr;
  Kind how = Kind::Computed;
  const Ptr revived = fresh.get(
      "success",
      []() -> Ptr {
        ADD_FAILURE() << "tier hit must not compute";
        return nullptr;
      },
      &how);
  EXPECT_EQ(how, Kind::TierHit);
  ASSERT_TRUE(revived);
  EXPECT_EQ(revived->payload, 1);
  EXPECT_EQ(tier.stores.load(), 1);
  fresh.get("success", [] { return make_value(9); }, &how);
  EXPECT_EQ(how, Kind::Hit);
}

TEST(TieredCache, CountersAndEventsReconcileWithCalls) {
  FakeTier tier;
  {
    Cache seed;
    seed.set_tier(&tier);
    for (int k = 0; k < 4; ++k) {
      seed.get(key_of(k), [k] { return make_value(k); });
    }
  }
  Cache cache;
  cache.set_tier(&tier);
  std::atomic<std::size_t> compute_calls{0};
  std::map<Kind, std::size_t> events;
  std::mutex events_mutex;
  cache.set_observer([&](const CacheEvent& event) {
    std::lock_guard lock(events_mutex);
    ++events[event.kind];
    if (event.kind != Kind::Computed) {
      EXPECT_EQ(event.seconds, 0.0);
    }
  });

  // Every other call joins by callback; each of those runs `done` once.
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 200;
  std::atomic<std::size_t> done_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int k = (i * 7 + t) % 12;  // keys k0..k3 live in the tier
        const auto compute = [&compute_calls, k] {
          compute_calls.fetch_add(1);
          return Cache::Computed{make_value(k, k % 5 != 0), k % 3 != 0};
        };
        if (i % 2 == 0) {
          cache.get(key_of(k), compute);
        } else {
          cache.get_then(key_of(k), compute,
                         [&done_calls](Ptr, std::exception_ptr, Kind) {
                           done_calls.fetch_add(1);
                         });
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::size_t calls = kThreads * kCallsPerThread;
  EXPECT_EQ(done_calls.load(), calls / 2);
  EXPECT_EQ(cache.hits() + cache.tier_hits() + cache.computes(), calls);
  EXPECT_EQ(events[Kind::Hit], cache.hits());
  EXPECT_EQ(events[Kind::TierHit], cache.tier_hits());
  EXPECT_EQ(events[Kind::Computed], cache.computes());
  EXPECT_EQ(cache.computes(), compute_calls.load());
  EXPECT_EQ(cache.tier_hits(), 4u);
  EXPECT_GT(cache.hits(), 0u);
  // k4..k11 are cold: each computes at least once, and the unkept k6
  // and k9 again on later calls.
  EXPECT_GT(cache.computes(), 8u);
}

TEST(TieredCache, ThrowingTierNeverPoisonsTheKey) {
  Cache cache;
  FakeTier tier;
  tier.throw_loads = 1;
  cache.set_tier(&tier);
  EXPECT_THROW(cache.get("k", [] { return make_value(1); }),
               std::runtime_error);
  Kind how = Kind::Hit;
  const Ptr value = cache.get("k", [] { return make_value(1); }, &how);
  ASSERT_TRUE(value);
  EXPECT_EQ(how, Kind::Computed);
  EXPECT_EQ(cache.hits() + cache.tier_hits() + cache.computes(), 2u);
}

// ---- Joins by callback (get_then) -----------------------------------------

/// What one get_then caller received.
struct Delivered {
  Ptr value;
  std::exception_ptr error;
  Kind how = Kind::Computed;
};

// On a 2-worker pool, A's compute waits for B's compute to start. A
// follower of A that blocked would hold the second worker, so B could
// never start; a callback joiner returns its worker and B runs. Every
// wait is bounded, so a follower that holds its thread fails the test
// instead of hanging it.
TEST(TieredCache, CallbackJoinerDoesNotHoldItsThread) {
  constexpr auto kBound = std::chrono::seconds(20);
  Cache cache;
  std::promise<void> a_computing;
  std::promise<void> b_started;
  std::shared_future<void> b_started_future = b_started.get_future().share();
  std::vector<std::promise<Delivered>> delivered(3);
  std::vector<std::future<Delivered>> received;
  for (auto& promise : delivered) received.push_back(promise.get_future());

  ThreadPool pool(2);
  const auto submit = [&](std::size_t slot, const std::string& key,
                          std::function<Ptr()> compute) {
    pool.submit([&cache, &delivered, slot, key, compute] {
      cache.get_then(key, compute,
                     [&delivered, slot](Ptr value, std::exception_ptr error,
                                        Kind how) {
                       delivered[slot].set_value({value, error, how});
                     });
    });
  };
  submit(0, "A", [&] {
    a_computing.set_value();
    const bool saw_b = b_started_future.wait_for(kBound) ==
                       std::future_status::ready;
    return make_value(1, /*ok=*/saw_b);
  });
  ASSERT_EQ(a_computing.get_future().wait_for(kBound),
            std::future_status::ready);
  submit(1, "A", []() -> Ptr {
    ADD_FAILURE() << "a follower computed";
    return nullptr;
  });
  submit(2, "B", [&] {
    b_started.set_value();
    return make_value(2);
  });

  std::vector<Delivered> got;
  for (auto& future : received) {
    ASSERT_EQ(future.wait_for(2 * kBound), std::future_status::ready);
    got.push_back(future.get());
  }
  ASSERT_TRUE(got[0].value);
  EXPECT_TRUE(got[0].value->ok) << "A's leader never saw B's compute start";
  EXPECT_EQ(got[0].how, Kind::Computed);
  EXPECT_EQ(got[1].value, got[0].value);
  EXPECT_EQ(got[1].how, Kind::Hit);
  EXPECT_EQ(got[2].how, Kind::Computed);
  EXPECT_EQ(cache.computes(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

/// Holds a leader's compute until kJoiners get_then callers have joined
/// its flight, then ends it with `finish`. Returns what each joiner got.
/// The hold is bounded, so a joiner that blocks fails the test instead
/// of hanging it.
std::vector<Delivered> join_by_callback(
    Cache& cache, const std::function<Cache::Computed()>& finish) {
  constexpr int kJoiners = 4;
  std::promise<void> computing;
  std::promise<void> release;
  std::thread leader([&] {
    try {
      cache.get("flaky", [&] {
        computing.set_value();
        release.get_future().wait_for(std::chrono::seconds(20));
        return finish();
      });
    } catch (const std::runtime_error&) {
    }
  });
  computing.get_future().wait();
  std::vector<Delivered> delivered(kJoiners);
  std::atomic<int> done_calls{0};
  for (Delivered& slot : delivered) {
    cache.get_then(
        "flaky",
        []() -> Ptr {
          ADD_FAILURE() << "a joiner computed";
          return nullptr;
        },
        [&slot, &done_calls](Ptr value, std::exception_ptr error, Kind how) {
          slot = {value, error, how};
          done_calls.fetch_add(1);
        });
  }
  // Every joiner returned at once and waits on the leader's callback.
  EXPECT_EQ(done_calls.load(), 0);
  release.set_value();
  leader.join();
  EXPECT_EQ(done_calls.load(), kJoiners);
  return delivered;
}

TEST(TieredCache, UnkeptResultReachesCallbackJoiners) {
  Cache cache;
  for (const Delivered& got : join_by_callback(cache, [] {
         return Cache::Computed{make_value(1, /*ok=*/false), false};
       })) {
    EXPECT_EQ(got.how, Kind::Hit);
    EXPECT_FALSE(got.error);
    ASSERT_TRUE(got.value);
    EXPECT_FALSE(got.value->ok);
  }
  Kind how = Kind::Hit;
  const Ptr next = cache.get("flaky", [] { return make_value(3); }, &how);
  EXPECT_EQ(how, Kind::Computed);
  EXPECT_TRUE(next->ok);
  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.computes(), 2u);
}

TEST(TieredCache, ExceptionReachesCallbackJoiners) {
  Cache cache;
  for (const Delivered& got :
       join_by_callback(cache, []() -> Cache::Computed {
         throw std::runtime_error("compute failed");
       })) {
    EXPECT_EQ(got.how, Kind::Hit);
    EXPECT_FALSE(got.value);
    ASSERT_TRUE(got.error);
    EXPECT_THROW(std::rethrow_exception(got.error), std::runtime_error);
  }
  Kind how = Kind::Hit;
  const Ptr next = cache.get("flaky", [] { return make_value(3); }, &how);
  EXPECT_EQ(how, Kind::Computed);
  EXPECT_TRUE(next->ok);
}

// ---- Through the production caches' public tier interfaces ---------------

class ThrowOnceSpecTier : public service::SpecializationCache::Tier {
public:
  std::shared_ptr<const DeployedApp> load(const service::SpecKey&) override {
    if (!thrown_.exchange(true)) throw std::runtime_error("tier down");
    return nullptr;
  }
  void store(const service::SpecKey&, const DeployedApp&) override {}

private:
  std::atomic<bool> thrown_{false};
};

TEST(TieredCache, ThrowingSpecTierDoesNotPoisonTheSpecialization) {
  service::SpecializationCache cache;
  ThrowOnceSpecTier tier;
  cache.set_tier(&tier);
  service::SpecKey key;
  key.digest = "sha256:app";
  const auto deploy = [] {
    auto app = std::make_shared<DeployedApp>();
    app->ok = true;
    return std::shared_ptr<const DeployedApp>(std::move(app));
  };
  EXPECT_THROW(cache.get_or_deploy(key, deploy), std::runtime_error);
  bool was_hit = true;
  const auto app = cache.get_or_deploy(key, deploy, &was_hit);
  ASSERT_TRUE(app);
  EXPECT_TRUE(app->ok);
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(cache.entry_count(), 1u);
}

class ThrowOnceTuTier : public minicc::TuTier {
public:
  std::shared_ptr<const minicc::CompiledTu> load(
      const minicc::TuKey&) override {
    if (!thrown_.exchange(true)) throw std::runtime_error("tier down");
    return nullptr;
  }
  void store(const minicc::TuKey&, const minicc::CompiledTu&) override {}

private:
  std::atomic<bool> thrown_{false};
};

TEST(TieredCache, ThrowingTuTierDoesNotPoisonTheTranslationUnit) {
  Vfs vfs;
  vfs.write("k.c", "double f(double x) { return x * 2.0; }\n");
  minicc::CompileCache cache;
  ThrowOnceTuTier tier;
  cache.set_tier(&tier);
  const minicc::CompileFlags flags;
  const minicc::TargetSpec target;
  EXPECT_THROW(cache.compile(vfs, "k.c", flags, target), std::runtime_error);
  const auto second = cache.compile(vfs, "k.c", flags, target);
  EXPECT_TRUE(second.ok) << second.error.message;
  EXPECT_FALSE(second.tu_cache_hit);
  const auto third = cache.compile(vfs, "k.c", flags, target);
  EXPECT_TRUE(third.tu_cache_hit);
  EXPECT_EQ(third.machine.get(), second.machine.get());
}

}  // namespace
}  // namespace xaas::common
