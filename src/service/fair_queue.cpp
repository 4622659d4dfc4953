#include "service/fair_queue.hpp"

#include <algorithm>

namespace xaas::service {

TokenBucket::TokenBucket(TenantQuota quota, double now)
    : quota_(quota), tokens_(quota.burst), last_(now) {
  if (quota_.burst < 0.0) quota_.burst = 0.0;
  if (quota_.rate_per_second < 0.0) quota_.rate_per_second = 0.0;
  tokens_ = quota_.burst;
}

double TokenBucket::refilled(double now) const {
  const double elapsed = now > last_ ? now - last_ : 0.0;
  return std::min(quota_.burst, tokens_ + elapsed * quota_.rate_per_second);
}

bool TokenBucket::try_acquire(double now, double cost) {
  // An oversized request costs at most a full bucket (see header).
  cost = std::min(cost, quota_.burst);
  const double available = refilled(now);
  if (available + 1e-12 < cost) {
    // Deny without consuming, but anchor the refill so tokens() stays
    // consistent for subsequent calls at the same `now`.
    tokens_ = available;
    if (now > last_) last_ = now;
    return false;
  }
  tokens_ = available - cost;
  if (now > last_) last_ = now;
  return true;
}

double TokenBucket::retry_after_seconds(double now, double cost) const {
  cost = std::min(cost, quota_.burst);
  const double available = refilled(now);
  if (available + 1e-12 >= cost) return 0.0;
  if (quota_.rate_per_second <= 0.0) return 3600.0;  // never refills: cap
  return (cost - available) / quota_.rate_per_second;
}

double TokenBucket::tokens(double now) const { return refilled(now); }

void QuotaSet::set_quota(const std::string& tenant, TenantQuota quota) {
  std::lock_guard lock(mutex_);
  overrides_[tenant] = quota;
  buckets_.erase(tenant);  // rebuilt from the new quota on first use
}

bool QuotaSet::try_admit(const std::string& tenant, double now, double cost,
                         double* retry_after) {
  std::lock_guard lock(mutex_);
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    const auto override_it = overrides_.find(tenant);
    const TenantQuota quota =
        override_it != overrides_.end() ? override_it->second : default_;
    it = buckets_.emplace(tenant, TokenBucket(quota, now)).first;
  }
  if (it->second.try_acquire(now, cost)) {
    if (retry_after != nullptr) *retry_after = 0.0;
    return true;
  }
  if (retry_after != nullptr) {
    // A zero hint would invite an immediate (and doomed) resubmit; the
    // bucket is exhausted, so the true wait is strictly positive.
    *retry_after =
        std::max(1e-6, it->second.retry_after_seconds(now, cost));
  }
  return false;
}

double QuotaSet::weight(const std::string& tenant) const {
  std::lock_guard lock(mutex_);
  const auto it = overrides_.find(tenant);
  return it != overrides_.end() ? it->second.weight : default_.weight;
}

}  // namespace xaas::service
