#include "service/spec_cache.hpp"

namespace xaas::service {

std::string SpecKey::to_string() const {
  std::string out;
  common::key_append(out, digest);
  common::key_append(out, selections);
  common::key_append(out, target.to_string());
  return out;
}

}  // namespace xaas::service
