// Deployment-time lowering: IR -> target-specialized machine module.
//
// This is the step an IR container performs on the destination system
// (Fig. 8): vectorize to the node's lane width, fuse FMAs where the ISA
// provides them, and stamp the result with the target so the runtime can
// refuse to execute it on incompatible hardware.
#pragma once

#include <cstddef>
#include <string>

#include "common/hashing.hpp"
#include "isa/isa.hpp"
#include "minicc/ir.hpp"

namespace xaas::minicc {

struct TargetSpec {
  isa::VectorIsa visa = isa::VectorIsa::None;
  bool openmp = false;
  int opt_level = 2;

  std::string to_string() const;

  friend bool operator==(const TargetSpec&, const TargetSpec&) = default;
};

/// Field-wise hash for cache keys that embed a target.
struct TargetSpecHash {
  std::size_t operator()(const TargetSpec& target) const {
    std::size_t h = static_cast<std::size_t>(target.visa);
    common::hash_mix(h, static_cast<std::size_t>(target.openmp));
    common::hash_mix(h, static_cast<std::size_t>(target.opt_level));
    return h;
  }
};

/// Final, non-portable compilation artifact: target-tagged IR, the
/// analogue of an object file emitted for one specific microarchitecture.
struct MachineModule {
  ir::Module code;
  TargetSpec target;
  int fused_fma = 0;
  int vectorized_loops = 0;
};

/// Lower an IR module for the given target. The input is taken by value:
/// the portable IR in the container is never mutated.
MachineModule lower(ir::Module code, const TargetSpec& target);

/// Count FMA-fusion opportunities realized (exposed for tests/ablations).
int fuse_fma(ir::Module& module);

}  // namespace xaas::minicc
