// Loop vectorizer, run at *deployment* time when the target ISA is known.
//
// Works on the IR loop metadata captured by irgen: canonical counted loops
// (`for (i = ..; i < n; i++)`) with single-block bodies, unit-stride
// memory access, and at most reduction-style recurrences are rewritten
// into a vector main loop of the target's lane width plus the original
// scalar loop as remainder. Mirrors how LLVM's loop vectorizer works at
// the IR level, which is exactly why the paper can strip `-m` flags when
// comparing configurations (§4.3 "Vectorization").
#pragma once

#include "minicc/ir.hpp"

namespace xaas::minicc {

struct VectorizeStats {
  int candidates = 0;   // counted loops examined
  int vectorized = 0;   // loops rewritten
};

/// Vectorize every legal loop in the module to `width` lanes.
/// Loops already vectorized are left untouched — this is what makes
/// premature (build-time) vectorization irreversible, the effect the
/// paper observed with early LLVM optimization (§4.3).
VectorizeStats vectorize_module(ir::Module& module, int width);

}  // namespace xaas::minicc
