// minimd: a molecular-dynamics mini-app standing in for GROMACS 2025.0.
//
// Specialization points mirror GROMACS (Table 1 row 1):
//   MD_SIMD  — nine vectorization levels (None .. AVX_512, NEON, SVE);
//              `None` selects the reference C kernels (slow but portable,
//              cf. Fig. 2), anything else the tuned vectorizable kernels
//              whose width is fixed only at lowering time;
//   MD_GPU   — OFF / CUDA / HIP / SYCL / OPENCL, mutually exclusive
//              backends compiled in via conditional sources;
//   MD_MPI   — halo exchange sources (MPI-ABI system-dependent);
//   MD_OPENMP— -fopenmp on every TU;
//   MD_FFT   — fftpack (internal) / fftw3 / mkl with different op counts;
//   MD_BLAS  — internal / openblas / mkl.
//
// The source tree scales: `module_count` generated utility files model
// GROMACS' ~1700 translation units per configuration. Generated modules
// fall into deterministic classes (SIMD-width-sensitive, GPU-conditional,
// OpenMP-parallel, MPI-conditional, plain) with the proportions that
// reproduce the paper's §6.4 dedup statistics (8710 TUs -> 2695 IRs, 69%
// reduction; ~14.3% preprocessing-distinct; ~95%+ tuning-only).
#pragma once

#include "vm/executor.hpp"
#include "xaas/application.hpp"

namespace xaas::apps {

struct MinimdOptions {
  /// Number of generated utility modules (besides the 6 core files).
  /// The §6.4 benchmark uses 1736 to match the paper's TU counts;
  /// tests use small values.
  int module_count = 40;
  /// GPU kernel modules compiled only when a backend is selected.
  int gpu_module_count = 41;
};

Application make_minimd(const MinimdOptions& options = {});

/// UEABS-like test cases (§6.3.1): A = 20k-atom ion channel proxy,
/// B = larger lignocellulose proxy. `scale` divides atom count and steps
/// so the simulation stays fast; benches extrapolate back.
struct MdWorkloadParams {
  int atoms = 512;
  int neighbors = 32;
  int steps = 10;
  int grid = 256;
};

vm::Workload minimd_workload(const MdWorkloadParams& params);

}  // namespace xaas::apps
