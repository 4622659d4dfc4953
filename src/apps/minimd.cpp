#include "apps/minimd.hpp"

#include <cstdio>
#include <string>

#include "buildsys/script.hpp"

namespace xaas::apps {

namespace {

// Shared header. MD_SIMD_WIDTH mirrors how GROMACS' GMX_SIMD choice
// reaches the preprocessor: a class of files is sensitive to the SIMD
// *width class* (1/2/4/8), which is exactly why the paper still needs
// some per-ISA IR files after flag normalization (§6.4).
const char* kHeader = R"(
#define MD_SOFTENING 0.01
#if defined(MD_SIMD_AVX_512)
#define MD_SIMD_WIDTH 8
#elif defined(MD_SIMD_AVX_256)
#define MD_SIMD_WIDTH 4
#elif defined(MD_SIMD_AVX2_256)
#define MD_SIMD_WIDTH 4
#elif defined(MD_SIMD_ARM_SVE)
#define MD_SIMD_WIDTH 4
#elif defined(MD_SIMD_None)
#define MD_SIMD_WIDTH 1
#else
#define MD_SIMD_WIDTH 2
#endif

void init_neighbors(int* nbidx, int n, int nnb);
void pack_neighbors(double* px, double* py, double* pz, double* nbx, double* nby, double* nbz, int* nbidx, int n, int nnb);
double forces_cpu(double* px, double* py, double* pz, double* fx, double* fy, double* fz, double* nbx, double* nby, double* nbz, int n, int nnb);
double forces_gpu(double* px, double* py, double* pz, double* fx, double* fy, double* fz, double* nbx, double* nby, double* nbz, int n, int nnb);
void integrate(double* px, double* py, double* pz, double* vx, double* vy, double* vz, double* fx, double* fy, double* fz, int n, double dt);
void spread_charges(double* grid, int g, double energy);
void fft_forward(double* grid, int g);
double md_dot(double* a, double* b, int n);
double bonded_forces(double* px, double* py, double* pz, double* fx, double* fy, double* fz, int* nbidx, int n, int nnb);
void pack_neighbors_dev(double* px, double* py, double* pz, double* nbx, double* nby, double* nbz, int* nbidx, int n, int nnb);
void md_exchange(double* px, double* py, double* pz, int n);
)";

const char* kMain = R"(
#include "include/md.h"
double app_main(double* px, double* py, double* pz,
                double* vx, double* vy, double* vz,
                double* fx, double* fy, double* fz,
                double* nbx, double* nby, double* nbz,
                int* nbidx, double* grid,
                int n, int steps, int nnb, int gridn) {
  init_neighbors(nbidx, n, nnb);
  double energy = 0.0;
  double dt = 0.002;
  for (int s = 0; s < steps; s++) {
#if defined(MD_GPU_CUDA) || defined(MD_GPU_HIP) || defined(MD_GPU_SYCL) || defined(MD_GPU_OPENCL)
    if (s % 10 == 0) {
      pack_neighbors_dev(px, py, pz, nbx, nby, nbz, nbidx, n, nnb);
    }
    energy = forces_gpu(px, py, pz, fx, fy, fz, nbx, nby, nbz, n, nnb);
#else
    if (s % 10 == 0) {
      pack_neighbors(px, py, pz, nbx, nby, nbz, nbidx, n, nnb);
    }
    energy = forces_cpu(px, py, pz, fx, fy, fz, nbx, nby, nbz, n, nnb);
    energy = energy + bonded_forces(px, py, pz, fx, fy, fz, nbidx, n, nnb);
#endif
    spread_charges(grid, gridn, energy);
    fft_forward(grid, gridn);
    integrate(px, py, pz, vx, vy, vz, fx, fy, fz, n, dt);
    double temp = md_dot(vx, vy, n);
#ifdef MD_MPI
    md_exchange(px, py, pz, n);
#endif
    energy = energy + temp * 0.0000001;
  }
  return energy;
}
)";

// Non-bonded Lennard-Jones kernel. The MD_SIMD=None build selects the
// reference C kernel (extra square roots and divisions, never
// vectorized); every other level selects the tuned kernel whose inner
// loop the deployment-time vectorizer widens to the target's lanes.
const char* kForces = R"(
#include "include/md.h"
#ifdef MD_SIMD_None
double forces_cpu(double* px, double* py, double* pz,
                  double* fx, double* fy, double* fz,
                  double* nbx, double* nby, double* nbz, int n, int nnb) {
  double energy = 0.0;
#pragma omp parallel for reduction(+:energy)
  for (int i = 0; i < n; i++) {
    double xi = px[i];
    double yi = py[i];
    double zi = pz[i];
    double fxi = 0.0;
    double fyi = 0.0;
    double fzi = 0.0;
    double ei = 0.0;
    int lo = i * nnb;
    int hi = lo + nnb;
    for (int j = lo; j < hi; j++) {
      double dx = xi - nbx[j];
      double dy = yi - nby[j];
      double dz = zi - nbz[j];
      double r2 = dx * dx + dy * dy + dz * dz + MD_SOFTENING;
      double r = sqrt(r2);
      double rinv = 1.0 / r;
      double rinv2 = rinv * rinv;
      double rinv6 = rinv2 * rinv2 * rinv2;
      double sig6 = 1.0 / (1.0 + r2 * 0.0);
      double coef = 24.0 * rinv6 * (2.0 * rinv6 - sig6) * rinv2;
      fxi += coef * dx;
      fyi += coef * dy;
      fzi += coef * dz;
      ei += 4.0 * rinv6 * (rinv6 - sig6);
    }
    fx[i] = fxi;
    fy[i] = fyi;
    fz[i] = fzi;
    energy += ei;
  }
  return energy;
}
#else
double forces_cpu(double* px, double* py, double* pz,
                  double* fx, double* fy, double* fz,
                  double* nbx, double* nby, double* nbz, int n, int nnb) {
  double energy = 0.0;
#pragma omp parallel for reduction(+:energy)
  for (int i = 0; i < n; i++) {
    double xi = px[i];
    double yi = py[i];
    double zi = pz[i];
    double fxi = 0.0;
    double fyi = 0.0;
    double fzi = 0.0;
    double ei = 0.0;
    int lo = i * nnb;
    int hi = lo + nnb;
    for (int j = lo; j < hi; j++) {
      double dx = xi - nbx[j];
      double dy = yi - nby[j];
      double dz = zi - nbz[j];
      double r2 = dx * dx + dy * dy + dz * dz + MD_SOFTENING;
      double inv = rsqrt(r2);
      double inv2 = inv * inv;
      double inv6 = inv2 * inv2 * inv2;
      double coef = 24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2;
      fxi += coef * dx;
      fyi += coef * dy;
      fzi += coef * dz;
      ei += 4.0 * inv6 * (inv6 - 1.0);
    }
    fx[i] = fxi;
    fy[i] = fyi;
    fz[i] = fzi;
    energy += ei;
  }
  return energy;
}
#endif
)";

// Bonded interactions: gather-addressed (bond partners are scattered in
// memory), so the loop never vectorizes — the Amdahl fraction that keeps
// real MD speedups below the lane count (Fig. 2's 1.6x SSE2->AVX-512
// rather than 4x). GPU builds fuse bonded work into the non-bonded
// device kernel and overlap it, so the CPU path only runs in CPU builds.
const char* kBonded = R"(
#include "include/md.h"
double bonded_forces(double* px, double* py, double* pz,
                     double* fx, double* fy, double* fz,
                     int* nbidx, int n, int nnb) {
  double energy = 0.0;
#pragma omp parallel for reduction(+:energy)
  for (int i = 0; i < n; i++) {
    double xi = px[i];
    double yi = py[i];
    double zi = pz[i];
    int lo = i * nnb;
    for (int b = 0; b < 4; b++) {
      int k = nbidx[lo + b];
      double dx = xi - px[k];
      double dy = yi - py[k];
      double dz = zi - pz[k];
      double r2 = dx * dx + dy * dy + dz * dz + MD_SOFTENING;
      double r = sqrt(r2);
      double stretch = r - 1.0;
      double coef = stretch / r;
      fx[i] = fx[i] - coef * dx;
      fy[i] = fy[i] - coef * dy;
      fz[i] = fz[i] - coef * dz;
      energy += 0.5 * stretch * stretch;
    }
  }
  return energy;
}
)";

// Neighbor management: the packing gather is inherently scalar (indexed
// loads), mirroring the non-vectorizable parts of real MD codes.
const char* kNeighbor = R"(
#include "include/md.h"
void init_neighbors(int* nbidx, int n, int nnb) {
#pragma omp parallel for
  for (int i = 0; i < n; i++) {
    int lo = i * nnb;
    for (int j = 0; j < nnb; j++) {
      int k = i + j + 1;
      if (k >= n) {
        k = k - n;
      }
      nbidx[lo + j] = k;
    }
  }
}

void pack_neighbors(double* px, double* py, double* pz,
                    double* nbx, double* nby, double* nbz,
                    int* nbidx, int n, int nnb) {
#pragma omp parallel for
  for (int i = 0; i < n; i++) {
    int lo = i * nnb;
    int hi = lo + nnb;
    for (int j = lo; j < hi; j++) {
      int k = nbidx[j];
      nbx[j] = px[k];
      nby[j] = py[k];
      nbz[j] = pz[k];
    }
  }
}
)";

const char* kIntegrate = R"(
#include "include/md.h"
void integrate(double* px, double* py, double* pz,
               double* vx, double* vy, double* vz,
               double* fx, double* fy, double* fz, int n, double dt) {
#pragma omp parallel for
  for (int i = 0; i < n; i++) {
    vx[i] = vx[i] + dt * fx[i];
    vy[i] = vy[i] + dt * fy[i];
    vz[i] = vz[i] + dt * fz[i];
  }
#pragma omp parallel for
  for (int i = 0; i < n; i++) {
    px[i] = px[i] + dt * vx[i];
    py[i] = py[i] + dt * vy[i];
    pz[i] = pz[i] + dt * vz[i];
  }
}
)";

const char* kPme = R"(
#include "include/md.h"
void spread_charges(double* grid, int g, double energy) {
#pragma omp parallel for
  for (int k = 0; k < g; k++) {
    grid[k] = grid[k] * 0.5 + energy * 0.000001;
  }
}
)";

// FFT backends with library-realistic cost profiles: the bundled
// fftpack fallback does three passes with square roots, FFTW two tuned
// passes, MKL a single fused pass (cf. Fig. 3's point that the library
// choice is fixed at build time).
const char* kFftFftpack = R"(
#include "include/md.h"
void fft_forward(double* grid, int g) {
  for (int p = 0; p < 3; p++) {
    for (int k = 0; k < g; k++) {
      grid[k] = grid[k] * 0.92 + sqrt(fabs(grid[k]) + 1.0) * 0.01;
    }
  }
}
)";

const char* kFftFftw3 = R"(
#include "include/md.h"
void fft_forward(double* grid, int g) {
  for (int p = 0; p < 2; p++) {
#pragma omp parallel for
    for (int k = 0; k < g; k++) {
      grid[k] = grid[k] * 0.92 + 0.013;
    }
  }
}
)";

const char* kFftMkl = R"(
#include "include/md.h"
void fft_forward(double* grid, int g) {
#pragma omp parallel for
  for (int k = 0; k < g; k++) {
    grid[k] = grid[k] * 0.8464 + 0.025;
  }
}
)";

// BLAS backends for the per-step kinetic-energy dot product.
const char* kBlasInternal = R"(
#include "include/md.h"
double md_dot(double* a, double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) {
    double prod = a[i] * b[i];
    double scaled = prod / 1.0;
    acc += scaled;
  }
  return acc;
}
)";

const char* kBlasOpenblas = R"(
#include "include/md.h"
double md_dot(double* a, double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) {
    acc += a[i] * b[i];
  }
  return acc;
}
)";

const char* kBlasMkl = R"(
#include "include/md.h"
double md_dot(double* a, double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) {
    acc += a[i] * b[i];
  }
  return acc;
}
)";

// GPU backends: each defines the same forces_gpu symbol; exactly one is
// compiled per configuration. The SYCL and OpenCL portability layers pay
// a small per-element overhead relative to native CUDA/HIP (§6.3.1's
// SYCL container is 11-20% slower).
std::string gpu_backend_source(const std::string& backend, double overhead) {
  std::string extra;
  if (overhead > 0.0) {
    extra = "      ei += 0.0 * (dx + dy + dz) * " + std::to_string(overhead) +
            ";\n      fxi = fxi * 1.0;\n";
  }
  return std::string(R"(
#include "include/md.h"
#pragma xaas gpu_kernel
double md_force_kernel_)") + backend + R"((double* px, double* py, double* pz,
                  double* fx, double* fy, double* fz,
                  double* nbx, double* nby, double* nbz, int n, int nnb) {
  double energy = 0.0;
  for (int i = 0; i < n; i++) {
    double xi = px[i];
    double yi = py[i];
    double zi = pz[i];
    double fxi = 0.0;
    double fyi = 0.0;
    double fzi = 0.0;
    double ei = 0.0;
    int lo = i * nnb;
    int hi = lo + nnb;
    for (int j = lo; j < hi; j++) {
      double dx = xi - nbx[j];
      double dy = yi - nby[j];
      double dz = zi - nbz[j];
      double r2 = dx * dx + dy * dy + dz * dz + MD_SOFTENING;
      double inv = rsqrt(r2);
      double inv2 = inv * inv;
      double inv6 = inv2 * inv2 * inv2;
      double coef = 24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2;
)" + extra + R"(      fxi += coef * dx;
      fyi += coef * dy;
      fzi += coef * dz;
      ei += 4.0 * inv6 * (inv6 - 1.0);
    }
    fx[i] = fxi;
    fy[i] = fyi;
    fz[i] = fzi;
    energy += ei;
  }
  return energy;
}

double forces_gpu(double* px, double* py, double* pz,
                  double* fx, double* fy, double* fz,
                  double* nbx, double* nby, double* nbz, int n, int nnb) {
  return md_force_kernel_)" + backend + R"((px, py, pz, fx, fy, fz, nbx, nby, nbz, n, nnb);
}

#pragma xaas gpu_kernel
void md_pack_kernel_)" + backend + R"((double* px, double* py, double* pz,
                    double* nbx, double* nby, double* nbz,
                    int* nbidx, int n, int nnb) {
  for (int i = 0; i < n; i++) {
    int lo = i * nnb;
    int hi = lo + nnb;
    for (int j = lo; j < hi; j++) {
      int k = nbidx[j];
      nbx[j] = px[k];
      nby[j] = py[k];
      nbz[j] = pz[k];
    }
  }
}

void pack_neighbors_dev(double* px, double* py, double* pz,
                        double* nbx, double* nby, double* nbz,
                        int* nbidx, int n, int nnb) {
  md_pack_kernel_)" + backend + R"((px, py, pz, nbx, nby, nbz, nbidx, n, nnb);
}
)";
}

// MPI halo exchange: ABI-dependent, hence system-dependent for the IR
// pipeline (Definition 2).
const char* kMpiComm = R"(
#include "include/md.h"
#ifdef MD_MPI
void md_exchange(double* px, double* py, double* pz, int n) {
  int halo = 4;
  for (int h = 0; h < halo; h++) {
    if (n > 2 * halo) {
      px[h] = px[n - 2 * halo + h];
      py[h] = py[n - 2 * halo + h];
      pz[h] = pz[n - 2 * halo + h];
    }
  }
}
#endif
)";

// ---- Generated utility modules ------------------------------------------

enum class ModuleClass { SimdSensitive, GpuConditional, Omp, MpiConditional, Plain };

ModuleClass module_class(int i) {
  const int r = (i * 37) % 1000;  // deterministic spread
  if (r < 274) return ModuleClass::SimdSensitive;
  if (r < 524) return ModuleClass::GpuConditional;
  if (r < 814) return ModuleClass::Omp;
  if (r < 864) return ModuleClass::MpiConditional;
  return ModuleClass::Plain;
}

std::string module_source(int i) {
  const std::string fn = "md_util_" + std::to_string(i);
  const std::string c1 = std::to_string(1.0 + 0.001 * i);
  const std::string c2 = std::to_string(2.0 + 0.002 * i);
  switch (module_class(i)) {
    case ModuleClass::SimdSensitive:
      // Width-class-dependent algorithm selection: produces up to three
      // distinct preprocessed variants across the vectorization ladder.
      return "#include \"include/md.h\"\n"
             "double " + fn + "(double* a, int n) {\n"
             "  double acc = 0.0;\n"
             "#if MD_SIMD_WIDTH >= 8\n"
             "  for (int k = 0; k < n; k++) { acc += a[k] * " + c1 + "; }\n"
             "#elif MD_SIMD_WIDTH >= 4\n"
             "  for (int k = 0; k < n; k++) { acc += a[k] * " + c2 + "; }\n"
             "#else\n"
             "  for (int k = 0; k < n; k++) { acc += a[k] + " + c1 + "; }\n"
             "#endif\n"
             "  return acc;\n"
             "}\n";
    case ModuleClass::GpuConditional:
      return "#include \"include/md.h\"\n"
             "double " + fn + "(double* a, int n) {\n"
             "  double acc = " + c1 + ";\n"
             "#ifdef MD_GPU_CUDA\n"
             "  acc = acc * 2.0;\n"
             "#endif\n"
             "  for (int k = 0; k < n; k++) { acc += a[k]; }\n"
             "  return acc;\n"
             "}\n";
    case ModuleClass::Omp:
      return "#include \"include/md.h\"\n"
             "double " + fn + "(double* a, int n) {\n"
             "  double acc = 0.0;\n"
             "#pragma omp parallel for reduction(+:acc)\n"
             "  for (int k = 0; k < n; k++) { acc += a[k] * " + c2 + "; }\n"
             "  return acc;\n"
             "}\n";
    case ModuleClass::MpiConditional:
      return "#include \"include/md.h\"\n"
             "double " + fn + "(double* a, int n) {\n"
             "#ifdef MD_MPI\n"
             "  double acc = " + c2 + ";\n"
             "#else\n"
             "  double acc = " + c1 + ";\n"
             "#endif\n"
             "  for (int k = 0; k < n; k++) { acc += a[k]; }\n"
             "  return acc;\n"
             "}\n";
    case ModuleClass::Plain:
      return "#include \"include/md.h\"\n"
             "double " + fn + "(double* a, int n) {\n"
             "  double acc = " + c1 + ";\n"
             "  for (int k = 0; k < n; k++) { acc += a[k] * " + c2 + "; }\n"
             "  return acc;\n"
             "}\n";
  }
  return "";
}

std::string gpu_module_source(int i) {
  const std::string fn = "md_gpu_util_" + std::to_string(i);
  return "#include \"include/md.h\"\n"
         "#pragma xaas gpu_kernel\n"
         "double " + fn + "(double* a, int n) {\n"
         "  double acc = " + std::to_string(0.5 + 0.01 * i) + ";\n"
         "  for (int k = 0; k < n; k++) { acc += a[k]; }\n"
         "  return acc;\n"
         "}\n";
}

std::string mpi_aux_source(int i) {
  const std::string fn = "md_mpi_aux_" + std::to_string(i);
  return "#include \"include/md.h\"\n"
         "double " + fn + "(double* a, int n) {\n"
         "  double acc = " + std::to_string(3.0 + i) + ";\n"
         "  for (int k = 0; k < n; k++) { acc += a[k]; }\n"
         "  return acc;\n"
         "}\n";
}

std::string tools_source(int i) {
  const std::string fn = "md_tool_" + std::to_string(i);
  return "double " + fn + "(double* a, int n) {\n"
         "  double acc = " + std::to_string(7.0 + i) + ";\n"
         "  for (int k = 0; k < n; k++) { acc += a[k]; }\n"
         "  return acc;\n"
         "}\n";
}

std::string build_script(int gpu_module_count) {
  std::string gpu_sources_cuda = "target_sources(md src/gpu_cuda.c";
  for (int i = 0; i < gpu_module_count; ++i) {
    gpu_sources_cuda += " modules_gpu/gpu_k_" + std::to_string(i) + ".c";
  }
  gpu_sources_cuda += ")";

  return std::string(R"(
project(minimd)
build_system(cmake 3.18)
minimum_compiler(gcc 9.0)
minimum_compiler(clang 14.0)
minimum_compiler(oneapi 2023.0)
architecture(x86_64)
architecture(aarch64)

option_multichoice(MD_SIMD "SIMD acceleration level" SSE2 None SSE2 SSE4.1 AVX2_128 AVX_256 AVX2_256 AVX_512 ARM_NEON_ASIMD ARM_SVE)
simd_option(MD_SIMD)
category(MD_SIMD simd)

option_multichoice(MD_GPU "GPU acceleration backend" OFF OFF CUDA HIP SYCL OPENCL)
category(MD_GPU gpu)

option_bool(MD_OPENMP "OpenMP threading" ON)
option_bool(MD_MPI "MPI domain decomposition" OFF)
category(MD_OPENMP parallel)
category(MD_MPI parallel)

option_multichoice(MD_FFT "FFT library" fftw3 fftpack fftw3 mkl)
category(MD_FFT fft)

option_multichoice(MD_BLAS "Linear algebra library" internal internal openblas mkl)
category(MD_BLAS blas)

add_target(md)
target_sources(md src/main.c src/forces.c src/bonded.c src/neighbor.c src/integrate.c src/pme.c)
target_sources_glob(md modules/m_*.c)
include_dir(md .)
include_build_dir(md)

add_target(md_tools)
target_sources(md_tools tools/t_0.c tools/t_1.c tools/t_2.c)
include_dir(md_tools .)

if(MD_OPENMP)
  add_flag(-fopenmp)
endif()

if(MD_MPI)
  add_define(MD_MPI)
  require_dependency(mpich 4.0)
  target_sources(md src/mpi_comm.c modules_mpi/mpi_aux_0.c modules_mpi/mpi_aux_1.c modules_mpi/mpi_aux_2.c)
endif()

if(MD_GPU STREQUAL CUDA)
  require_dependency(cuda 12.1)
  )" + gpu_sources_cuda + R"(
endif()
if(MD_GPU STREQUAL HIP)
  require_dependency(rocm 5.4)
  target_sources(md src/gpu_hip.c)
endif()
if(MD_GPU STREQUAL SYCL)
  require_dependency(sycl 2023.0)
  target_sources(md src/gpu_sycl.c)
endif()
if(MD_GPU STREQUAL OPENCL)
  require_dependency(opencl 3.0)
  target_sources(md src/gpu_opencl.c)
endif()

if(MD_FFT STREQUAL fftpack)
  internal_library(fftpack -DMD_BUILD_OWN_FFT)
  target_sources(md lib/fft_fftpack.c)
endif()
if(MD_FFT STREQUAL fftw3)
  require_dependency(fftw3 3.3)
  link_library(fftw3)
  target_sources(md lib/fft_fftw3.c)
endif()
if(MD_FFT STREQUAL mkl)
  require_dependency(mkl 2021)
  link_library(mkl)
  target_sources(md lib/fft_mkl.c)
endif()

if(MD_BLAS STREQUAL internal)
  internal_library(miniblas -DMD_BUILD_OWN_BLAS)
  target_sources(md lib/blas_internal.c)
endif()
if(MD_BLAS STREQUAL openblas)
  require_dependency(openblas 0.3)
  link_library(openblas)
  target_sources(md lib/blas_openblas.c)
endif()
if(MD_BLAS STREQUAL mkl)
  require_dependency(mkl 2021)
  link_library(mkl)
  target_sources(md lib/blas_mkl.c)
endif()
)");
}

}  // namespace

Application make_minimd(const MinimdOptions& options) {
  Application app;
  app.name = "minimd";
  app.entry_point = "app_main";
  app.system_dependent_globs = {"src/mpi_comm.c"};

  app.source_tree.write("include/md.h", kHeader);
  app.source_tree.write("src/main.c", kMain);
  app.source_tree.write("src/forces.c", kForces);
  app.source_tree.write("src/bonded.c", kBonded);
  app.source_tree.write("src/neighbor.c", kNeighbor);
  app.source_tree.write("src/integrate.c", kIntegrate);
  app.source_tree.write("src/pme.c", kPme);
  app.source_tree.write("src/mpi_comm.c", kMpiComm);
  app.source_tree.write("src/gpu_cuda.c", gpu_backend_source("cuda", 0.0));
  app.source_tree.write("src/gpu_hip.c", gpu_backend_source("hip", 0.0));
  app.source_tree.write("src/gpu_sycl.c", gpu_backend_source("sycl", 0.15));
  app.source_tree.write("src/gpu_opencl.c", gpu_backend_source("opencl", 0.2));
  app.source_tree.write("lib/fft_fftpack.c", kFftFftpack);
  app.source_tree.write("lib/fft_fftw3.c", kFftFftw3);
  app.source_tree.write("lib/fft_mkl.c", kFftMkl);
  app.source_tree.write("lib/blas_internal.c", kBlasInternal);
  app.source_tree.write("lib/blas_openblas.c", kBlasOpenblas);
  app.source_tree.write("lib/blas_mkl.c", kBlasMkl);

  for (int i = 0; i < options.module_count; ++i) {
    // Zero-pad so VFS glob order is stable.
    char name[64];
    std::snprintf(name, sizeof(name), "modules/m_%05d.c", i);
    app.source_tree.write(name, module_source(i));
  }
  for (int i = 0; i < options.gpu_module_count; ++i) {
    app.source_tree.write("modules_gpu/gpu_k_" + std::to_string(i) + ".c",
                          gpu_module_source(i));
  }
  for (int i = 0; i < 3; ++i) {
    app.source_tree.write("modules_mpi/mpi_aux_" + std::to_string(i) + ".c",
                          mpi_aux_source(i));
    app.source_tree.write("tools/t_" + std::to_string(i) + ".c",
                          tools_source(i));
  }

  app.build_script_text = build_script(options.gpu_module_count);
  const auto parsed = buildsys::parse_script(app.build_script_text);
  app.script = parsed.script;
  return app;
}

vm::Workload minimd_workload(const MdWorkloadParams& params) {
  vm::Workload w;
  w.entry = "app_main";
  const auto n = static_cast<std::size_t>(params.atoms);
  const auto packed = n * static_cast<std::size_t>(params.neighbors);
  const auto g = static_cast<std::size_t>(params.grid);

  const auto coords = [&](std::uint64_t seed) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = 0.8 * static_cast<double>((i * 2654435761ULL + seed) % 1000) / 1000.0 +
             0.6 * static_cast<double>(i % 17);
    }
    return v;
  };
  w.f64_buffers["px"] = coords(1);
  w.f64_buffers["py"] = coords(2);
  w.f64_buffers["pz"] = coords(3);
  w.f64_buffers["vx"] = std::vector<double>(n, 0.01);
  w.f64_buffers["vy"] = std::vector<double>(n, -0.01);
  w.f64_buffers["vz"] = std::vector<double>(n, 0.005);
  w.f64_buffers["fx"] = std::vector<double>(n, 0.0);
  w.f64_buffers["fy"] = std::vector<double>(n, 0.0);
  w.f64_buffers["fz"] = std::vector<double>(n, 0.0);
  w.f64_buffers["nbx"] = std::vector<double>(packed, 0.0);
  w.f64_buffers["nby"] = std::vector<double>(packed, 0.0);
  w.f64_buffers["nbz"] = std::vector<double>(packed, 0.0);
  w.i64_buffers["nbidx"] = std::vector<long long>(packed, 0);
  w.f64_buffers["grid"] = std::vector<double>(g, 1.0);

  using Arg = vm::Workload::Arg;
  w.args = {Arg::buf_f64("px"),    Arg::buf_f64("py"), Arg::buf_f64("pz"),
            Arg::buf_f64("vx"),    Arg::buf_f64("vy"), Arg::buf_f64("vz"),
            Arg::buf_f64("fx"),    Arg::buf_f64("fy"), Arg::buf_f64("fz"),
            Arg::buf_f64("nbx"),   Arg::buf_f64("nby"), Arg::buf_f64("nbz"),
            Arg::buf_i64("nbidx"), Arg::buf_f64("grid"),
            Arg::i64(params.atoms), Arg::i64(params.steps),
            Arg::i64(params.neighbors), Arg::i64(params.grid)};
  return w;
}

}  // namespace xaas::apps
