#include <gtest/gtest.h>

#include "container/hooks.hpp"

namespace xaas::container {
namespace {

TEST(Hooks, AbiTagRoundTrip) {
  const std::string lib = make_library("mpich", "optimized cray mpich\n");
  EXPECT_EQ(library_abi(lib), "mpich");
  EXPECT_EQ(library_abi("no tag"), "");
}

TEST(Hooks, InjectionReplacesMatchingAbi) {
  common::Vfs root;
  root.write("opt/mpich/lib/libmpi.so", make_library("mpich", "generic"));
  const HookResult r = apply_injection_hook(
      root, {{"opt/mpich/lib/libmpi.so", make_library("mpich", "cray-tuned"),
              "mpich"}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.replaced.size(), 1u);
  EXPECT_NE(root.read("opt/mpich/lib/libmpi.so")->find("cray-tuned"),
            std::string::npos);
}

TEST(Hooks, AbiMismatchAborts) {
  // The OpenMPI-vs-MPICH failure (§2.2): runtime replacement requires
  // ABI compatibility.
  common::Vfs root;
  root.write("opt/mpich/lib/libmpi.so", make_library("mpich", "generic"));
  const HookResult r = apply_injection_hook(
      root,
      {{"opt/mpich/lib/libmpi.so", make_library("openmpi", "host"), "openmpi"}});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("ABI mismatch"), std::string::npos);
  // Container library untouched.
  EXPECT_EQ(library_abi(*root.read("opt/mpich/lib/libmpi.so")), "mpich");
}

TEST(Hooks, MissingPathSkippedSilently) {
  common::Vfs root;
  root.write("other", "x");
  const HookResult r = apply_injection_hook(
      root, {{"opt/cuda/lib/libcudart.so", make_library("cuda", "host"),
              "cuda"}});
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.replaced.empty());
}

}  // namespace
}  // namespace xaas::container
