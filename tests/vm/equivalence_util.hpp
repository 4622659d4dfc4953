// Shared bit-identity assertions for the interpreter-equivalence suites.
//
// The three execution tiers (reference interpreter, decoded machine,
// batch superinstructions) must be observationally identical: same
// return values, same cost-model outputs to the last bit, same buffer
// contents, same errors. Costs accumulate in exact integer units in
// every tier (see decoded.hpp), so every comparison here is strict
// equality, not a tolerance.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "vm/executor.hpp"
#include "vm/node.hpp"
#include "vm/program.hpp"

namespace xaas::vm::testing {

inline std::uint64_t bits(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

inline void expect_identical(const RunResult& actual,
                             const RunResult& expected) {
  ASSERT_EQ(actual.ok, expected.ok);
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(bits(actual.ret_f64), bits(expected.ret_f64));
  EXPECT_EQ(actual.ret_i64, expected.ret_i64);
  EXPECT_EQ(bits(actual.cycles_serial), bits(expected.cycles_serial));
  EXPECT_EQ(bits(actual.cycles_parallel), bits(expected.cycles_parallel));
  EXPECT_EQ(bits(actual.cycles_gpu), bits(expected.cycles_gpu));
  EXPECT_EQ(actual.fork_joins, expected.fork_joins);
  EXPECT_EQ(actual.instructions, expected.instructions);
  EXPECT_EQ(actual.threads_used, expected.threads_used);
  EXPECT_EQ(bits(actual.elapsed_seconds), bits(expected.elapsed_seconds));
}

// Element-wise, so an empty buffer (whose data() may be null) is never
// handed to memcmp; doubles compare by bit pattern.
inline void expect_buffers_identical(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.f64_buffers.size(), b.f64_buffers.size());
  for (const auto& [name, va] : a.f64_buffers) {
    const auto& vb = b.f64_buffers.at(name);
    ASSERT_EQ(va.size(), vb.size()) << name;
    EXPECT_TRUE(std::equal(
        va.begin(), va.end(), vb.begin(),
        [](double x, double y) { return bits(x) == bits(y); }))
        << name;
  }
  for (const auto& [name, va] : a.i64_buffers) {
    const auto& vb = b.i64_buffers.at(name);
    ASSERT_EQ(va.size(), vb.size()) << name;
    EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin())) << name;
  }
}

/// Run the workload through both interpreters on the same program/node
/// and assert every observable output matches (batch tier stays at its
/// default, so this also covers fused loops when the program has any).
inline void check_program(const Program& program, const std::string& node_name,
                          const Workload& workload, int threads) {
  ExecutorOptions decoded_options;
  decoded_options.threads = threads;
  ExecutorOptions reference_options = decoded_options;
  reference_options.reference_interpreter = true;

  Workload w_decoded = workload;
  Workload w_reference = workload;
  const Executor decoded(program, node(node_name), decoded_options);
  const Executor reference(program, node(node_name), reference_options);
  const RunResult rd = decoded.run(w_decoded);
  const RunResult rr = reference.run(w_reference);
  expect_identical(rd, rr);
  expect_buffers_identical(w_decoded, w_reference);
}

/// Three-way check: reference interpreter vs decoded-with-batch-off vs
/// decoded-with-batch-on, pairwise over results and buffers. The
/// reference run is the spec; both decoded flavors must match it bit
/// for bit, trap runs included.
inline void check_three_tiers(const Program& program,
                              const std::string& node_name,
                              const Workload& workload, int threads,
                              long long max_instructions = -1) {
  ExecutorOptions batch_options;
  batch_options.threads = threads;
  if (max_instructions >= 0) batch_options.max_instructions = max_instructions;
  ExecutorOptions scalar_options = batch_options;
  scalar_options.batch_superinstructions = false;
  ExecutorOptions reference_options = batch_options;
  reference_options.reference_interpreter = true;

  Workload w_batch = workload;
  Workload w_scalar = workload;
  Workload w_reference = workload;
  const NodeSpec n = node(node_name);
  const RunResult rb = Executor(program, n, batch_options).run(w_batch);
  const RunResult rs = Executor(program, n, scalar_options).run(w_scalar);
  const RunResult rr = Executor(program, n, reference_options).run(w_reference);
  expect_identical(rb, rr);
  expect_identical(rs, rr);
  expect_buffers_identical(w_batch, w_reference);
  expect_buffers_identical(w_scalar, w_reference);
}

}  // namespace xaas::vm::testing
