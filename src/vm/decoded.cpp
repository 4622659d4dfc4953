#include "vm/decoded.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace xaas::vm {

using minicc::ir::Block;
using minicc::ir::CmpPred;
using minicc::ir::Function;
using minicc::ir::Inst;
using minicc::ir::Opcode;

long long op_cost_units(Opcode op) {
  // The seed model in cycles, times kCostUnitScale (20).
  switch (op) {
    case Opcode::ConstF:
    case Opcode::ConstI:
    case Opcode::Mov:
      return 5;  // 0.25
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::Fma:
      return 20;  // 1.0
    case Opcode::FNeg:
      return 10;  // 0.5
    case Opcode::FDiv:
      return 160;  // 8.0
    case Opcode::IAdd:
    case Opcode::ISub:
      return 6;  // 0.3
    case Opcode::IMul:
      return 20;  // 1.0
    case Opcode::IDiv:
    case Opcode::IMod:
      return 200;  // 10.0
    case Opcode::INeg:
      return 6;  // 0.3
    case Opcode::ICmp:
    case Opcode::FCmp:
    case Opcode::LAnd:
    case Opcode::LOr:
    case Opcode::LNot:
      return 6;  // 0.3
    case Opcode::SiToFp:
    case Opcode::FpToSi:
      return 20;  // 1.0
    case Opcode::LoadF:
    case Opcode::LoadI:
    case Opcode::StoreF:
    case Opcode::StoreI:
      return 20;  // 1.0
    case Opcode::Call:
      return 100;  // 5.0
    case Opcode::Br:
      return 6;  // 0.3
    case Opcode::CBr:
      return 10;  // 0.5
    case Opcode::Ret:
      return 20;  // 1.0
    case Opcode::VSplat:
      return 20;  // 1.0
    case Opcode::HReduceAdd:
      return 60;  // 3.0
  }
  return 20;
}

const std::vector<IntrinsicSpec>& intrinsic_table() {
  // In tag order, so the table doubles as the tag -> spec index.
  static const std::vector<IntrinsicSpec> table = {
      {"sqrt", Intrinsic::Sqrt, 200},   // 10.0 cycles
      {"rsqrt", Intrinsic::Rsqrt, 80},  // 4.0
      {"exp", Intrinsic::Exp, 400},     // 20.0
      {"fabs", Intrinsic::Fabs, 10},    // 0.5
      {"floor", Intrinsic::Floor, 40},  // 2.0
      {"fmin", Intrinsic::Fmin, 20},    // 1.0
      {"fmax", Intrinsic::Fmax, 20},    // 1.0
      {"pow2", Intrinsic::Pow2, 20},    // 1.0
  };
  return table;
}

const IntrinsicSpec* find_intrinsic(std::string_view name) {
  static const auto index = [] {
    std::unordered_map<std::string_view, const IntrinsicSpec*> m;
    for (const auto& spec : intrinsic_table()) m.emplace(spec.name, &spec);
    return m;
  }();
  const auto it = index.find(name);
  return it == index.end() ? nullptr : it->second;
}

long long intrinsic_cost_units(Intrinsic tag) {
  return intrinsic_table()[static_cast<std::size_t>(tag)].cost_units;
}

namespace {

constexpr int kMaxLanes = 8;
constexpr int kMaxDepth = 64;

bool is_terminator(Opcode op) {
  return op == Opcode::Br || op == Opcode::CBr || op == Opcode::Ret;
}

// ---------------------------------------------------------------------
// Batch-tier loop recognizer (decode time).
//
// Matches the counted-loop shapes irgen/vectorizer emit — a 2-inst
// scalar header (icmp; cbr) or 4-inst vector header (const; iadd; icmp;
// cbr), a straight-line float body, and the canonical 4-inst latch
// (const step; iadd; mov ind; br header) — and lowers the body into a
// FusedLoopPlan. Anything that deviates simply stays on the
// per-instruction path; the recognizer must never mis-accept, because
// the fused runtime replays only the loop's architectural effects
// (induction register, accumulator, streams) and relies on the final
// iteration being interpreted to restore every temporary bit-exactly.

struct HeaderMatch {
  minicc::ir::CmpPred pred = CmpPred::LT;
  int ind_reg = -1;
  int bound_reg = -1;
  long long bound_offset = 0;
  int body = -1;
  int exit = -1;
};

bool match_fused_header(const DecodedFunction& df, int h, HeaderMatch& m) {
  const DecodedBlock& header = df.blocks[static_cast<std::size_t>(h)];
  if (!header.has_terminator) return false;
  const DecodedInst* insts = df.insts.data() + header.first;
  const DecodedInst* cmp = nullptr;
  if (header.count == 2) {
    cmp = &insts[0];
    m.ind_reg = cmp->a;
    m.bound_offset = 0;
  } else if (header.count == 4) {
    const DecodedInst& ci = insts[0];
    const DecodedInst& add = insts[1];
    if (ci.op != Opcode::ConstI || ci.width != 1 || ci.dst < 0) return false;
    if (add.op != Opcode::IAdd || add.width != 1 || add.dst < 0) return false;
    if (add.a == ci.dst) m.ind_reg = add.b;
    else if (add.b == ci.dst) m.ind_reg = add.a;
    else return false;
    cmp = &insts[2];
    if (cmp->a != add.dst) return false;
    m.bound_offset = ci.iimm;
    if (m.bound_offset < 0 || m.bound_offset > (1LL << 30)) return false;
  } else {
    return false;
  }
  if (cmp->op != Opcode::ICmp || cmp->width != 1 || cmp->dst < 0) return false;
  if (cmp->pred != CmpPred::LT && cmp->pred != CmpPred::LE) return false;
  m.pred = cmp->pred;
  m.bound_reg = cmp->b;
  const DecodedInst& cbr = insts[header.count - 1];
  if (cbr.op != Opcode::CBr || cbr.a != cmp->dst) return false;
  if (cbr.t1 == cbr.t2) return false;
  m.body = cbr.t1;
  m.exit = cbr.t2;
  return m.ind_reg >= 0;
}

bool match_fused_latch(const DecodedFunction& df, int latch, int h,
                       int ind_reg, int width) {
  const DecodedBlock& lb = df.blocks[static_cast<std::size_t>(latch)];
  if (!lb.has_terminator || lb.count != 4) return false;
  const DecodedInst* insts = df.insts.data() + lb.first;
  const DecodedInst& ci = insts[0];
  const DecodedInst& add = insts[1];
  const DecodedInst& mv = insts[2];
  const DecodedInst& br = insts[3];
  if (ci.op != Opcode::ConstI || ci.width != 1 || ci.dst < 0) return false;
  if (ci.iimm != width) return false;  // step must equal the batch width
  if (add.op != Opcode::IAdd || add.width != 1 || add.dst < 0) return false;
  if (!((add.a == ind_reg && add.b == ci.dst) ||
        (add.a == ci.dst && add.b == ind_reg))) {
    return false;
  }
  if (mv.op != Opcode::Mov || mv.width != 1 || mv.dst != ind_reg ||
      mv.a != add.dst) {
    return false;
  }
  return br.op == Opcode::Br && br.t1 == h;
}

bool fused_op_for(Opcode op, BatchOpKind& kind, int& arity) {
  switch (op) {
    case Opcode::FAdd: kind = BatchOpKind::Add; arity = 2; return true;
    case Opcode::FSub: kind = BatchOpKind::Sub; arity = 2; return true;
    case Opcode::FMul: kind = BatchOpKind::Mul; arity = 2; return true;
    case Opcode::FDiv: kind = BatchOpKind::Div; arity = 2; return true;
    case Opcode::FNeg: kind = BatchOpKind::Neg; arity = 1; return true;
    case Opcode::Fma: kind = BatchOpKind::FmaOp; arity = 3; return true;
    case Opcode::ConstF: kind = BatchOpKind::ConstVal; arity = 0; return true;
    default: return false;
  }
}

bool fused_op_for_intrinsic(Intrinsic tag, BatchOpKind& kind, int& arity) {
  switch (tag) {
    case Intrinsic::Sqrt: kind = BatchOpKind::Sqrt; arity = 1; return true;
    case Intrinsic::Rsqrt: kind = BatchOpKind::Rsqrt; arity = 1; return true;
    case Intrinsic::Exp: kind = BatchOpKind::Exp; arity = 1; return true;
    case Intrinsic::Fabs: kind = BatchOpKind::Fabs; arity = 1; return true;
    case Intrinsic::Floor: kind = BatchOpKind::Floor; arity = 1; return true;
    case Intrinsic::Fmin: kind = BatchOpKind::Fmin; arity = 2; return true;
    case Intrinsic::Fmax: kind = BatchOpKind::Fmax; arity = 2; return true;
    case Intrinsic::Pow2: kind = BatchOpKind::Pow2; arity = 1; return true;
  }
  return false;
}

bool match_fused_loop(const DecodedFunction& df, int h, FusedLoopPlan& plan) {
  const int nblocks = static_cast<int>(df.blocks.size());
  HeaderMatch hm;
  if (!match_fused_header(df, h, hm)) return false;
  if (hm.body < 0 || hm.body >= nblocks || hm.body == h) return false;

  const DecodedBlock& body = df.blocks[static_cast<std::size_t>(hm.body)];
  if (!body.has_terminator || body.count < 2) return false;
  const DecodedInst* binsts = df.insts.data() + body.first;
  const DecodedInst& bterm = binsts[body.count - 1];
  if (bterm.op != Opcode::Br) return false;
  const int latch = bterm.t1;
  if (latch < 0 || latch >= nblocks || latch == h || latch == hm.body) {
    return false;
  }

  // At most one Mov (the reduction carry), and it must close the body.
  int mov_idx = -1;
  for (int k = 0; k + 1 < body.count; ++k) {
    if (binsts[k].op == Opcode::Mov) {
      if (mov_idx >= 0) return false;
      mov_idx = k;
    }
  }
  if (mov_idx >= 0 && (mov_idx != body.count - 2 || mov_idx < 1)) return false;
  const int acc_reg = mov_idx >= 0 ? binsts[mov_idx].dst : -1;
  const int mov_src = mov_idx >= 0 ? binsts[mov_idx].a : -1;
  if (mov_idx >= 0 && (acc_reg < 0 || mov_src < 0)) return false;

  const int loop_blocks[3] = {h, hm.body, latch};
  const auto write_count = [&](int reg) {
    int n = 0;
    for (int b : loop_blocks) {
      const DecodedBlock& blk = df.blocks[static_cast<std::size_t>(b)];
      for (int k = 0; k < blk.count; ++k) {
        if (df.insts[static_cast<std::size_t>(blk.first + k)].dst == reg) ++n;
      }
    }
    return n;
  };

  // The induction register may be written only by the latch Mov, the
  // accumulator only by the body Mov; the bound must be loop-invariant.
  if (write_count(hm.ind_reg) != 1) return false;
  if (hm.bound_reg < 0 || write_count(hm.bound_reg) != 0) return false;
  if (acc_reg >= 0 && write_count(acc_reg) != 1) return false;

  // Body scan: classify every operand as stream load, earlier-step temp,
  // loop-invariant register, or the accumulator (combine only).
  std::vector<BatchRef> reg_ref(static_cast<std::size_t>(df.num_regs));
  std::vector<std::uint8_t> has_ref(static_cast<std::size_t>(df.num_regs), 0);
  int width = 0;
  const auto match_width = [&](int w) {
    if (width == 0) width = w;
    return width == w;
  };
  // `allow_acc`: operand may be the accumulator (combine extraction).
  // Returns false on carried/loop-written operands, which are the one
  // shape the fused runtime cannot replay.
  const auto classify = [&](int reg, bool allow_acc, BatchRef& out,
                            bool& is_acc) -> bool {
    is_acc = false;
    if (reg < 0 || reg >= df.num_regs) return false;
    if (has_ref[static_cast<std::size_t>(reg)]) {
      out = reg_ref[static_cast<std::size_t>(reg)];
      return true;
    }
    if (reg == acc_reg) {
      is_acc = true;
      return allow_acc;
    }
    if (write_count(reg) != 0) return false;
    for (std::size_t j = 0; j < plan.inv_regs.size(); ++j) {
      if (plan.inv_regs[j] == reg) {
        out = {BatchRef::Kind::Inv, static_cast<int>(j)};
        return true;
      }
    }
    if (plan.inv_regs.size() >= kMaxBatchInvariants) return false;
    out = {BatchRef::Kind::Inv, static_cast<int>(plan.inv_regs.size())};
    plan.inv_regs.push_back(reg);
    return true;
  };

  for (int k = 0; k + 1 < body.count; ++k) {
    if (k == mov_idx) continue;  // handled with the combine below
    const DecodedInst& in = binsts[k];
    const bool is_combine = acc_reg >= 0 && k == mov_idx - 1;
    if (static_cast<int>(plan.steps.size()) >= kMaxBatchSteps) return false;

    if (in.op == Opcode::LoadF) {
      if (is_combine || in.dst < 0) return false;
      if (in.b != hm.ind_reg) return false;
      if (in.a < 0 || write_count(in.a) != 0) return false;
      if (!match_width(in.width)) return false;
      if (static_cast<int>(plan.loads.size()) >= kMaxBatchLoads) return false;
      const int stream = static_cast<int>(plan.loads.size());
      plan.loads.push_back({in.a});
      FusedLoopPlan::Step st;
      st.kind = FusedLoopPlan::Step::Kind::Load;
      st.stream = stream;
      plan.steps.push_back(st);
      reg_ref[static_cast<std::size_t>(in.dst)] = {BatchRef::Kind::Load,
                                                   stream};
      has_ref[static_cast<std::size_t>(in.dst)] = 1;
      continue;
    }
    if (in.op == Opcode::StoreF) {
      if (is_combine || acc_reg >= 0) return false;  // no stores in reductions
      if (in.b != hm.ind_reg) return false;
      if (in.a < 0 || write_count(in.a) != 0) return false;
      if (!match_width(in.width)) return false;
      if (static_cast<int>(plan.stores.size()) >= kMaxBatchStores) {
        return false;
      }
      FusedLoopPlan::Step st;
      st.kind = FusedLoopPlan::Step::Kind::Store;
      st.stream = static_cast<int>(plan.stores.size());
      bool is_acc = false;
      if (!classify(in.c, /*allow_acc=*/false, st.a, is_acc)) return false;
      plan.stores.push_back({in.a});
      plan.steps.push_back(st);
      continue;
    }

    BatchOpKind kind{};
    int arity = 0;
    if (in.op == Opcode::Call) {
      if (in.call_kind != CallKind::IntrinsicCall) return false;
      if (!fused_op_for_intrinsic(in.intrinsic, kind, arity)) return false;
      if (in.args_end - in.args_begin != arity) return false;
    } else if (!fused_op_for(in.op, kind, arity)) {
      return false;
    }
    if (in.dst < 0 || !match_width(in.width)) return false;

    int opnd[3] = {-1, -1, -1};
    if (in.op == Opcode::Call) {
      for (int j = 0; j < arity; ++j) {
        opnd[j] = df.call_args[static_cast<std::size_t>(in.args_begin + j)];
      }
    } else {
      if (arity > 0) opnd[0] = in.a;
      if (arity > 1) opnd[1] = in.b;
      if (arity > 2) opnd[2] = in.c;
    }

    FusedLoopPlan::Step st;
    st.kind = FusedLoopPlan::Step::Kind::Compute;
    st.op = kind;
    st.fimm = in.fimm;
    BatchRef refs[3];
    bool acc_at[3] = {false, false, false};
    int acc_uses = 0;
    for (int j = 0; j < arity; ++j) {
      if (!classify(opnd[j], is_combine, refs[j], acc_at[j])) return false;
      if (acc_at[j]) ++acc_uses;
    }

    if (is_combine) {
      // The combine is the instruction feeding the carry Mov; it must
      // read the accumulator exactly once, in one of the forms the
      // serial-chain kernels reproduce.
      if (in.dst != mov_src || acc_uses != 1) return false;
      switch (in.op) {
        case Opcode::FAdd:
          plan.combine = acc_at[0] ? CombineKind::AddAccFirst
                                   : CombineKind::AddAccSecond;
          plan.comb_a = acc_at[0] ? refs[1] : refs[0];
          break;
        case Opcode::FSub:
          if (!acc_at[0]) return false;
          plan.combine = CombineKind::SubAccFirst;
          plan.comb_a = refs[1];
          break;
        case Opcode::Fma:
          if (!acc_at[2]) return false;
          plan.combine = CombineKind::FmaAcc;
          plan.comb_a = refs[0];
          plan.comb_b = refs[1];
          break;
        default:
          return false;
      }
      plan.acc_reg = acc_reg;
      continue;
    }
    if (acc_uses != 0) return false;
    if (plan.num_temps >= kMaxBatchTemps) return false;
    st.dst = plan.num_temps++;
    st.a = refs[0];
    st.b = refs[1];
    st.c = refs[2];
    plan.steps.push_back(st);
    reg_ref[static_cast<std::size_t>(in.dst)] = {BatchRef::Kind::Temp, st.dst};
    has_ref[static_cast<std::size_t>(in.dst)] = 1;
  }

  if (width != 1 && width != 2 && width != 4 && width != 8) return false;
  if (acc_reg >= 0) {
    if (plan.acc_reg < 0) return false;  // no combine extracted
    if (binsts[mov_idx].width != width) return false;
  } else if (plan.stores.empty()) {
    return false;  // body with no architectural effect: not worth fusing
  }
  if (!match_fused_latch(df, latch, h, hm.ind_reg, width)) return false;

  plan.width = width;
  plan.step = width;
  plan.pred = hm.pred;
  plan.bound_offset = hm.bound_offset;
  plan.ind_reg = hm.ind_reg;
  plan.bound_reg = hm.bound_reg;
  plan.latch_block = latch;

  const DecodedBlock& latchb = df.blocks[static_cast<std::size_t>(latch)];
  const DecodedBlock& headb = df.blocks[static_cast<std::size_t>(h)];
  plan.iter_insts = headb.count + body.count + latchb.count;
  for (const DecodedBlock* blk : {&headb, &body, &latchb}) {
    if (blk->parallel) {
      plan.iter_parallel_units += blk->static_cost_units;
    } else {
      plan.iter_serial_units += blk->static_cost_units;
    }
  }

  // Outside a parallel region the dispatch loop counts a fork whenever a
  // parallel-loop header is entered from outside that loop. Steady-state
  // iterations take header->body->latch->header; if any parallel loop
  // headed at one of those blocks excludes its predecessor, iterating
  // natively would skip per-iteration forks, so fusion must stand down
  // when not already inside a parallel region.
  const auto preds_inside = [&](int block_id, int pred_block) {
    const DecodedBlock& blk = df.blocks[static_cast<std::size_t>(block_id)];
    for (int li = blk.loops_begin; li < blk.loops_end; ++li) {
      const DecodedLoop& loop = df.header_loops[static_cast<std::size_t>(li)];
      if (!loop.member[static_cast<std::size_t>(pred_block)]) return false;
    }
    return true;
  };
  plan.safe_outside_parallel = preds_inside(h, latch) &&
                               preds_inside(hm.body, h) &&
                               preds_inside(latch, hm.body);
  return true;
}

void recognize_fused_loops(DecodedFunction& df) {
  for (int h = 0; h < static_cast<int>(df.blocks.size()); ++h) {
    FusedLoopPlan plan;
    if (match_fused_loop(df, h, plan)) {
      df.blocks[static_cast<std::size_t>(h)].fused =
          static_cast<int>(df.fused_loops.size());
      df.fused_loops.push_back(std::move(plan));
    }
  }
}

}  // namespace

DecodedProgram DecodedProgram::build(const Program& program) {
  DecodedProgram dp;

  // First pass: allocate decoded slots so calls can resolve forward.
  const auto& symbols = program.symbols();
  dp.functions_.reserve(symbols.size());
  for (const auto& [name, fn] : symbols) {
    dp.index_.emplace(name, dp.functions_.size());
    DecodedFunction df;
    df.source = fn;
    df.name = name;
    dp.functions_.push_back(std::move(df));
  }

  for (auto& df : dp.functions_) {
    const Function& fn = *df.source;
    df.gpu_kernel = fn.gpu_kernel;
    df.num_regs = fn.num_regs();
    df.param_regs.reserve(fn.params.size());
    for (const auto& p : fn.params) df.param_regs.push_back(p.reg);

    const int nblocks = static_cast<int>(fn.blocks.size());
    df.blocks.resize(static_cast<std::size_t>(nblocks));

    // Parallel-loop metadata, folded into flat per-block data. Loops that
    // fork at the same header stay contiguous in header_loops so a block
    // stores only a [begin, end) range.
    std::vector<std::vector<const minicc::ir::LoopInfo*>> per_header(
        static_cast<std::size_t>(nblocks));
    for (const auto& loop : fn.loops) {
      if (!loop.parallel) continue;
      for (int b : loop.blocks) {
        if (b >= 0 && b < nblocks) {
          df.blocks[static_cast<std::size_t>(b)].parallel = 1;
        }
      }
      if (loop.header >= 0 && loop.header < nblocks) {
        per_header[static_cast<std::size_t>(loop.header)].push_back(&loop);
      }
    }
    for (int b = 0; b < nblocks; ++b) {
      const auto& loops = per_header[static_cast<std::size_t>(b)];
      if (loops.empty()) continue;
      DecodedBlock& header = df.blocks[static_cast<std::size_t>(b)];
      header.loops_begin = static_cast<int>(df.header_loops.size());
      for (const auto* loop : loops) {
        DecodedLoop dl;
        dl.member.assign(static_cast<std::size_t>(nblocks), 0);
        for (int m : loop->blocks) {
          if (m >= 0 && m < nblocks) dl.member[static_cast<std::size_t>(m)] = 1;
        }
        df.header_loops.push_back(std::move(dl));
      }
      header.loops_end = static_cast<int>(df.header_loops.size());
    }

    // Flatten instruction streams, truncating each block after its first
    // terminator (trailing instructions are unreachable in the seed too).
    for (int b = 0; b < nblocks; ++b) {
      const Block& block = fn.blocks[static_cast<std::size_t>(b)];
      DecodedBlock& db = df.blocks[static_cast<std::size_t>(b)];
      db.first = static_cast<int>(df.insts.size());
      for (const Inst& inst : block.insts) {
        DecodedInst di;
        di.op = inst.op;
        di.pred = inst.pred;
        di.width = std::min(inst.width, kMaxLanes);
        di.dst = inst.dst;
        di.a = inst.a;
        di.b = inst.b;
        di.c = inst.c;
        di.t1 = inst.t1;
        di.t2 = inst.t2;
        di.iimm = inst.iimm;
        di.fimm = inst.fimm;

        long long units = op_cost_units(inst.op);
        if (inst.op == Opcode::Call) {
          di.args_begin = static_cast<int>(df.call_args.size());
          df.call_args.insert(df.call_args.end(), inst.args.begin(),
                              inst.args.end());
          di.args_end = static_cast<int>(df.call_args.size());
          if (const IntrinsicSpec* spec = find_intrinsic(inst.callee)) {
            di.call_kind = CallKind::IntrinsicCall;
            di.intrinsic = spec->tag;
            units = spec->cost_units;
          } else {
            const auto it = dp.index_.find(inst.callee);
            if (it != dp.index_.end()) {
              di.call_kind = CallKind::User;
              di.callee = static_cast<int>(it->second);
            } else {
              // Neither intrinsic nor linked: surface through the
              // unresolved() diagnostics (deduplicated, first-seen
              // order) and trap with the name if ever reached.
              di.call_kind = CallKind::Unresolved;
              int uidx = -1;
              for (std::size_t u = 0; u < dp.unresolved_names_.size(); ++u) {
                if (dp.unresolved_names_[u] == inst.callee) {
                  uidx = static_cast<int>(u);
                  break;
                }
              }
              if (uidx < 0) {
                uidx = static_cast<int>(dp.unresolved_names_.size());
                dp.unresolved_names_.push_back(inst.callee);
              }
              di.callee = uidx;
            }
          }
        }
        db.static_cost_units += units;
        df.insts.push_back(di);
        ++db.count;
        if (is_terminator(inst.op)) {
          db.has_terminator = 1;
          break;
        }
      }
    }

    recognize_fused_loops(df);
  }
  return dp;
}

namespace {

struct Slot {
  double f[kMaxLanes] = {0};
  long long i[kMaxLanes] = {0};
  int lanes = 1;
};

struct Buffer {
  std::vector<double>* f = nullptr;
  std::vector<long long>* i = nullptr;
};

struct Cost {
  long long serial_units = 0;
  long long parallel_units = 0;
  double gpu = 0.0;
  long long fork_joins = 0;
  long long instructions = 0;
};

// Register-file arena: one frame per call depth, reused across calls and
// across runs on this thread (the hot portability-sweep pattern).
struct FrameArena {
  std::vector<Slot> frames[kMaxDepth + 1];

  Slot* acquire(int depth, int num_regs) {
    auto& frame = frames[depth];
    if (static_cast<int>(frame.size()) < num_regs) {
      frame.resize(static_cast<std::size_t>(num_regs));
    }
    std::fill_n(frame.data(), num_regs, Slot{});
    return frame.data();
  }
};

thread_local FrameArena g_arena;

// Chunk arena for the batch tier, likewise per-thread and grow-only.
thread_local BatchArena g_batch_arena;

class DecodedMachine {
public:
  DecodedMachine(const DecodedProgram& program, const NodeSpec& node,
                 const ExecutorOptions& options, Workload& workload)
      : program_(program), node_(node), options_(options) {
    if (node_.gpu) {
      gpu_launch_units_ = cycles_to_units(node_.gpu->launch_overhead_cycles);
      gpu_speedup_ = node_.gpu->speedup_vs_core;
    }
    buffers_.reserve(workload.f64_buffers.size() + workload.i64_buffers.size());
    for (auto& [name, vec] : workload.f64_buffers) {
      handles_.emplace(name, static_cast<int>(buffers_.size()));
      buffers_.push_back({&vec, nullptr});
    }
    for (auto& [name, vec] : workload.i64_buffers) {
      handles_.emplace(name, static_cast<int>(buffers_.size()));
      buffers_.push_back({nullptr, &vec});
    }
  }

  RunResult run(const Workload& workload) {
    RunResult result;
    const DecodedFunction* entry = program_.find(workload.entry);
    if (!entry) {
      result.error = "entry function not found: " + workload.entry;
      return result;
    }
    if (entry->param_regs.size() != workload.args.size()) {
      result.error = "entry argument count mismatch";
      return result;
    }
    std::vector<Slot> args(workload.args.size());
    for (std::size_t k = 0; k < workload.args.size(); ++k) {
      const auto& arg = workload.args[k];
      switch (arg.kind) {
        case Workload::Arg::Kind::F64:
          args[k].f[0] = arg.f;
          break;
        case Workload::Arg::Kind::I64:
          args[k].i[0] = arg.i;
          break;
        case Workload::Arg::Kind::BufF64:
        case Workload::Arg::Kind::BufI64: {
          const auto it = handles_.find(arg.buffer);
          if (it == handles_.end()) {
            result.error = "unknown buffer: " + arg.buffer;
            return result;
          }
          args[k].i[0] = it->second;
          break;
        }
      }
    }

    Cost cost;
    Slot ret;
    try {
      ret = exec_function(*entry, args.data(), args.size(),
                          /*in_parallel=*/false, cost);
    } catch (const BudgetExceeded& e) {
      // The retired count at the trap is observable (and pinned by the
      // equivalence tests): exactly what the reference retires.
      result.error = e.what();
      result.instructions = e.instructions;
      return result;
    } catch (const std::runtime_error& e) {
      result.error = e.what();
      return result;
    }

    result.ok = true;
    result.ret_f64 = ret.f[0];
    result.ret_i64 = ret.i[0];
    result.cycles_serial = units_to_cycles(cost.serial_units);
    result.cycles_parallel = units_to_cycles(cost.parallel_units);
    result.cycles_gpu = cost.gpu;
    result.fork_joins = cost.fork_joins;
    result.instructions = cost.instructions;
    return result;
  }

private:
  [[noreturn]] void trap(const std::string& msg) {
    throw std::runtime_error("vm trap: " + msg);
  }

  Buffer& buffer(int handle) {
    if (handle < 0 || handle >= static_cast<int>(buffers_.size())) {
      trap("invalid buffer handle");
    }
    return buffers_[static_cast<std::size_t>(handle)];
  }

  // The hot loop's two functions start on a 64-byte boundary, so their
  // speed does not move with the size of the code linked before them.
  [[gnu::aligned(64)]] Slot exec_function(const DecodedFunction& fn,
                                          const Slot* args, std::size_t nargs,
                                          bool in_parallel, Cost& cost) {
    if (++depth_ > kMaxDepth) trap("call stack overflow");
    Slot* regs = g_arena.acquire(depth_, fn.num_regs);
    const std::size_t nparams = std::min(nargs, fn.param_regs.size());
    for (std::size_t p = 0; p < nparams; ++p) {
      regs[fn.param_regs[p]] = args[p];
    }

    const int nblocks = static_cast<int>(fn.blocks.size());
    int block_id = 0;
    int prev_block = -1;

    while (true) {
      if (block_id < 0 || block_id >= nblocks) {
        trap("branch out of range in " + fn.name);
      }
      const DecodedBlock& block =
          fn.blocks[static_cast<std::size_t>(block_id)];
      const bool parallel_here = in_parallel || block.parallel != 0;

      // Fork/join accounting: entering a parallel loop header from
      // outside the loop (only the outermost parallel region counts).
      if (!in_parallel && block.loops_end != block.loops_begin) {
        for (int li = block.loops_begin; li < block.loops_end; ++li) {
          const DecodedLoop& loop =
              fn.header_loops[static_cast<std::size_t>(li)];
          const bool from_inside =
              prev_block >= 0 &&
              loop.member[static_cast<std::size_t>(prev_block)] != 0;
          if (!from_inside) ++cost.fork_joins;
        }
      }

      // Batch tier: when this block heads a fused loop and the runtime
      // preconditions hold, run all but the final iteration as one
      // superinstruction, then resume dispatch at the header as if the
      // latch had just branched back — the final iteration and the exit
      // evaluation of the header are interpreted normally, which
      // restores every loop temporary bit-exactly.
      if (options_.batch_superinstructions && block.fused >= 0) {
        const FusedLoopPlan& plan =
            fn.fused_loops[static_cast<std::size_t>(block.fused)];
        if (try_fused(plan, regs, in_parallel, cost)) {
          prev_block = plan.latch_block;
          continue;
        }
      }

      Slot ret;
      bool returned = false;
      int next_block;
      int overrun_at = -1;
      if (block.count <= options_.max_instructions - cost.instructions) {
        // Folded fast path: the whole block fits under the remaining
        // budget, so accounting stays one add per block traversal.
        cost.instructions += block.count;
        if (parallel_here) {
          cost.parallel_units += block.static_cost_units;
        } else {
          cost.serial_units += block.static_cost_units;
        }
        next_block = exec_block<false>(fn, block, 0, regs, parallel_here,
                                       cost, ret, returned, overrun_at);
        if (overrun_at >= 0) {
          // A callee's retired instructions merged into this frame
          // mid-block and crossed the budget. Un-count the instructions
          // that never ran and finish the block per-op: the reference
          // traps within this tail, at the exact instruction the per-op
          // check reproduces.
          cost.instructions -= block.count - overrun_at;
          next_block = exec_block<true>(fn, block, overrun_at, regs,
                                        parallel_here, cost, ret, returned,
                                        overrun_at);
        }
      } else {
        // Near the budget boundary: per-op accounting reproduces the
        // reference interpreter's trap point exactly (see decoded.hpp).
        next_block = exec_block<true>(fn, block, 0, regs, parallel_here,
                                      cost, ret, returned, overrun_at);
      }
      if (returned) {
        --depth_;
        return ret;
      }
      if (next_block < 0) {
        trap("block fell through without terminator in " + fn.name);
      }
      prev_block = block_id;
      block_id = next_block;
    }
  }

  // One block's instruction loop, shared by both accounting modes. The
  // template parameter selects folded (false) or per-op (true) budget
  // and unit accounting, so the fast path carries no boundary branches.
  // `overrun_at` is set (folded mode only) when a callee's merged
  // instruction count crossed the budget mid-block; the dispatcher then
  // resumes this block per-op from that index.
  template <bool kPerOp>
  [[gnu::aligned(64)]] int exec_block(const DecodedFunction& fn,
                                      const DecodedBlock& block, int start,
                                      Slot* regs, bool parallel_here,
                                      Cost& cost, Slot& ret, bool& returned,
                                      int& overrun_at) {
      const DecodedInst* insts = fn.insts.data() + block.first;
      const int count = block.count;
      int next_block = -1;

      for (int k = start; k < count; ++k) {
        const DecodedInst& inst = insts[k];
        if constexpr (kPerOp) {
          // Mirrors the reference interpreter: count, check, then
          // execute — the trapping instruction retires in the count but
          // has no side effects.
          if (++cost.instructions > options_.max_instructions) {
            throw BudgetExceeded(fn.name, cost.instructions);
          }
        }
        const int w = inst.width;

        const auto lane_f = [&](int reg, int lane) -> double {
          const Slot& s = regs[reg];
          return s.lanes == 1 ? s.f[0] : s.f[lane];
        };
        const auto lane_i = [&](int reg, int lane) -> long long {
          const Slot& s = regs[reg];
          return s.lanes == 1 ? s.i[0] : s.i[lane];
        };
        // Width-specialized register writes: only the computed lanes of
        // the computed bank are stored (plus i[0] := 0 on scalar float
        // results, which keeps ret_i64 exact). Lanes beyond `lanes` and
        // the other bank of a typed register are never read by well-typed
        // IR, so skipping the seed's full 136-byte zero+copy per
        // instruction is unobservable — the equivalence test asserts this
        // over the real workloads.
        const auto write_f = [&](const double* v) {
          if (inst.dst < 0) return;
          Slot& d = regs[inst.dst];
          for (int l = 0; l < w; ++l) d.f[l] = v[l];
          if (w == 1) d.i[0] = 0;
          d.lanes = w;
        };
        const auto write_i = [&](const long long* v) {
          if (inst.dst < 0) return;
          Slot& d = regs[inst.dst];
          for (int l = 0; l < w; ++l) d.i[l] = v[l];
          if (w == 1) d.f[0] = 0.0;
          d.lanes = w;
        };
        double tf[kMaxLanes];
        long long ti[kMaxLanes];

        switch (inst.op) {
          case Opcode::ConstF:
            for (int l = 0; l < w; ++l) tf[l] = inst.fimm;
            write_f(tf);
            break;
          case Opcode::ConstI:
            for (int l = 0; l < w; ++l) ti[l] = inst.iimm;
            write_i(ti);
            break;
          case Opcode::Mov:
            if (inst.dst >= 0) {
              for (int l = 0; l < w; ++l) {
                tf[l] = lane_f(inst.a, l);
                ti[l] = lane_i(inst.a, l);
              }
              Slot& d = regs[inst.dst];
              for (int l = 0; l < w; ++l) {
                d.f[l] = tf[l];
                d.i[l] = ti[l];
              }
              d.lanes = w;
            }
            break;
          case Opcode::FAdd:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) + lane_f(inst.b, l));
            write_f(tf);
            break;
          case Opcode::FSub:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) - lane_f(inst.b, l));
            write_f(tf);
            break;
          case Opcode::FMul:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) * lane_f(inst.b, l));
            write_f(tf);
            break;
          case Opcode::FDiv:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) / lane_f(inst.b, l));
            write_f(tf);
            break;
          case Opcode::FNeg:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(-lane_f(inst.a, l));
            write_f(tf);
            break;
          case Opcode::Fma:
            for (int l = 0; l < w; ++l)
              tf[l] = canonicalize_nan(lane_f(inst.a, l) * lane_f(inst.b, l) +
                                       lane_f(inst.c, l));
            write_f(tf);
            break;
          case Opcode::IAdd:
            for (int l = 0; l < w; ++l)
              ti[l] = lane_i(inst.a, l) + lane_i(inst.b, l);
            write_i(ti);
            break;
          case Opcode::ISub:
            for (int l = 0; l < w; ++l)
              ti[l] = lane_i(inst.a, l) - lane_i(inst.b, l);
            write_i(ti);
            break;
          case Opcode::IMul:
            for (int l = 0; l < w; ++l)
              ti[l] = lane_i(inst.a, l) * lane_i(inst.b, l);
            write_i(ti);
            break;
          case Opcode::IDiv:
            for (int l = 0; l < w; ++l) {
              const long long d = lane_i(inst.b, l);
              if (d == 0) trap("integer division by zero in " + fn.name);
              ti[l] = lane_i(inst.a, l) / d;
            }
            write_i(ti);
            break;
          case Opcode::IMod:
            for (int l = 0; l < w; ++l) {
              const long long d = lane_i(inst.b, l);
              if (d == 0) trap("integer modulo by zero in " + fn.name);
              ti[l] = lane_i(inst.a, l) % d;
            }
            write_i(ti);
            break;
          case Opcode::INeg:
            for (int l = 0; l < w; ++l) ti[l] = -lane_i(inst.a, l);
            write_i(ti);
            break;
          case Opcode::ICmp:
            for (int l = 0; l < w; ++l) {
              const long long a = lane_i(inst.a, l);
              const long long b = lane_i(inst.b, l);
              bool v = false;
              switch (inst.pred) {
                case CmpPred::LT: v = a < b; break;
                case CmpPred::LE: v = a <= b; break;
                case CmpPred::GT: v = a > b; break;
                case CmpPred::GE: v = a >= b; break;
                case CmpPred::EQ: v = a == b; break;
                case CmpPred::NE: v = a != b; break;
              }
              ti[l] = v ? 1 : 0;
            }
            write_i(ti);
            break;
          case Opcode::FCmp:
            for (int l = 0; l < w; ++l) {
              const double a = lane_f(inst.a, l);
              const double b = lane_f(inst.b, l);
              bool v = false;
              switch (inst.pred) {
                case CmpPred::LT: v = a < b; break;
                case CmpPred::LE: v = a <= b; break;
                case CmpPred::GT: v = a > b; break;
                case CmpPred::GE: v = a >= b; break;
                case CmpPred::EQ: v = a == b; break;
                case CmpPred::NE: v = a != b; break;
              }
              ti[l] = v ? 1 : 0;
            }
            write_i(ti);
            break;
          case Opcode::LAnd:
            for (int l = 0; l < w; ++l)
              ti[l] = (lane_i(inst.a, l) != 0 && lane_i(inst.b, l) != 0);
            write_i(ti);
            break;
          case Opcode::LOr:
            for (int l = 0; l < w; ++l)
              ti[l] = (lane_i(inst.a, l) != 0 || lane_i(inst.b, l) != 0);
            write_i(ti);
            break;
          case Opcode::LNot:
            for (int l = 0; l < w; ++l) ti[l] = lane_i(inst.a, l) == 0;
            write_i(ti);
            break;
          case Opcode::SiToFp:
            for (int l = 0; l < w; ++l)
              tf[l] = static_cast<double>(lane_i(inst.a, l));
            write_f(tf);
            break;
          case Opcode::FpToSi:
            for (int l = 0; l < w; ++l)
              ti[l] = static_cast<long long>(lane_f(inst.a, l));
            write_i(ti);
            break;
          case Opcode::LoadF: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.f) trap("float load from int buffer");
            const long long base = lane_i(inst.b, 0);
            const auto size = static_cast<long long>(buf.f->size());
            if (w == 1) {
              if (base < 0 || base >= size) {
                trap("out-of-bounds load in " + fn.name);
              }
              tf[0] = (*buf.f)[static_cast<std::size_t>(base)];
            } else {
              // Contiguous vector access: one range check for all lanes.
              if (base < 0 || base + w > size) {
                trap("out-of-bounds load in " + fn.name);
              }
              const double* p = buf.f->data() + base;
              for (int l = 0; l < w; ++l) tf[l] = p[l];
            }
            write_f(tf);
            break;
          }
          case Opcode::LoadI: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.i) trap("int load from float buffer");
            const long long base = lane_i(inst.b, 0);
            const auto size = static_cast<long long>(buf.i->size());
            if (w == 1) {
              if (base < 0 || base >= size) {
                trap("out-of-bounds load in " + fn.name);
              }
              ti[0] = (*buf.i)[static_cast<std::size_t>(base)];
            } else {
              if (base < 0 || base + w > size) {
                trap("out-of-bounds load in " + fn.name);
              }
              const long long* p = buf.i->data() + base;
              for (int l = 0; l < w; ++l) ti[l] = p[l];
            }
            write_i(ti);
            break;
          }
          case Opcode::StoreF: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.f) trap("float store to int buffer");
            const long long base = lane_i(inst.b, 0);
            const auto size = static_cast<long long>(buf.f->size());
            if (w == 1) {
              if (base < 0 || base >= size) {
                trap("out-of-bounds store in " + fn.name);
              }
              (*buf.f)[static_cast<std::size_t>(base)] = lane_f(inst.c, 0);
            } else {
              if (base < 0 || base + w > size) {
                trap("out-of-bounds store in " + fn.name);
              }
              double* p = buf.f->data() + base;
              for (int l = 0; l < w; ++l) p[l] = lane_f(inst.c, l);
            }
            break;
          }
          case Opcode::StoreI: {
            const Buffer& buf = buffer(static_cast<int>(lane_i(inst.a, 0)));
            if (!buf.i) trap("int store to float buffer");
            const long long base = lane_i(inst.b, 0);
            const auto size = static_cast<long long>(buf.i->size());
            if (w == 1) {
              if (base < 0 || base >= size) {
                trap("out-of-bounds store in " + fn.name);
              }
              (*buf.i)[static_cast<std::size_t>(base)] = lane_i(inst.c, 0);
            } else {
              if (base < 0 || base + w > size) {
                trap("out-of-bounds store in " + fn.name);
              }
              long long* p = buf.i->data() + base;
              for (int l = 0; l < w; ++l) p[l] = lane_i(inst.c, l);
            }
            break;
          }
          case Opcode::VSplat:
            if (inst.dst >= 0) {
              const double f0 = lane_f(inst.a, 0);
              const long long i0 = lane_i(inst.a, 0);
              Slot& d = regs[inst.dst];
              for (int l = 0; l < w; ++l) {
                d.f[l] = f0;
                d.i[l] = i0;
              }
              d.lanes = w;
            }
            break;
          case Opcode::HReduceAdd: {
            const Slot& v = regs[inst.a];
            double sum = 0.0;
            for (int l = 0; l < v.lanes; ++l)
              sum = canonicalize_nan(sum + v.f[l]);
            if (inst.dst >= 0) {
              Slot& d = regs[inst.dst];
              d.f[0] = sum;
              d.i[0] = 0;
              d.lanes = 1;
            }
            break;
          }
          case Opcode::Call: {
            const Slot out = exec_call(fn, inst, regs, parallel_here, cost);
            // Full-slot write: call results carry seed-exact zeros.
            if (inst.dst >= 0) regs[inst.dst] = out;
            if constexpr (!kPerOp) {
              if (cost.instructions > options_.max_instructions &&
                  k + 1 < count) {
                // Callee counts pushed this frame over budget mid-block;
                // hand the tail back for per-op execution.
                overrun_at = k + 1;
                return -1;
              }
            }
            break;
          }
          case Opcode::Br:
            next_block = inst.t1;
            break;
          case Opcode::CBr:
            next_block = lane_i(inst.a, 0) != 0 ? inst.t1 : inst.t2;
            break;
          case Opcode::Ret:
            if (inst.a >= 0) ret = regs[inst.a];
            returned = true;
            break;
        }

        if constexpr (kPerOp) {
          // Unit accounting after execution, like the reference: the
          // retiring instruction's units land before control transfers.
          const long long units = inst.call_kind == CallKind::IntrinsicCall
                                      ? intrinsic_cost_units(inst.intrinsic)
                                      : op_cost_units(inst.op);
          if (parallel_here) {
            cost.parallel_units += units;
          } else {
            cost.serial_units += units;
          }
        }
        if (returned || next_block >= 0) break;
      }

      return next_block;
  }

  // Engage a fused loop at its header, before the header executes. Runs
  // k = min(trips - 1, memory clamp, budget clamp) iterations natively
  // and injects only the architectural effects interpretation would
  // have produced: the induction register after k latches, the
  // accumulator lanes, and the stream buffers. Returns false (engaging
  // nothing) whenever any precondition fails — out-of-range handles,
  // short buffers, exhausted budget — so the interpreter produces the
  // identical trap at the identical instruction.
  bool try_fused(const FusedLoopPlan& p, Slot* regs, bool in_parallel,
                 Cost& cost) {
    if (!in_parallel && !p.safe_outside_parallel) return false;
    constexpr long long kIndCap = 1LL << 60;  // keeps all index math exact
    const long long ind0 = regs[p.ind_reg].i[0];
    const long long bound = regs[p.bound_reg].i[0];
    if (ind0 < 0 || ind0 > kIndCap || bound > kIndCap) return false;
    long long last = bound;  // largest ind + offset satisfying the test
    if (p.pred == CmpPred::LT) {
      if (bound == std::numeric_limits<long long>::min()) return false;
      last = bound - 1;
    }
    if (last < p.bound_offset) return false;
    const long long hi = last - p.bound_offset;
    if (ind0 > hi) return false;
    const long long trips = (hi - ind0) / p.step + 1;
    if (trips < 2) return false;  // the final iteration stays interpreted
    long long k = trips - 1;
    // Cap one engagement so k * units can never overflow; the header
    // re-engages for the remainder.
    k = std::min(k, 1LL << 40);

    const long long room = options_.max_instructions - cost.instructions;
    if (room < p.iter_insts) return false;
    k = std::min(k, room / p.iter_insts);

    BatchBinding bind;
    const int width = p.width;
    const int nloads = static_cast<int>(p.loads.size());
    const int nstores = static_cast<int>(p.stores.size());
    int store_handles[kMaxBatchStores] = {-1, -1};
    // Resolve a stream and clamp k to its in-bounds iterations; the
    // iteration that would trap is left to the interpreter.
    const auto resolve_stream = [&](int ptr_reg,
                                    int& handle_out) -> std::vector<double>* {
      const long long handle = regs[ptr_reg].i[0];
      if (handle < 0 ||
          handle >= static_cast<long long>(buffers_.size())) {
        return nullptr;
      }
      Buffer& buf = buffers_[static_cast<std::size_t>(handle)];
      if (!buf.f) return nullptr;
      const auto size = static_cast<long long>(buf.f->size());
      if (size < width || ind0 > size - width) return nullptr;
      k = std::min(k, (size - width - ind0) / p.step + 1);
      handle_out = static_cast<int>(handle);
      return buf.f;
    };
    for (int s = 0; s < nstores; ++s) {
      int handle = -1;
      std::vector<double>* vec = resolve_stream(p.stores[s].ptr_reg, handle);
      if (!vec) return false;
      bind.store_base[s] = vec->data() + ind0;
      store_handles[s] = handle;
    }
    for (int s = 0; s < nloads; ++s) {
      int handle = -1;
      std::vector<double>* vec = resolve_stream(p.loads[s].ptr_reg, handle);
      if (!vec) return false;
      bind.load_base[s] = vec->data() + ind0;
      for (int t = 0; t < nstores; ++t) {
        if (store_handles[t] == handle) {
          bind.load_copy[s] = true;
          break;
        }
      }
    }
    if (k < 1) return false;

    // Snapshot invariant and accumulator lanes with the interpreter's
    // broadcast rule (lanes == 1 reads lane 0 for every lane).
    const auto lane_f = [&](int reg, int lane) -> double {
      const Slot& s = regs[reg];
      return s.lanes == 1 ? s.f[0] : s.f[lane];
    };
    for (std::size_t j = 0; j < p.inv_regs.size(); ++j) {
      for (int l = 0; l < width; ++l) {
        bind.inv_lanes[j][l] = lane_f(p.inv_regs[j], l);
      }
    }
    if (p.acc_reg >= 0) {
      for (int l = 0; l < width; ++l) bind.acc[l] = lane_f(p.acc_reg, l);
    }

    run_fused(p, bind, g_batch_arena, k);

    // Retire exactly what per-instruction interpretation would have.
    cost.instructions += k * p.iter_insts;
    if (in_parallel) {
      cost.parallel_units += k * (p.iter_serial_units + p.iter_parallel_units);
    } else {
      cost.serial_units += k * p.iter_serial_units;
      cost.parallel_units += k * p.iter_parallel_units;
    }

    // Architectural state after k latches: the induction register holds
    // the scalar IAdd result (f lane zeroed by the integer write), and
    // the accumulator carries width lanes. Every other register the
    // loop writes is restored by the interpreted final iteration.
    Slot& ind = regs[p.ind_reg];
    ind.i[0] = ind0 + k * p.step;
    ind.f[0] = 0.0;
    ind.lanes = 1;
    if (p.acc_reg >= 0) {
      Slot& acc = regs[p.acc_reg];
      for (int l = 0; l < width; ++l) acc.f[l] = bind.acc[l];
      acc.lanes = width;
    }
    return true;
  }

  Slot exec_call(const DecodedFunction& caller, const DecodedInst& inst,
                 Slot* regs, bool parallel_here, Cost& cost) {
    const int w = inst.width;
    Slot out;
    out.lanes = w;
    if (inst.call_kind == CallKind::IntrinsicCall) {
      const int argc = inst.args_end - inst.args_begin;
      const int a0 =
          argc > 0 ? caller.call_args[static_cast<std::size_t>(inst.args_begin)]
                   : -1;
      const int a1 =
          argc > 1
              ? caller.call_args[static_cast<std::size_t>(inst.args_begin + 1)]
              : -1;
      const auto lane_f = [&](int reg, int lane) -> double {
        const Slot& s = regs[reg];
        return s.lanes == 1 ? s.f[0] : s.f[lane];
      };
      for (int l = 0; l < w; ++l) {
        const double x = a0 >= 0 ? lane_f(a0, l) : 0.0;
        const double y = a1 >= 0 ? lane_f(a1, l) : 0.0;
        double v = 0.0;
        switch (inst.intrinsic) {
          case Intrinsic::Sqrt: v = std::sqrt(x); break;
          case Intrinsic::Rsqrt: v = 1.0 / std::sqrt(x); break;
          case Intrinsic::Exp: v = std::exp(x); break;
          case Intrinsic::Fabs: v = std::fabs(x); break;
          case Intrinsic::Floor: v = std::floor(x); break;
          case Intrinsic::Fmin: v = vm_fmin(x, y); break;
          case Intrinsic::Fmax: v = vm_fmax(x, y); break;
          case Intrinsic::Pow2: v = x * x; break;
        }
        out.f[l] = canonicalize_nan(v);
      }
      return out;
    }
    if (inst.call_kind == CallKind::Unresolved) {
      trap("unresolved call: " + program_.unresolved_name(inst.callee));
    }

    const DecodedFunction& callee =
        program_.functions()[static_cast<std::size_t>(inst.callee)];
    // Gather arguments into a stack buffer when they fit (the common
    // case; the seed allocated a heap vector per call) and fall back to
    // the heap for very wide signatures.
    constexpr int kInlineArgs = 24;
    Slot inline_args[kInlineArgs];
    std::vector<Slot> heap_args;
    const int argc = inst.args_end - inst.args_begin;
    Slot* call_args = inline_args;
    if (argc > kInlineArgs) {
      heap_args.resize(static_cast<std::size_t>(argc));
      call_args = heap_args.data();
    }
    for (int k = 0; k < argc; ++k) {
      call_args[k] =
          regs[caller.call_args[static_cast<std::size_t>(inst.args_begin + k)]];
    }

    if (callee.gpu_kernel) {
      if (!node_.gpu) {
        trap("GPU kernel '" + callee.name +
             "' invoked on a node without a GPU");
      }
      Cost child;
      const Slot r = exec_function(callee, call_args,
                                   static_cast<std::size_t>(argc),
                                   /*in_parallel=*/false, child);
      // All device cycles run at GPU throughput; host pays the launch
      // overhead.
      cost.gpu += gpu_offload_cycles(child.serial_units, child.parallel_units,
                                     child.gpu, gpu_speedup_);
      if (parallel_here) {
        cost.parallel_units += gpu_launch_units_;
      } else {
        cost.serial_units += gpu_launch_units_;
      }
      cost.instructions += child.instructions;
      out = r;
      out.lanes = 1;
      return out;
    }

    Cost child;
    const Slot r = exec_function(callee, call_args,
                                 static_cast<std::size_t>(argc),
                                 parallel_here, child);
    if (parallel_here) {
      // Entire callee executes inside the parallel region.
      cost.parallel_units += child.serial_units + child.parallel_units;
    } else {
      cost.serial_units += child.serial_units;
      cost.parallel_units += child.parallel_units;
      cost.fork_joins += child.fork_joins;
    }
    cost.gpu += child.gpu;
    cost.instructions += child.instructions;
    out = r;
    out.lanes = 1;
    return out;
  }

  const DecodedProgram& program_;
  const NodeSpec& node_;
  const ExecutorOptions& options_;
  std::vector<Buffer> buffers_;
  std::unordered_map<std::string, int> handles_;
  long long gpu_launch_units_ = 0;
  double gpu_speedup_ = 1.0;
  int depth_ = 0;
};

}  // namespace

RunResult run_decoded(const DecodedProgram& program, const NodeSpec& node,
                      const ExecutorOptions& options, Workload& workload) {
  DecodedMachine machine(program, node, options, workload);
  return machine.run(workload);
}

}  // namespace xaas::vm
