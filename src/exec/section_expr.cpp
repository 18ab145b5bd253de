#include "exec/section_expr.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt {

SecExpr SecExpr::section(const DistArray& array,
                         std::vector<Triplet> section) {
  array.domain().validate_section(section);
  auto n = std::make_shared<Node>();
  n->op = Op::kLeaf;
  n->array = array.id();
  n->bytes = elem_bytes(array.type());
  n->domain = array.domain();
  n->section = std::move(section);
  return SecExpr(std::move(n));
}

SecExpr SecExpr::whole(const DistArray& array) {
  return section(array, array.domain().dims());
}

SecExpr SecExpr::constant(double value) {
  auto n = std::make_shared<Node>();
  n->op = Op::kConst;
  n->value = value;
  return SecExpr(std::move(n));
}

SecExpr SecExpr::binary(Op op, SecExpr a, SecExpr b) {
  auto n = std::make_shared<Node>();
  n->op = op;
  n->lhs = a.node_;
  n->rhs = b.node_;
  return SecExpr(std::move(n));
}

void SecExpr::collect_shape(const Node& n, std::vector<Extent>& shape,
                            bool& seen) {
  if (n.op == Op::kLeaf) {
    // Fortran conformance ignores dimensions of extent 1 contributed by
    // scalar subscripts: D(:,j) conforms with A(:). Shapes are therefore
    // compared squeezed (the same rule assign and copy_section apply).
    std::vector<Extent> mine = squeezed_shape(n.section);
    if (!seen) {
      shape = mine;
      seen = true;
    } else if (shape != mine) {
      throw ConformanceError(
          "array sections in one expression do not conform in shape");
    }
    return;
  }
  if (n.lhs) collect_shape(*n.lhs, shape, seen);
  if (n.rhs) collect_shape(*n.rhs, shape, seen);
}

std::vector<Extent> SecExpr::shape() const {
  std::vector<Extent> shape;
  bool seen = false;
  collect_shape(*node_, shape, seen);
  return shape;
}

Extent SecExpr::count_flops(const Node& n) {
  switch (n.op) {
    case Op::kLeaf:
    case Op::kConst:
      return 0;
    default:
      return 1 + count_flops(*n.lhs) + count_flops(*n.rhs);
  }
}

Extent SecExpr::flops_per_element() const { return count_flops(*node_); }

std::vector<SecLeaf> SecExpr::leaves() const {
  std::vector<SecLeaf> out;
  collect_leaves(*node_, out);
  return out;
}

void SecExpr::collect_leaves(const Node& n, std::vector<SecLeaf>& out) {
  if (n.op == Op::kLeaf) {
    out.push_back(SecLeaf{n.array, n.bytes, &n.domain, &n.section});
    return;
  }
  if (n.lhs) collect_leaves(*n.lhs, out);
  if (n.rhs) collect_leaves(*n.rhs, out);
}

double SecExpr::eval_node(const Node& n, const ProgramState& state,
                          const IndexTuple& pos) {
  switch (n.op) {
    case Op::kConst:
      return n.value;
    case Op::kLeaf: {
      // `pos` is the squeezed position (unit dimensions dropped); expand it
      // to this leaf's rank by pinning unit dimensions at position 1.
      IndexTuple full_pos;
      full_pos.resize(n.section.size());
      std::size_t consumed = 0;
      for (std::size_t d = 0; d < n.section.size(); ++d) {
        full_pos[d] = n.section[d].size() == 1 ? 1 : pos[consumed++];
      }
      IndexTuple parent = n.domain.section_parent_index(n.section, full_pos);
      return state.value(n.array, parent);
    }
    case Op::kAdd:
      return eval_node(*n.lhs, state, pos) + eval_node(*n.rhs, state, pos);
    case Op::kSub:
      return eval_node(*n.lhs, state, pos) - eval_node(*n.rhs, state, pos);
    case Op::kMul:
      return eval_node(*n.lhs, state, pos) * eval_node(*n.rhs, state, pos);
    case Op::kDiv:
      return eval_node(*n.lhs, state, pos) / eval_node(*n.rhs, state, pos);
  }
  throw InternalError("unreachable section-expression op");
}

double SecExpr::eval_serial(const ProgramState& state,
                            const IndexTuple& pos) const {
  return eval_node(*node_, state, pos);
}

// --- SecProgram: the segment-vectorized engine ------------------------------

void SecExpr::compile_node(const Node& n, SecProgram& prog, int& stack) {
  switch (n.op) {
    case Op::kConst:
      prog.code_.push_back({SecProgram::OpCode::kConst, -1, n.value});
      prog.depth_ = std::max(prog.depth_, ++stack);
      return;
    case Op::kLeaf: {
      SecProgram::Inst inst;
      inst.op = SecProgram::OpCode::kLeaf;
      inst.leaf = static_cast<int>(prog.leaves_.size());
      prog.leaves_.push_back(SecLeaf{n.array, n.bytes, &n.domain, &n.section});
      SecProgram::LeafPlan plan;
      plan.segments = segment_list(n.domain, n.section);
      for (const FlatSegment& s : plan.segments) {
        plan.size += s.count;
        plan.bound = std::max(
            plan.bound, 1 + std::max(s.base, s.base + (s.count - 1) * s.stride));
      }
      prog.plans_.push_back(std::move(plan));
      prog.code_.push_back(inst);
      prog.depth_ = std::max(prog.depth_, ++stack);
      return;
    }
    default:
      break;
  }
  // Binary node. A constant operand folds into a fused immediate op so no
  // register is spent splatting it — x*0.25 is one multiply pass. The
  // non-commutative reversed forms (c - x, c / x) get their own opcodes;
  // IEEE semantics are exactly eval_node's (no reassociation, no
  // reciprocal tricks), which the differential tests assert.
  const bool lhs_const = n.lhs->op == Op::kConst;
  const bool rhs_const = n.rhs->op == Op::kConst;
  using OpCode = SecProgram::OpCode;
  if (rhs_const && !lhs_const) {
    compile_node(*n.lhs, prog, stack);
    OpCode op = OpCode::kAddC;
    switch (n.op) {
      case Op::kAdd: op = OpCode::kAddC; break;
      case Op::kSub: op = OpCode::kSubC; break;
      case Op::kMul: op = OpCode::kMulC; break;
      case Op::kDiv: op = OpCode::kDivC; break;
      default: throw InternalError("unreachable section-expression op");
    }
    prog.code_.push_back({op, -1, n.rhs->value});
    return;
  }
  if (lhs_const && !rhs_const) {
    compile_node(*n.rhs, prog, stack);
    OpCode op = OpCode::kAddC;
    switch (n.op) {
      case Op::kAdd: op = OpCode::kAddC; break;
      case Op::kSub: op = OpCode::kRSubC; break;
      case Op::kMul: op = OpCode::kMulC; break;
      case Op::kDiv: op = OpCode::kRDivC; break;
      default: throw InternalError("unreachable section-expression op");
    }
    prog.code_.push_back({op, -1, n.lhs->value});
    return;
  }
  compile_node(*n.lhs, prog, stack);
  compile_node(*n.rhs, prog, stack);
  OpCode op = OpCode::kAdd;
  switch (n.op) {
    case Op::kAdd: op = OpCode::kAdd; break;
    case Op::kSub: op = OpCode::kSub; break;
    case Op::kMul: op = OpCode::kMul; break;
    case Op::kDiv: op = OpCode::kDiv; break;
    default: throw InternalError("unreachable section-expression op");
  }
  prog.code_.push_back({op, -1, 0.0});
  --stack;
}

const SecProgram& SecExpr::program() const {
  // Lock-free once-publication (the memo-publication rule of the
  // distribution payload caches): concurrent first calls may each compile
  // a program, but exactly one wins the CAS into the shared root-node slot
  // and every caller returns the winner — so two sessions faulting the
  // same expression's program race benignly. A published program is never
  // replaced (nodes are immutable), so the returned reference stays valid
  // while the expression lives.
  std::shared_ptr<const SecProgram> prog =
      std::atomic_load_explicit(&node_->program, std::memory_order_acquire);
  if (!prog) {
    auto built = std::make_shared<SecProgram>();
    int stack = 0;
    compile_node(*node_, *built, stack);
    std::shared_ptr<const SecProgram> expected;
    prog = std::move(built);
    if (!std::atomic_compare_exchange_strong_explicit(
            &node_->program, &expected, prog, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      prog = std::move(expected);  // another thread published first
    }
  }
  return *prog;
}

// Pinned to a 64-byte boundary: the strided loops below are the hot kernel
// of every warm step, and where unrelated code changes happened to place
// them relative to the fetch lines moved a 256 x 256 Jacobi step by ~35%
// (Intel Xeon, GCC 12.2, -O2).
__attribute__((aligned(64))) void SecProgram::eval_segment(
    const Operand* operands, Extent count, double* out, double* regs) const {
  // Register slot 0 is the output buffer itself, so the final result needs
  // no copy; slots 1.. live in the caller's register file.
  auto slot = [&](int i) { return i == 0 ? out : regs + (i - 1) * count; };
  int top = 0;  // number of live registers
  for (const Inst& inst : code_) {
    switch (inst.op) {
      case OpCode::kConst: {
        double* d = slot(top++);
        for (Extent k = 0; k < count; ++k) d[k] = inst.value;
        break;
      }
      case OpCode::kLeaf: {
        const Operand& o = operands[inst.leaf];
        double* d = slot(top++);
        if (o.stride == 0) {
          const double v = o.ptr[0];
          for (Extent k = 0; k < count; ++k) d[k] = v;
        } else if (o.stride == 1) {
          std::copy_n(o.ptr, static_cast<std::size_t>(count), d);
        } else {
          for (Extent k = 0; k < count; ++k) d[k] = o.ptr[k * o.stride];
        }
        break;
      }
      case OpCode::kAdd: {
        const double* b = slot(--top);
        double* a = slot(top - 1);
        for (Extent k = 0; k < count; ++k) a[k] += b[k];
        break;
      }
      case OpCode::kSub: {
        const double* b = slot(--top);
        double* a = slot(top - 1);
        for (Extent k = 0; k < count; ++k) a[k] -= b[k];
        break;
      }
      case OpCode::kMul: {
        const double* b = slot(--top);
        double* a = slot(top - 1);
        for (Extent k = 0; k < count; ++k) a[k] *= b[k];
        break;
      }
      case OpCode::kDiv: {
        const double* b = slot(--top);
        double* a = slot(top - 1);
        for (Extent k = 0; k < count; ++k) a[k] /= b[k];
        break;
      }
      case OpCode::kAddC: {
        double* a = slot(top - 1);
        const double c = inst.value;
        for (Extent k = 0; k < count; ++k) a[k] += c;
        break;
      }
      case OpCode::kSubC: {
        double* a = slot(top - 1);
        const double c = inst.value;
        for (Extent k = 0; k < count; ++k) a[k] -= c;
        break;
      }
      case OpCode::kMulC: {
        double* a = slot(top - 1);
        const double c = inst.value;
        for (Extent k = 0; k < count; ++k) a[k] *= c;
        break;
      }
      case OpCode::kDivC: {
        double* a = slot(top - 1);
        const double c = inst.value;
        for (Extent k = 0; k < count; ++k) a[k] /= c;
        break;
      }
      case OpCode::kRSubC: {
        double* a = slot(top - 1);
        const double c = inst.value;
        for (Extent k = 0; k < count; ++k) a[k] = c - a[k];
        break;
      }
      case OpCode::kRDivC: {
        double* a = slot(top - 1);
        const double c = inst.value;
        for (Extent k = 0; k < count; ++k) a[k] = c / a[k];
        break;
      }
    }
  }
}

namespace {

/// Chunk size of the whole-statement driver: large enough to amortize the
/// per-chunk cursor work, small enough that depth() registers stay cache
/// resident.
constexpr Extent kEvalChunk = 2048;

struct LeafCursor {
  const double* base = nullptr;
  std::size_t seg = 0;   // index into the plan's segment list
  Extent off = 0;        // elements consumed of the current segment
  bool broadcast = false;
};

}  // namespace

void SecProgram::eval(const ProgramState& state, ScratchArena& arena,
                      Extent total, double* out) const {
  if (total <= 0) return;
  // Inline storage keeps the warm path allocation-free (the ScratchArena
  // contract); expressions rarely have more than a handful of leaves.
  SmallVector<LeafCursor, 8> cursors(leaves_.size(), LeafCursor{});
  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    const LeafPlan& plan = plans_[l];
    LeafCursor& c = cursors[l];
    c.base = state.values_span(leaves_[l].array);
    if (plan.bound > state.values_count(leaves_[l].array)) {
      throw InternalError(
          "section-expression leaf outruns its array's canonical storage");
    }
    c.broadcast = plan.size == 1 && total != 1;
    if (!c.broadcast && plan.size != total) {
      throw InternalError(
          "nonconforming operand segment list in section expression");
    }
  }
  arena.regs.resize(static_cast<std::size_t>(
      std::max(0, depth_ - 1) * kEvalChunk));
  SmallVector<Operand, 8> ops(leaves_.size(), Operand{});
  Extent pos = 0;
  while (pos < total) {
    Extent chunk = std::min(kEvalChunk, total - pos);
    for (std::size_t l = 0; l < leaves_.size(); ++l) {
      LeafCursor& c = cursors[l];
      if (c.broadcast) {
        ops[l] = {c.base + plans_[l].segments.front().base, 0};
        continue;
      }
      const FlatSegment& sg = plans_[l].segments[c.seg];
      ops[l] = {c.base + sg.base + c.off * sg.stride, sg.stride};
      chunk = std::min(chunk, sg.count - c.off);
    }
    eval_segment(ops.data(), chunk, out + pos, arena.regs.data());
    for (std::size_t l = 0; l < leaves_.size(); ++l) {
      LeafCursor& c = cursors[l];
      if (c.broadcast) continue;
      c.off += chunk;
      if (c.off == plans_[l].segments[c.seg].count) {
        ++c.seg;
        c.off = 0;
      }
    }
    pos += chunk;
  }
}

SecExpr operator+(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kAdd, std::move(a), std::move(b));
}
SecExpr operator-(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kSub, std::move(a), std::move(b));
}
SecExpr operator*(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kMul, std::move(a), std::move(b));
}
SecExpr operator/(SecExpr a, SecExpr b) {
  return SecExpr::binary(SecExpr::Op::kDiv, std::move(a), std::move(b));
}
SecExpr operator*(SecExpr a, double b) {
  return std::move(a) * SecExpr::constant(b);
}
SecExpr operator*(double a, SecExpr b) {
  return SecExpr::constant(a) * std::move(b);
}
SecExpr operator+(SecExpr a, double b) {
  return std::move(a) + SecExpr::constant(b);
}

}  // namespace hpfnt
