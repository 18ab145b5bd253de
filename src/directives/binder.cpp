#include "directives/binder.hpp"

#include <algorithm>
#include <limits>

#include "core/align_expr.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt::dir {

namespace {

[[noreturn]] void fail_at(const AstNode& node, const std::string& message) {
  throw DirectiveError(message, node.line, 1);
}

}  // namespace

Binder::Binder(ProcessorSpace& space, DataEnv& env)
    : space_(&space), env_(&env) {}

void Binder::set_scalar(const std::string& name, Index1 value) {
  scalars_[to_upper(name)] = value;
}

bool Binder::has_scalar(const std::string& name) const {
  return scalars_.count(to_upper(name)) != 0;
}

Index1 Binder::scalar(const std::string& name) const {
  auto it = scalars_.find(to_upper(name));
  if (it == scalars_.end()) {
    throw ConformanceError("unknown scalar '" + name + "'");
  }
  return it->second;
}

Index1 Binder::eval(const DirExprPtr& expr) const {
  if (!expr) throw InternalError("null directive expression");
  const DirExpr& e = *expr;
  switch (e.kind) {
    case DirExpr::Kind::kInt:
      return e.value;
    case DirExpr::Kind::kName: {
      auto it = scalars_.find(to_upper(e.name));
      if (it == scalars_.end()) {
        throw DirectiveError(
            cat("unknown scalar '", e.name,
                "' in a specification expression (set it with '", e.name,
                " = <value>')"),
            e.line, e.column);
      }
      return it->second;
    }
    case DirExpr::Kind::kAdd:
      return eval(e.lhs) + eval(e.rhs);
    case DirExpr::Kind::kSub:
      return eval(e.lhs) - eval(e.rhs);
    case DirExpr::Kind::kMul:
      return eval(e.lhs) * eval(e.rhs);
    case DirExpr::Kind::kNeg:
      return -eval(e.lhs);
    case DirExpr::Kind::kCall: {
      const std::string fn = to_upper(e.name);
      if (fn == "MAX" || fn == "MIN") {
        if (e.args.size() < 2) {
          throw DirectiveError(fn + " needs at least two arguments", e.line,
                               e.column);
        }
        Index1 acc = eval(e.args[0]);
        for (std::size_t k = 1; k < e.args.size(); ++k) {
          const Index1 v = eval(e.args[k]);
          acc = fn == "MAX" ? std::max(acc, v) : std::min(acc, v);
        }
        return acc;
      }
      if (fn == "LBOUND" || fn == "UBOUND" || fn == "SIZE") {
        if (e.args.empty() || e.args[0]->kind != DirExpr::Kind::kName) {
          throw DirectiveError(fn + " expects an array name", e.line,
                               e.column);
        }
        const DistArray& array = env_->find(e.args[0]->name);
        const int dim =
            e.args.size() > 1 ? static_cast<int>(eval(e.args[1])) : 1;
        if (dim < 1 || dim > array.rank()) {
          throw DirectiveError(cat(fn, " dimension ", dim, " outside 1:",
                                   array.rank()),
                               e.line, e.column);
        }
        if (fn == "LBOUND") return array.domain().lower(dim - 1);
        if (fn == "UBOUND") return array.domain().upper(dim - 1);
        return e.args.size() > 1 ? array.domain().extent(dim - 1)
                                 : array.domain().size();
      }
      throw DirectiveError("unknown intrinsic '" + e.name + "'", e.line,
                           e.column);
    }
  }
  throw InternalError("unreachable directive-expression kind");
}

IndexDomain Binder::bind_dims(const std::vector<AstDim>& dims) const {
  std::vector<Triplet> out;
  out.reserve(dims.size());
  // The element count is checked here, where a declared shape enters the
  // model: everything downstream (IndexDomain::size, storage, run tables)
  // multiplies extents unchecked.
  Extent elements = 1;
  for (const AstDim& d : dims) {
    if (d.deferred) {
      throw ConformanceError(
          "deferred shape ':' is only legal for ALLOCATABLE declarations");
    }
    const Index1 lower = d.lower ? eval(d.lower) : 1;
    const Index1 upper = eval(d.upper);
    Extent extent = 0;
    if (__builtin_sub_overflow(upper, lower, &extent) ||
        __builtin_add_overflow(extent, 1, &extent) ||
        __builtin_mul_overflow(elements, std::max<Extent>(extent, 0),
                               &elements)) {
      throw ConformanceError(
          cat("declared shape has more than ",
              std::numeric_limits<Extent>::max(), " elements"));
    }
    out.emplace_back(lower, upper);
  }
  return IndexDomain(std::move(out));
}

DistFormat Binder::bind_format(const AstFormat& format) const {
  switch (format.kind) {
    case AstFormat::Kind::kBlock:
      return DistFormat::block();
    case AstFormat::Kind::kViennaBlock:
      return DistFormat::vienna_block();
    case AstFormat::Kind::kCyclic:
      return format.cyclic_k ? DistFormat::cyclic(eval(format.cyclic_k))
                             : DistFormat::cyclic();
    case AstFormat::Kind::kCollapsed:
      return DistFormat::collapsed();
    case AstFormat::Kind::kGeneralBlock: {
      std::vector<Extent> bounds;
      bounds.reserve(format.gb_bounds.size());
      for (const DirExprPtr& b : format.gb_bounds) bounds.push_back(eval(b));
      return DistFormat::general_block(std::move(bounds));
    }
  }
  throw InternalError("unreachable format kind");
}

std::vector<DistFormat> Binder::bind_formats(
    const std::vector<AstFormat>& formats) const {
  std::vector<DistFormat> out;
  out.reserve(formats.size());
  for (const AstFormat& f : formats) out.push_back(bind_format(f));
  return out;
}

ProcessorRef Binder::bind_target(const std::optional<AstTarget>& target) const {
  if (!target.has_value()) return {};
  const ProcessorArrangement& arrangement = space_->find(target->name);
  if (!target->has_subs) return ProcessorRef(arrangement);
  std::vector<TargetSub> subs;
  subs.reserve(target->subs.size());
  for (std::size_t d = 0; d < target->subs.size(); ++d) {
    const AstSub& s = target->subs[d];
    const Triplet& full = arrangement.domain().dim(static_cast<int>(d));
    switch (s.kind) {
      case AstSub::Kind::kExpr:
        subs.push_back(TargetSub::at(eval(s.expr)));
        break;
      case AstSub::Kind::kColon:
        subs.push_back(TargetSub::all(full));
        break;
      case AstSub::Kind::kTriplet: {
        const Index1 lower = s.lower ? eval(s.lower) : full.lower();
        const Index1 upper = s.upper ? eval(s.upper) : full.upper();
        const Index1 stride = s.stride ? eval(s.stride) : 1;
        subs.push_back(TargetSub::range(Triplet(lower, upper, stride)));
        break;
      }
      case AstSub::Kind::kStar:
        throw ConformanceError("'*' is not a processor-section subscript");
    }
  }
  return ProcessorRef(arrangement, std::move(subs));
}

namespace {

/// Converts a dummyless-or-one-dummy DirExpr into a core AlignExpr, mapping
/// dummy names to ids via `dummy_ids`.
AlignExpr to_align_expr(const DirExpr& e,
                        const std::map<std::string, int>& dummy_ids,
                        const Binder& binder) {
  switch (e.kind) {
    case DirExpr::Kind::kInt:
      return AlignExpr::constant(e.value);
    case DirExpr::Kind::kName: {
      auto it = dummy_ids.find(to_upper(e.name));
      if (it != dummy_ids.end()) return AlignExpr::dummy(it->second);
      // A scalar: evaluates to a constant at binding time.
      return AlignExpr::constant(binder.scalar(e.name));
    }
    case DirExpr::Kind::kAdd:
      return AlignExpr::add(to_align_expr(*e.lhs, dummy_ids, binder),
                            to_align_expr(*e.rhs, dummy_ids, binder));
    case DirExpr::Kind::kSub:
      return AlignExpr::sub(to_align_expr(*e.lhs, dummy_ids, binder),
                            to_align_expr(*e.rhs, dummy_ids, binder));
    case DirExpr::Kind::kMul:
      return AlignExpr::mul(to_align_expr(*e.lhs, dummy_ids, binder),
                            to_align_expr(*e.rhs, dummy_ids, binder));
    case DirExpr::Kind::kNeg:
      return AlignExpr::neg(to_align_expr(*e.lhs, dummy_ids, binder));
    case DirExpr::Kind::kCall: {
      const std::string fn = to_upper(e.name);
      if (fn == "MAX" || fn == "MIN") {
        if (e.args.size() != 2) {
          throw DirectiveError(
              fn + " in an alignment function takes exactly two arguments",
              e.line, e.column);
        }
        AlignExpr a = to_align_expr(*e.args[0], dummy_ids, binder);
        AlignExpr b = to_align_expr(*e.args[1], dummy_ids, binder);
        return fn == "MAX" ? AlignExpr::max(std::move(a), std::move(b))
                           : AlignExpr::min(std::move(a), std::move(b));
      }
      // LBOUND/UBOUND/SIZE are dummyless: fold to a constant.
      DirExprPtr self = std::make_shared<DirExpr>(e);
      return AlignExpr::constant(binder.eval(self));
    }
  }
  throw InternalError("unreachable align-expression kind");
}

}  // namespace

AlignSpec Binder::bind_align_spec(const AstAlign& align,
                                  const IndexDomain& base_domain) const {
  // Alignee subscripts: dummy names, ":", or "*".
  std::vector<AligneeSub> alignee_subs;
  std::map<std::string, int> dummy_ids;
  int next_id = 0;
  for (const AstSub& s : align.alignee_subs) {
    switch (s.kind) {
      case AstSub::Kind::kColon:
        alignee_subs.push_back(AligneeSub::colon());
        break;
      case AstSub::Kind::kStar:
        alignee_subs.push_back(AligneeSub::star());
        break;
      case AstSub::Kind::kExpr: {
        if (s.expr->kind != DirExpr::Kind::kName) {
          throw DirectiveError(
              "an alignee subscript must be an align-dummy, ':' or '*'",
              s.expr->line, s.expr->column);
        }
        const std::string key = to_upper(s.expr->name);
        if (dummy_ids.count(key)) {
          throw ConformanceError("align-dummy '" + s.expr->name +
                                 "' occurs twice in the alignee");
        }
        dummy_ids[key] = next_id;
        alignee_subs.push_back(AligneeSub::dummy(next_id, s.expr->name));
        ++next_id;
        break;
      }
      case AstSub::Kind::kTriplet:
        throw ConformanceError(
            "subscript triplets are not allowed in the alignee");
    }
  }
  // Base subscripts.
  std::vector<BaseSub> base_subs;
  for (std::size_t d = 0; d < align.base_subs.size(); ++d) {
    const AstSub& s = align.base_subs[d];
    switch (s.kind) {
      case AstSub::Kind::kColon:
        base_subs.push_back(BaseSub::colon());
        break;
      case AstSub::Kind::kStar:
        base_subs.push_back(BaseSub::star());
        break;
      case AstSub::Kind::kExpr:
        base_subs.push_back(
            BaseSub::of_expr(to_align_expr(*s.expr, dummy_ids, *this)));
        break;
      case AstSub::Kind::kTriplet: {
        if (static_cast<int>(d) >= base_domain.rank()) {
          throw ConformanceError("too many base subscripts");
        }
        const Triplet& full = base_domain.dim(static_cast<int>(d));
        const Index1 lower = s.lower ? eval(s.lower) : full.lower();
        const Index1 upper = s.upper ? eval(s.upper) : full.upper();
        const Index1 stride = s.stride ? eval(s.stride) : 1;
        base_subs.push_back(BaseSub::of_triplet(Triplet(lower, upper, stride)));
        break;
      }
    }
  }
  return AlignSpec(std::move(alignee_subs), std::move(base_subs));
}

std::vector<Triplet> Binder::bind_section(const std::vector<AstSub>& subs,
                                          const IndexDomain& domain) const {
  if (static_cast<int>(subs.size()) != domain.rank()) {
    throw ConformanceError(cat("section has ", subs.size(),
                               " subscripts for an array of rank ",
                               domain.rank()));
  }
  std::vector<Triplet> out;
  out.reserve(subs.size());
  for (std::size_t d = 0; d < subs.size(); ++d) {
    const AstSub& s = subs[d];
    const Triplet& full = domain.dim(static_cast<int>(d));
    switch (s.kind) {
      case AstSub::Kind::kColon:
        out.push_back(full);
        break;
      case AstSub::Kind::kExpr:
        out.push_back(Triplet::single(eval(s.expr)));
        break;
      case AstSub::Kind::kTriplet: {
        const Index1 lower = s.lower ? eval(s.lower) : full.lower();
        const Index1 upper = s.upper ? eval(s.upper) : full.upper();
        const Index1 stride = s.stride ? eval(s.stride) : 1;
        out.emplace_back(lower, upper, stride);
        break;
      }
      case AstSub::Kind::kStar:
        throw ConformanceError("'*' is not a section subscript");
    }
  }
  return out;
}

std::vector<ShadowWidth> Binder::bind_shadow(const AstShadow& shadow) const {
  std::vector<ShadowWidth> out;
  out.reserve(shadow.widths.size());
  for (const AstSub& s : shadow.widths) {
    ShadowWidth w;
    switch (s.kind) {
      case AstSub::Kind::kExpr: {
        // A bare expression declares the symmetric width w:w.
        const Index1 v = eval(s.expr);
        w.left = v;
        w.right = v;
        break;
      }
      case AstSub::Kind::kTriplet: {
        if (s.stride) {
          throw ConformanceError(
              "a SHADOW width is LEFT:RIGHT, with no stride");
        }
        w.left = s.lower ? eval(s.lower) : 0;
        w.right = s.upper ? eval(s.upper) : 0;
        break;
      }
      case AstSub::Kind::kColon:
      case AstSub::Kind::kStar:
        throw ConformanceError(
            "SHADOW widths must be expressions or LEFT:RIGHT pairs for '" +
            shadow.name + "'");
    }
    if (w.left < 0 || w.right < 0) {
      throw ConformanceError("SHADOW widths must be nonnegative for '" +
                             shadow.name + "'");
    }
    out.push_back(w);
  }
  return out;
}

SecExpr Binder::bind_sec_expr(const AstSecExprPtr& expr) const {
  if (!expr) throw InternalError("null array expression");
  const AstSecExpr& e = *expr;
  switch (e.kind) {
    case AstSecExpr::Kind::kInt:
      return SecExpr::constant(static_cast<double>(e.value));
    case AstSecExpr::Kind::kRef: {
      if (env_->has(e.name) && env_->find(e.name).rank() >= 1) {
        const DistArray& array = env_->find(e.name);
        if (!array.is_created()) {
          throw ConformanceError(
              "array '" + e.name + "' is referenced before it is allocated",
              e.line, e.column);
        }
        std::vector<Triplet> section = e.has_subs
                                           ? bind_section(e.subs, array.domain())
                                           : array.domain().dims();
        return SecExpr::section(array, std::move(section));
      }
      if (e.has_subs) {
        throw ConformanceError(
            "'" + e.name + "' is not a declared array but is subscripted",
            e.line, e.column);
      }
      auto it = scalars_.find(to_upper(e.name));
      if (it == scalars_.end()) {
        throw ConformanceError(
            "unknown name '" + e.name +
                "' in an array expression (declare the array or assign the "
                "scalar first)",
            e.line, e.column);
      }
      return SecExpr::constant(static_cast<double>(it->second));
    }
    case AstSecExpr::Kind::kAdd:
      return bind_sec_expr(e.lhs) + bind_sec_expr(e.rhs);
    case AstSecExpr::Kind::kSub:
      return bind_sec_expr(e.lhs) - bind_sec_expr(e.rhs);
    case AstSecExpr::Kind::kMul:
      return bind_sec_expr(e.lhs) * bind_sec_expr(e.rhs);
    case AstSecExpr::Kind::kDiv:
      return bind_sec_expr(e.lhs) / bind_sec_expr(e.rhs);
    case AstSecExpr::Kind::kNeg:
      return SecExpr::constant(0.0) - bind_sec_expr(e.lhs);
  }
  throw InternalError("unreachable array-expression kind");
}

BoundArrayAssign Binder::bind_array_assign(const AstArrayAssign& assign) const {
  if (!env_->has(assign.name)) {
    throw ConformanceError("unknown array '" + assign.name + "'");
  }
  DistArray& lhs = env_->find(assign.name);
  if (lhs.rank() < 1) {
    throw ConformanceError("assignment target '" + assign.name +
                           "' is a scalar, not an array");
  }
  if (!lhs.is_created()) {
    throw ConformanceError("array '" + assign.name +
                           "' is assigned before it is allocated");
  }
  BoundArrayAssign bound;
  bound.lhs = &lhs;
  bound.section = assign.has_subs ? bind_section(assign.subs, lhs.domain())
                                  : lhs.domain().dims();
  bound.rhs = bind_sec_expr(assign.rhs);
  return bound;
}

ElemType Binder::bind_type(const std::string& type) const {
  if (iequals(type, "REAL")) return ElemType::kReal;
  if (iequals(type, "INTEGER")) return ElemType::kInteger;
  if (iequals(type, "DOUBLE")) return ElemType::kDoublePrecision;
  if (iequals(type, "LOGICAL")) return ElemType::kLogical;
  throw ConformanceError("unknown type '" + type + "'");
}

void Binder::apply(const AstNode& node, std::vector<RemapEvent>* events) {
  try {
    apply_node(node, events);
  } catch (const ConformanceError& e) {
    if (e.located()) throw;
    // Attach the offending node's line the way the parser locates
    // DirectiveErrors, so script diagnostics always carry a source span.
    throw ConformanceError(e.message(), node.line, 1);
  }
}

void Binder::apply_node(const AstNode& node, std::vector<RemapEvent>* events) {
  switch (node.kind) {
    case AstNode::Kind::kDeclaration: {
      const AstDeclaration& decl = *node.declaration;
      const ElemType type = bind_type(decl.type);
      for (const AstDeclName& n : decl.names) {
        // Dims may come from the name or from the attribute (the paper's
        // "REAL,ALLOCATABLE(:,:) :: A,B" style).
        const std::vector<AstDim>& dims =
            n.dims.empty() ? decl.type_dims : n.dims;
        const bool deferred =
            !dims.empty() &&
            std::all_of(dims.begin(), dims.end(),
                        [](const AstDim& d) { return d.deferred; });
        if (decl.allocatable || deferred) {
          if (!decl.allocatable) {
            fail_at(node, "deferred shape ':' requires ALLOCATABLE");
          }
          if (!deferred && !dims.empty()) {
            fail_at(node,
                    "an ALLOCATABLE declaration takes a deferred shape (:)");
          }
          env_->declare_allocatable(n.name, type,
                                    static_cast<int>(dims.size()));
        } else if (dims.empty()) {
          env_->scalar(n.name, type);
        } else {
          env_->declare(n.name, type, bind_dims(dims));
        }
      }
      return;
    }
    case AstNode::Kind::kAssign: {
      set_scalar(node.assign->name, eval(node.assign->value));
      return;
    }
    case AstNode::Kind::kAllocate: {
      for (const AstDeclName& item : node.allocate->items) {
        DistArray& array = env_->find(item.name);
        env_->allocate(array, bind_dims(item.dims));
      }
      return;
    }
    case AstNode::Kind::kDeallocate: {
      for (const std::string& name : node.deallocate->names) {
        env_->deallocate(env_->find(name));
      }
      return;
    }
    case AstNode::Kind::kProcessors: {
      for (const AstDeclName& n : node.processors->arrangements) {
        if (n.dims.empty()) {
          space_->declare_scalar(n.name);
        } else {
          space_->declare(n.name, bind_dims(n.dims));
        }
      }
      return;
    }
    case AstNode::Kind::kDistribute: {
      const AstDistribute& dist = *node.distribute;
      if (dist.inherit) {
        fail_at(node,
                "DISTRIBUTE " + dist.names.front() +
                    " * applies to dummy arguments inside a SUBROUTINE (§7)");
      }
      if (!dist.has_formats) {
        fail_at(node, "DISTRIBUTE needs a distribution format list");
      }
      for (const std::string& name : dist.names) {
        DistArray& array = env_->find(name);
        if (dist.executable) {
          std::vector<RemapEvent> evs = env_->redistribute(
              array, bind_formats(dist.formats), bind_target(dist.target));
          if (events) {
            for (RemapEvent& e : evs) events->push_back(std::move(e));
          }
        } else {
          env_->distribute(array, bind_formats(dist.formats),
                           bind_target(dist.target));
        }
      }
      return;
    }
    case AstNode::Kind::kAlign: {
      const AstAlign& align = *node.align;
      DistArray& alignee = env_->find(align.alignee);
      DistArray& base = env_->find(align.base);
      if (align.executable) {
        AlignSpec spec = bind_align_spec(align, base.domain());
        RemapEvent e = env_->realign(alignee, base, spec);
        if (events) events->push_back(std::move(e));
      } else {
        // The base's domain may not exist yet for allocatables; triplets
        // with omitted bounds then cannot be completed.
        IndexDomain base_domain =
            base.is_created() ? base.domain() : IndexDomain();
        AlignSpec spec = bind_align_spec(align, base_domain);
        env_->align(alignee, base, spec);
      }
      return;
    }
    case AstNode::Kind::kDynamic: {
      for (const std::string& name : node.dynamic->names) {
        env_->dynamic(env_->find(name));
      }
      return;
    }
    case AstNode::Kind::kShadow: {
      const AstShadow& sh = *node.shadow;
      DistArray& array = env_->find(sh.name);
      std::vector<ShadowWidth> widths = bind_shadow(sh);
      if (static_cast<int>(widths.size()) != array.rank()) {
        fail_at(node, cat("SHADOW declares ", widths.size(),
                          " dimension widths for rank-", array.rank(), " '",
                          array.name(), "'"));
      }
      array.set_shadow(std::move(widths));
      return;
    }
    case AstNode::Kind::kTemplate:
      throw ConformanceError(
          "TEMPLATE is not part of this model: templates complicate the "
          "semantic model, cannot be ALLOCATABLE and cannot be passed across "
          "procedure boundaries (§8). Align to an array (its \"natural "
          "template\") or use GENERAL_BLOCK/VIENNA_BLOCK distributions "
          "instead (§8.1.1).");
    case AstNode::Kind::kInherit:
      throw ConformanceError(
          "INHERIT has been eliminated from this model (§1): dummy arguments "
          "inherit with DISTRIBUTE X *, and inquiry functions observe every "
          "inherited mapping (§8.1.2).");
    case AstNode::Kind::kRead:
      throw ConformanceError(
          "READ is not executed by the directive interpreter; assign the "
          "scalars instead, e.g.  N = 8");
    case AstNode::Kind::kCall:
    case AstNode::Kind::kStats:
    case AstNode::Kind::kFaults:
    case AstNode::Kind::kCheckpoint:
    case AstNode::Kind::kRestore:
    case AstNode::Kind::kFailProc:
    case AstNode::Kind::kArrayAssign:
    case AstNode::Kind::kSubroutineStart:
    case AstNode::Kind::kEnd:
      throw InternalError("node must be handled by the interpreter");
  }
}

}  // namespace hpfnt::dir
