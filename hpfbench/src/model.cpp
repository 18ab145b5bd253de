#include "model.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace hpfbench {

// --- basics ------------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

long Rng::uniform(long lo, long hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<long>(next() % span);
}

long ArrayDecl::size() const {
  long n = 1;
  for (long e : ext) n *= e;
  return n;
}

int Expr::leaf(Ref r) {
  leaves.push_back(std::move(r));
  Node n;
  n.op = 'L';
  n.leaf = static_cast<int>(leaves.size()) - 1;
  nodes.push_back(n);
  return root = static_cast<int>(nodes.size()) - 1;
}

int Expr::constant(long v) {
  Node n;
  n.op = 'C';
  n.value = v;
  nodes.push_back(n);
  return root = static_cast<int>(nodes.size()) - 1;
}

int Expr::bin(char op, int a, int b) {
  Node n;
  n.op = op;
  n.a = a;
  n.b = b;
  nodes.push_back(n);
  return root = static_cast<int>(nodes.size()) - 1;
}

namespace {

long section_size(const std::vector<Tri>& sec) {
  long n = 1;
  for (const Tri& t : sec) n *= t.count();
  return n;
}

/// Flat column-major offsets of a section's elements, in Fortran order.
std::vector<long> section_offsets(const ArrayDecl& a,
                                  const std::vector<Tri>& sec) {
  std::vector<long> out;
  out.reserve(static_cast<std::size_t>(section_size(sec)));
  if (sec.size() == 1) {
    for (long i = sec[0].lo; i <= sec[0].hi; i += sec[0].st) {
      out.push_back(i - 1);
    }
  } else {
    for (long j = sec[1].lo; j <= sec[1].hi; j += sec[1].st) {
      for (long i = sec[0].lo; i <= sec[0].hi; i += sec[0].st) {
        out.push_back((i - 1) + a.ext[0] * (j - 1));
      }
    }
  }
  return out;
}

std::vector<double> eval_node(const Expr& e, int node,
                              const std::vector<ArrayDecl>& arrays,
                              const Values& vals, std::size_t n) {
  const Expr::Node& nd = e.nodes[static_cast<std::size_t>(node)];
  if (nd.op == 'L') {
    const Ref& r = e.leaves[static_cast<std::size_t>(nd.leaf)];
    const std::vector<double>& src = vals[static_cast<std::size_t>(r.array)];
    std::vector<double> out;
    out.reserve(n);
    for (long off : section_offsets(arrays[static_cast<std::size_t>(r.array)],
                                    r.sec)) {
      out.push_back(src[static_cast<std::size_t>(off)]);
    }
    return out;
  }
  if (nd.op == 'C') return std::vector<double>(n, static_cast<double>(nd.value));
  std::vector<double> a = eval_node(e, nd.a, arrays, vals, n);
  const std::vector<double> b = eval_node(e, nd.b, arrays, vals, n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (nd.op) {
      case '+': a[i] = a[i] + b[i]; break;
      case '-': a[i] = a[i] - b[i]; break;
      case '*': a[i] = a[i] * b[i]; break;
      default: a[i] = a[i] / b[i]; break;
    }
  }
  return a;
}

std::string render_ref(const Ref& r, const std::vector<ArrayDecl>& arrays) {
  std::string s = arrays[static_cast<std::size_t>(r.array)].name + "(";
  for (std::size_t d = 0; d < r.sec.size(); ++d) {
    if (d) s += ",";
    const Tri& t = r.sec[d];
    s += std::to_string(t.lo) + ":" + std::to_string(t.hi);
    if (t.st != 1) s += ":" + std::to_string(t.st);
  }
  return s + ")";
}

std::string render_node(const Expr& e, int node,
                        const std::vector<ArrayDecl>& arrays, bool top) {
  const Expr::Node& nd = e.nodes[static_cast<std::size_t>(node)];
  if (nd.op == 'L') {
    return render_ref(e.leaves[static_cast<std::size_t>(nd.leaf)], arrays);
  }
  if (nd.op == 'C') return std::to_string(nd.value);
  std::string s = render_node(e, nd.a, arrays, false) + " " + nd.op + " " +
                  render_node(e, nd.b, arrays, false);
  return top ? s : "(" + s + ")";
}

}  // namespace

void eval_assign(const Assign& s, const std::vector<ArrayDecl>& arrays,
                 Values& vals) {
  const auto n = static_cast<std::size_t>(section_size(s.lhs.sec));
  const std::vector<double> rhs = eval_node(s.rhs, s.rhs.root, arrays, vals, n);
  std::vector<double>& dst = vals[static_cast<std::size_t>(s.lhs.array)];
  std::size_t k = 0;
  for (long off : section_offsets(
           arrays[static_cast<std::size_t>(s.lhs.array)], s.lhs.sec)) {
    dst[static_cast<std::size_t>(off)] = rhs[k++];
  }
}

std::string render(const Assign& s, const std::vector<ArrayDecl>& arrays) {
  return render_ref(s.lhs, arrays) + " = " +
         render_node(s.rhs, s.rhs.root, arrays, true);
}

// --- statement generation ----------------------------------------------------

namespace {

/// A triplet of `count` elements inside 1..n: stride 2 when it fits and
/// the coin says so, else 1; random placement.
Tri fit(Rng& rng, long n, long count, bool allow_stride) {
  long st = 1;
  if (allow_stride && rng.chance(30) && (count - 1) * 2 + 1 <= n) st = 2;
  const long span = (count - 1) * st + 1;
  const long lo = rng.uniform(1, n - span + 1);
  return {lo, lo + span - 1, st};
}

int pick(Rng& rng, const std::vector<int>& from) {
  return from[static_cast<std::size_t>(
      rng.uniform(0, static_cast<long>(from.size()) - 1))];
}

template <typename T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(
                            rng.uniform(0, static_cast<long>(i) - 1))]);
  }
}

bool fits(const ArrayDecl& a, const std::vector<long>& counts) {
  if (a.ext.size() != counts.size()) return false;
  for (std::size_t d = 0; d < counts.size(); ++d) {
    if (counts[d] > a.ext[d]) return false;
  }
  return true;
}

/// The LHS section shifted by ±1 along one dimension, when that stays in
/// bounds: the stencil operand whose halo a SHADOW can post.
bool shifted(Rng& rng, const ArrayDecl& a, const Ref& lhs, Ref* out) {
  const auto d = static_cast<std::size_t>(rng.uniform(0, lhs.sec.size() - 1));
  const long delta = rng.chance(50) ? 1 : -1;
  Tri t = lhs.sec[d];
  t.lo += delta;
  t.hi += delta;
  if (t.lo < 1 || t.hi > a.ext[d]) return false;
  *out = lhs;
  out->sec[d] = t;
  return true;
}

/// An averaging expression over `leaves`: every form's coefficients are
/// nonnegative and sum to at most one, plus a small constant, so repeated
/// application neither overflows nor decays toward denormals, and every
/// division is by a power of two (exact in any evaluation order the library
/// might choose for a constant).
Expr averaging(std::vector<Ref> leaves, bool alt) {
  Expr e;
  std::vector<int> l;
  for (Ref& r : leaves) l.push_back(e.leaf(std::move(r)));
  switch (l.size()) {
    case 1:
      if (alt) {
        e.bin('+', e.bin('/', e.bin('*', l[0], e.constant(3)), e.constant(4)),
              e.constant(2));
      } else {
        e.bin('+', l[0], e.constant(1));
      }
      break;
    case 2:
      if (alt) {
        e.bin('/', e.bin('+', e.bin('*', l[0], e.constant(3)), l[1]),
              e.constant(4));
      } else {
        e.bin('/', e.bin('+', l[0], l[1]), e.constant(2));
      }
      break;
    case 3:
      e.bin('/',
            e.bin('+', e.bin('+', l[0], l[1]), e.bin('*', l[2], e.constant(2))),
            e.constant(4));
      break;
    default:
      e.bin('/', e.bin('+', e.bin('+', e.bin('+', l[0], l[1]), l[2]), l[3]),
            e.constant(4));
      break;
  }
  return e;
}

/// Chance that a leaf is the LHS section itself shifted by one (a stencil
/// operand, posted when the array has a SHADOW).
constexpr int kStencilPct = 35;

/// An LHS section of `counts` over `lhs_array` and `k` conforming leaves
/// drawn from the arrays in `pool` (or, with kStencilPct chance each, the
/// LHS section itself shifted by one).
std::pair<Ref, std::vector<Ref>> operands(Rng& rng,
                                          const std::vector<ArrayDecl>& arrays,
                                          int lhs_array,
                                          const std::vector<long>& counts,
                                          const std::vector<int>& pool,
                                          int k) {
  const ArrayDecl& la = arrays[static_cast<std::size_t>(lhs_array)];
  Ref lhs;
  lhs.array = lhs_array;
  for (std::size_t d = 0; d < counts.size(); ++d) {
    lhs.sec.push_back(fit(rng, la.ext[d], counts[d], la.ext.size() == 1));
  }
  std::vector<int> candidates;
  for (int a : pool) {
    if (fits(arrays[static_cast<std::size_t>(a)], counts)) {
      candidates.push_back(a);
    }
  }
  std::vector<Ref> leaves;
  for (int i = 0; i < k; ++i) {
    Ref r;
    if (rng.chance(kStencilPct) && shifted(rng, la, lhs, &r)) {
      leaves.push_back(r);
      continue;
    }
    r.array = pick(rng, candidates);
    const ArrayDecl& a = arrays[static_cast<std::size_t>(r.array)];
    for (std::size_t d = 0; d < counts.size(); ++d) {
      r.sec.push_back(fit(rng, a.ext[d], counts[d], a.ext.size() == 1));
    }
    leaves.push_back(r);
  }
  return {lhs, leaves};
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string s;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) s += sep;
    s += parts[i];
  }
  return s;
}

std::string decl(const ArrayDecl& a) {
  std::string s = a.name + "(";
  for (std::size_t d = 0; d < a.ext.size(); ++d) {
    if (d) s += ",";
    s += std::to_string(a.ext[d]);
  }
  return s + ")";
}

/// GENERAL_BLOCK(/.../) over `procs` blocks of 1..n: procs - 1 strictly
/// increasing upper bounds below n.
std::string general_block(Rng& rng, long n, long procs) {
  std::set<long> cuts;
  while (static_cast<long>(cuts.size()) < procs - 1) {
    cuts.insert(rng.uniform(1, n - 1));
  }
  std::vector<std::string> parts;
  for (long c : cuts) parts.push_back(std::to_string(c));
  return "GENERAL_BLOCK(/" + join(parts, ",") + "/)";
}

std::string cyclic(Rng& rng) {
  const long k = rng.uniform(1, 4);
  return k == 1 ? "CYCLIC" : "CYCLIC(" + std::to_string(k) + ")";
}

}  // namespace

// --- small_mixed -------------------------------------------------------------

MixedProgram generate_mixed(std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 11);
  MixedProgram p;
  p.procs = 8;
  std::vector<std::string> lines = {"!HPF$ PROCESSORS P(8)",
                                    "!HPF$ PROCESSORS Q(2,4)"};
  std::vector<std::string> maps;
  auto add = [&](const std::string& name, std::vector<long> ext) {
    p.arrays.push_back({name, std::move(ext)});
    return static_cast<int>(p.arrays.size()) - 1;
  };

  // The program's shape — extents, ranks, section sizes, leaf counts — is
  // the same multiset for every seed, in seeded order; the seed picks
  // orders, arrays, positions and layouts. So every seed does the same
  // amount of work per round and seeds differ only in what they exercise.
  std::vector<long> ext1 = {16, 23, 30, 37, 43, 50, 57, 64};
  std::vector<long> ext2 = {16, 32, 48, 64, 24, 40, 56, 64};
  shuffle(rng, ext1);
  shuffle(rng, ext2);

  // 1-D primaries: BLOCK (most with SHADOW), CYCLIC(k), GENERAL_BLOCK.
  std::vector<int> prim1;
  for (int i = 0; i < 8; ++i) {
    const int a = add("R" + std::to_string(i + 1),
                      {ext1[static_cast<std::size_t>(i)]});
    const ArrayDecl& ad = p.arrays.back();
    prim1.push_back(a);
    std::string fmt;
    bool shadow = false;
    switch (i % 3) {
      case 0:
        fmt = "BLOCK";
        shadow = i != 6;
        break;
      case 1: fmt = cyclic(rng); break;
      default: fmt = general_block(rng, ad.ext[0], p.procs); break;
    }
    maps.push_back("!HPF$ DISTRIBUTE " + ad.name + "(" + fmt + ") TO P");
    if (shadow) maps.push_back("!HPF$ SHADOW " + ad.name + "(1)");
  }
  // 2-D primaries onto Q (or collapsed onto P).
  std::vector<int> prim2;
  const char* fmts2[] = {"(BLOCK,BLOCK) TO Q", "(BLOCK,CYCLIC) TO Q",
                         "(CYCLIC(2),BLOCK) TO Q", "(BLOCK,:) TO P"};
  for (int i = 0; i < 4; ++i) {
    const int a = add("S" + std::to_string(i + 1),
                      {ext2[static_cast<std::size_t>(2 * i)],
                       ext2[static_cast<std::size_t>(2 * i + 1)]});
    prim2.push_back(a);
    const std::string& name = p.arrays.back().name;
    maps.push_back("!HPF$ DISTRIBUTE " + name + fmts2[i]);
    if (i == 0) maps.push_back("!HPF$ SHADOW " + name + "(1,1)");
  }
  // ALIGN-derived arrays: offset, stride, and a 2-D transpose.
  {
    const ArrayDecl base = p.arrays[static_cast<std::size_t>(prim1[1])];
    const long k = rng.uniform(1, 4);
    add("T1", {std::max<long>(base.ext[0] - k, 4)});
    maps.push_back("!HPF$ ALIGN T1(I) WITH " + base.name + "(I+" +
                   std::to_string(k) + ")");
  }
  {
    const ArrayDecl base = p.arrays[static_cast<std::size_t>(prim1[3])];
    add("T2", {(base.ext[0] + 1) / 2});
    maps.push_back("!HPF$ ALIGN T2(I) WITH " + base.name + "(2*I-1)");
  }
  {
    const ArrayDecl base = p.arrays[static_cast<std::size_t>(prim1[5])];
    add("T3", {base.ext[0]});
    maps.push_back("!HPF$ ALIGN T3(I) WITH " + base.name + "(I)");
  }
  {
    const ArrayDecl base = p.arrays[static_cast<std::size_t>(prim2[1])];
    add("T4", {base.ext[1], base.ext[0]});
    maps.push_back("!HPF$ ALIGN T4(I,J) WITH " + base.name + "(J,I)");
  }

  std::vector<std::string> d1, d2;
  std::vector<int> pool1, pool2;
  for (int a = 0; a < static_cast<int>(p.arrays.size()); ++a) {
    const ArrayDecl& ad = p.arrays[static_cast<std::size_t>(a)];
    (ad.ext.size() == 1 ? d1 : d2).push_back(decl(ad));
    (ad.ext.size() == 1 ? pool1 : pool2).push_back(a);
  }
  lines.push_back("REAL " + join(d1, ", "));
  lines.push_back("REAL " + join(d2, ", "));
  lines.insert(lines.end(), maps.begin(), maps.end());
  p.decl_text = join(lines, "\n") + "\n";

  // 8 loop-body phases of 6 forward/reverse pairs: 96 statements, each
  // body run 4 times per visit. Pair shapes: 19 of the 48 are 2-D; 1-D
  // sections take 4..32 elements, 2-D ones 3..12 per dimension; leaf
  // counts cycle through a fixed table.
  constexpr int kPhases = 8, kPairs = 6, kReps = 4, kTwoD = 19;
  const int leaf_table[] = {1, 2, 2, 3, 1, 2, 4, 2, 3, 2};
  struct PairShape {
    std::vector<long> counts;
    int leaves;
    bool alt;
  };
  std::vector<PairShape> shapes;
  for (int k = 0; k < kPhases * kPairs; ++k) {
    PairShape ps;
    if (k < kTwoD) {
      ps.counts = {3 + k % 10, 3 + (k * 7) % 10};
    } else {
      ps.counts = {4 + (k - kTwoD)};
    }
    ps.leaves = leaf_table[k % 10];
    ps.alt = k % 2 == 1;
    shapes.push_back(ps);
  }
  shuffle(rng, shapes);
  for (const PairShape& ps : shapes) {
    const std::vector<int>& pool = ps.counts.size() == 2 ? pool2 : pool1;
    std::vector<int> lhs_choices;
    for (int a : pool) {
      if (fits(p.arrays[static_cast<std::size_t>(a)], ps.counts)) {
        lhs_choices.push_back(a);
      }
    }
    const int lhs = pick(rng, lhs_choices);
    auto [lref, leaves] =
        operands(rng, p.arrays, lhs, ps.counts, pool, ps.leaves);
    std::vector<Ref> back = leaves;
    Ref rlhs = back.front();
    back.front() = lref;
    p.stmts.push_back({lref, averaging(leaves, ps.alt)});
    p.stmts.push_back({rlhs, averaging(back, !ps.alt)});
  }
  for (int ph = 0; ph < kPhases; ++ph) {
    for (int rep = 0; rep < kReps; ++rep) {
      for (int s = 0; s < 2 * kPairs; ++s) {
        p.round.push_back(ph * 2 * kPairs + s);
      }
    }
  }
  for (const ArrayDecl& a : p.arrays) {
    std::vector<double> v(static_cast<std::size_t>(a.size()));
    for (double& x : v) x = 1.0 + static_cast<double>(rng.next() % 1024) / 64.0;
    p.initial.push_back(std::move(v));
  }
  return p;
}

// --- script_session ----------------------------------------------------------

namespace {

struct ScriptGen {
  Rng rng;
  Script s;
  std::vector<int> pool1, pool2;
  std::vector<int> block_primaries;  ///< non-dynamic BLOCK 1-D primaries

  explicit ScriptGen(std::uint64_t seed) : rng(seed) {}

  void text(std::string t) {
    ScriptStep st;
    st.kind = ScriptStep::Kind::kText;
    st.text = std::move(t);
    s.steps.push_back(std::move(st));
  }

  void assign(Assign a) {
    ScriptStep st;
    st.kind = ScriptStep::Kind::kAssign;
    st.assign = std::move(a);
    s.steps.push_back(std::move(st));
  }

  /// The k-th statement of the script. Its rank, section extents and
  /// leaf count follow from k alone (every extent fits the smallest array,
  /// so no clamp depends on the seed); the seed picks arrays, positions and
  /// form.
  Assign statement() {
    const int k = next_stmt++;
    const bool two_d = !pool2.empty() && k % 5 == 4;
    const std::vector<int>& pool = two_d ? pool2 : pool1;
    const std::vector<long> counts =
        two_d ? std::vector<long>{4 + (k * 5) % 13, 4 + (k * 3) % 13}
              : std::vector<long>{8 + (k * 7) % 25};
    std::vector<int> lhs_choices;
    for (int a : pool) {
      if (fits(s.arrays[static_cast<std::size_t>(a)], counts)) {
        lhs_choices.push_back(a);
      }
    }
    const int leaf_table[] = {1, 2, 2, 3, 2, 1, 3, 2};
    auto [lref, leaves] =
        operands(rng, s.arrays, pick(rng, lhs_choices), counts, pool,
                 leaf_table[k % 8]);
    return {lref, averaging(leaves, rng.chance(50))};
  }

  int next_stmt = 0;
};

/// One subroutine with 1-2 assumed-shape dummies of `m` elements, each in
/// one of the §7 dummy modes; `match` marks dummies declared inherit-match
/// (their actuals must be BLOCK-distributed).
Subroutine make_sub(Rng& rng, int index, long m, std::vector<bool>* match) {
  Subroutine sub;
  sub.name = "SUB" + std::to_string(index + 1);
  const int nd = 1 + index % 2;
  for (int d = 0; d < nd; ++d) {
    const std::string name = d == 0 ? "X" : "Y";
    sub.dummies.push_back({name, {m}});
    const long mode = rng.uniform(0, 3);
    match->push_back(mode == 3);
    switch (mode) {
      case 0: sub.spec.push_back("!HPF$ DISTRIBUTE " + name + " *"); break;
      case 1:
        sub.spec.push_back("!HPF$ DISTRIBUTE " + name +
                           (rng.chance(50) ? "(CYCLIC)" : "(BLOCK)"));
        break;
      case 2: break;  // implicit mapping
      default:
        sub.spec.push_back("!HPF$ DISTRIBUTE " + name + " *(BLOCK)");
        break;
    }
  }
  std::vector<int> pool;
  for (int d = 0; d < nd; ++d) pool.push_back(d);
  const int nbody = 1 + index % 3;
  for (int b = 0; b < nbody; ++b) {
    const int lhs = static_cast<int>(rng.uniform(0, nd - 1));
    const std::vector<long> counts = {m - (b % 2) * (m / 4)};
    auto [lref, leaves] =
        operands(rng, sub.dummies, lhs, counts, pool, 1 + b % 2);
    sub.body.push_back({lref, averaging(leaves, rng.chance(50))});
  }
  return sub;
}

std::string render_script(const Script& s, std::uint64_t seed, int index,
                          int kind) {
  std::ostringstream out;
  out << "! hpfbench script_session seed=" << seed << " index=" << index
      << " kind=" << kind << "\n"
      << "! replay: hpflint --procs " << s.procs
      << " --cost --exec <this file>\n";
  for (const ScriptStep& st : s.steps) {
    switch (st.kind) {
      case ScriptStep::Kind::kText: out << st.text << "\n"; break;
      case ScriptStep::Kind::kAssign:
        out << render(st.assign, s.arrays) << "\n";
        break;
      case ScriptStep::Kind::kCall: {
        std::vector<std::string> args;
        for (const Ref& r : st.actuals) args.push_back(render_ref(r, s.arrays));
        out << "CALL " << s.subs[static_cast<std::size_t>(st.sub)].name << "("
            << join(args, ", ") << ")\n";
        break;
      }
      case ScriptStep::Kind::kCheckpoint: out << "CHECKPOINT\n"; break;
      case ScriptStep::Kind::kRestore: out << "RESTORE\n"; break;
    }
  }
  for (const Subroutine& sub : s.subs) {
    std::vector<std::string> names, decls;
    for (const ArrayDecl& d : sub.dummies) {
      names.push_back(d.name);
      decls.push_back(d.name + "(:)");
    }
    out << "SUBROUTINE " << sub.name << "(" << join(names, ", ") << ")\n"
        << "REAL " << join(decls, ", ") << "\n";
    for (const std::string& line : sub.spec) out << line << "\n";
    for (const Assign& a : sub.body) out << render(a, sub.dummies) << "\n";
    out << "END\n";
  }
  return out.str();
}

}  // namespace

Script generate_script(std::uint64_t seed, int index) {
  ScriptGen g(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(index) *
                                                 0xd1b54a32d192ed03ULL + 7);
  Rng& rng = g.rng;
  Script& s = g.s;
  // The script's structure — kind, processor count, primaries, block size,
  // repetitions — depends on its index alone, so every seed's pool does
  // comparable work; the seed picks the contents. Kinds: 0 plain (hpfcost
  // must equal execution exactly), 1 procedure calls, 2 transient faults
  // with CHECKPOINT/RESTORE, 3 transient faults with a processor loss
  // right after a CHECKPOINT.
  const int kind = index % 4;
  const long procs_choice[] = {8, 12, 16};
  s.procs = procs_choice[index % 3];
  g.text("!HPF$ PROCESSORS P(" + std::to_string(s.procs) + ")");
  g.text("!HPF$ PROCESSORS Q(2," + std::to_string(s.procs / 2) + ")");

  const long sizes[] = {32, 48, 64};
  const int nprim = 4 + (index / 3) % 3;
  std::vector<std::string> maps;
  std::vector<int> dynamic;
  std::vector<std::string> flip_fmt;  // the CYCLIC form each dynamic flips to
  for (int i = 0; i < nprim; ++i) {
    const std::string name(1, static_cast<char>('A' + i));
    s.arrays.push_back({name, {sizes[(index + i) % 3]}});
    const long n = s.arrays.back().ext[0];
    if (i < 2) {  // DYNAMIC, flip-flopped between BLOCK and CYCLIC(k)
      dynamic.push_back(i);
      flip_fmt.push_back(cyclic(rng));
      maps.push_back("!HPF$ DISTRIBUTE " + name + "(BLOCK) TO P");
      continue;
    }
    switch (i % 3) {
      case 2:
        maps.push_back("!HPF$ DISTRIBUTE " + name + "(BLOCK) TO P");
        maps.push_back("!HPF$ SHADOW " + name + "(1)");
        g.block_primaries.push_back(i);
        break;
      case 0:
        maps.push_back("!HPF$ DISTRIBUTE " + name + "(" + cyclic(rng) +
                       ") TO P");
        break;
      default:
        maps.push_back("!HPF$ DISTRIBUTE " + name + "(" +
                       general_block(rng, n, s.procs) + ") TO P");
        break;
    }
  }
  // Aligned secondaries: one follows a DYNAMIC primary through its
  // remaps, one sits on a static primary with a stride.
  {
    const ArrayDecl base = s.arrays[0];
    const long k = rng.uniform(1, 3);
    s.arrays.push_back({"G", {base.ext[0] - k}});
    maps.push_back("!HPF$ ALIGN G(I) WITH A(I+" + std::to_string(k) + ")");
  }
  {
    const ArrayDecl base = s.arrays[2];
    s.arrays.push_back({"H", {(base.ext[0] + 1) / 2}});
    maps.push_back("!HPF$ ALIGN H(I) WITH " + base.name + "(2*I-1)");
  }
  const bool with_2d = index % 8 < 6;
  if (with_2d) {
    s.arrays.push_back({"M", {rng.uniform(16, 24), rng.uniform(16, 24)}});
    if (rng.chance(50)) {
      maps.push_back("!HPF$ DISTRIBUTE M(BLOCK,BLOCK) TO Q");
      maps.push_back("!HPF$ SHADOW M(1,1)");
    } else {
      maps.push_back("!HPF$ DISTRIBUTE M(BLOCK,CYCLIC) TO Q");
    }
  }
  std::vector<std::string> d1, d2;
  for (int a = 0; a < static_cast<int>(s.arrays.size()); ++a) {
    const ArrayDecl& ad = s.arrays[static_cast<std::size_t>(a)];
    (ad.ext.size() == 1 ? d1 : d2).push_back(decl(ad));
    (ad.ext.size() == 1 ? g.pool1 : g.pool2).push_back(a);
  }
  g.text("REAL " + join(d1, ", "));
  if (!d2.empty()) g.text("REAL " + join(d2, ", "));
  g.text("!HPF$ DYNAMIC A, B");
  for (const std::string& m : maps) g.text(m);

  s.has_faults = kind >= 2;
  s.has_fail_proc = kind == 3;
  s.has_call = kind == 1;
  if (s.has_faults) {
    g.text("FAULTS(" + std::to_string(rng.uniform(1, 1000)) + ", " +
           std::to_string(rng.uniform(5, 30)) + ", 12)");
  }
  // Initial values: one constant per array.
  for (int a = 0; a < static_cast<int>(s.arrays.size()); ++a) {
    const ArrayDecl& ad = s.arrays[static_cast<std::size_t>(a)];
    Assign init;
    init.lhs.array = a;
    for (long e : ad.ext) init.lhs.sec.push_back({1, e, 1});
    init.rhs.constant(rng.uniform(1, 9));
    g.assign(init);
  }

  // Procedure calls: subroutines whose dummies take m-element sections.
  std::vector<std::vector<bool>> matches;
  if (s.has_call) {
    const int nsubs = 1 + (index / 4) % 3;
    for (int i = 0; i < nsubs; ++i) {
      matches.emplace_back();
      s.subs.push_back(make_sub(rng, i, i % 2 ? 24 : 16, &matches.back()));
    }
  }
  int calls_made = 0;
  auto call = [&]() {
    ScriptStep st;
    st.kind = ScriptStep::Kind::kCall;
    st.sub = static_cast<int>(calls_made++ % static_cast<int>(s.subs.size()));
    const Subroutine& sub = s.subs[static_cast<std::size_t>(st.sub)];
    std::vector<int> used;
    for (std::size_t d = 0; d < sub.dummies.size(); ++d) {
      const long m = sub.dummies[d].ext[0];
      std::vector<int> cands;
      const std::vector<int>& from =
          matches[static_cast<std::size_t>(st.sub)][d] ? g.block_primaries
                                                        : g.pool1;
      for (int a : from) {
        if (s.arrays[static_cast<std::size_t>(a)].ext[0] >= m &&
            std::find(used.begin(), used.end(), a) == used.end()) {
          cands.push_back(a);
        }
      }
      if (cands.empty()) return false;
      Ref r;
      r.array = cands[static_cast<std::size_t>(
          rng.uniform(0, static_cast<long>(cands.size()) - 1))];
      used.push_back(r.array);
      r.sec.push_back(fit(rng, s.arrays[static_cast<std::size_t>(r.array)].ext[0],
                          m, true));
      st.actuals.push_back(r);
    }
    s.steps.push_back(std::move(st));
    return true;
  };

  // The loop body: a block of statements repeated 2-4 times, with the
  // DYNAMIC arrays flip-flopped between repetitions.
  const int block = 15 + (index * 7) % 11;
  const int reps = 2 + (index + index / 4) % 3;
  std::vector<Assign> body;
  std::vector<bool> is_call;
  for (int b = 0; b < block; ++b) {
    is_call.push_back(s.has_call && b % 5 == 2);
    body.push_back(g.statement());
  }
  bool cyclic_now = false;
  for (int r = 0; r < reps; ++r) {
    const bool last = r == reps - 1;
    if (r > 0 && !(s.has_fail_proc && last)) {
      cyclic_now = !cyclic_now;
      for (std::size_t d = 0; d < dynamic.size(); ++d) {
        const std::string& name =
            s.arrays[static_cast<std::size_t>(dynamic[d])].name;
        g.text("!HPF$ REDISTRIBUTE " + name + "(" +
               (cyclic_now ? flip_fmt[d] : std::string("BLOCK")) + ") TO P");
      }
    }
    if (s.has_fail_proc && last) {
      // The checkpoint directly before the loss means recovery can re-read
      // every element whose replicas all died: nothing is lost.
      ScriptStep ck;
      ck.kind = ScriptStep::Kind::kCheckpoint;
      s.steps.push_back(ck);
      g.text("FAIL_PROC " + std::to_string(rng.uniform(1, s.procs - 1)));
    }
    for (int b = 0; b < block; ++b) {
      if (is_call[static_cast<std::size_t>(b)] && call()) continue;
      g.assign(body[static_cast<std::size_t>(b)]);
    }
    if (kind == 2 && r == 0) {
      ScriptStep ck;
      ck.kind = ScriptStep::Kind::kCheckpoint;
      s.steps.push_back(ck);
      for (int b = 0; b < 3; ++b) g.assign(g.statement());
      ScriptStep rs;
      rs.kind = ScriptStep::Kind::kRestore;
      s.steps.push_back(rs);
    }
  }
  s.text = render_script(s, seed, index, kind);
  s.lines = static_cast<long>(std::count(s.text.begin(), s.text.end(), '\n'));
  return s;
}

Values run_reference(const Script& s) {
  Values vals;
  for (const ArrayDecl& a : s.arrays) {
    vals.emplace_back(static_cast<std::size_t>(a.size()), 0.0);
  }
  Values checkpoint;
  for (const ScriptStep& st : s.steps) {
    switch (st.kind) {
      case ScriptStep::Kind::kText: break;
      case ScriptStep::Kind::kAssign: eval_assign(st.assign, s.arrays, vals); break;
      case ScriptStep::Kind::kCheckpoint: checkpoint = vals; break;
      case ScriptStep::Kind::kRestore: vals = checkpoint; break;
      case ScriptStep::Kind::kCall: {
        // Copy-in, run the body on the dummies, copy-out.
        const Subroutine& sub = s.subs[static_cast<std::size_t>(st.sub)];
        Values dummies;
        std::vector<std::vector<long>> offsets;
        for (const Ref& r : st.actuals) {
          offsets.push_back(section_offsets(
              s.arrays[static_cast<std::size_t>(r.array)], r.sec));
          std::vector<double> v;
          for (long off : offsets.back()) {
            v.push_back(vals[static_cast<std::size_t>(r.array)]
                            [static_cast<std::size_t>(off)]);
          }
          dummies.push_back(std::move(v));
        }
        for (const Assign& a : sub.body) eval_assign(a, sub.dummies, dummies);
        for (std::size_t d = 0; d < st.actuals.size(); ++d) {
          std::vector<double>& dst =
              vals[static_cast<std::size_t>(st.actuals[d].array)];
          for (std::size_t k = 0; k < offsets[d].size(); ++k) {
            dst[static_cast<std::size_t>(offsets[d][k])] = dummies[d][k];
          }
        }
        break;
      }
    }
  }
  return vals;
}

}  // namespace hpfbench
