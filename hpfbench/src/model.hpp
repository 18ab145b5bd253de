// The benchmark's own statement model: a seeded generator of the
// small_mixed statements and the script_session directive scripts, and a
// serial evaluator over plain column-major arrays.
//
// The model shares no code with the library: the library receives only the
// rendered directive text, and the reference values come from evaluating the
// model here, element by element in the same operation order the script
// spells out. So the reference stays valid whatever the library does with
// its own oracles (assign_serial, EvalEngine::kElement).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hpfbench {

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  long uniform(long lo, long hi);
  /// True with probability percent / 100.
  bool chance(int percent) { return uniform(0, 99) < percent; }

 private:
  std::uint64_t state_;
};

/// A positive-stride triplet lo:hi:st (1-based, inclusive).
struct Tri {
  long lo = 1;
  long hi = 1;
  long st = 1;
  long count() const { return (hi - lo) / st + 1; }
};

struct ArrayDecl {
  std::string name;
  std::vector<long> ext;  ///< extents; every lower bound is 1
  long size() const;
};

/// A section reference: array index within its scope plus one triplet per
/// dimension.
struct Ref {
  int array = 0;
  std::vector<Tri> sec;
};

/// An elementwise expression tree over section leaves and integer constants.
struct Expr {
  struct Node {
    char op = 'L';  ///< 'L' leaf, 'C' constant, or one of + - * /
    int a = -1;
    int b = -1;
    int leaf = -1;
    long value = 0;
  };
  std::vector<Node> nodes;
  std::vector<Ref> leaves;
  int root = -1;

  int leaf(Ref r);
  int constant(long v);
  int bin(char op, int a, int b);
};

/// LHS(section) = rhs.
struct Assign {
  Ref lhs;
  Expr rhs;
};

/// Column-major values of every array of one scope.
using Values = std::vector<std::vector<double>>;

/// Fortran array-assignment semantics: the whole RHS is evaluated before
/// the LHS changes.
void eval_assign(const Assign& s, const std::vector<ArrayDecl>& arrays,
                 Values& vals);

/// The statement as directive-script text.
std::string render(const Assign& s, const std::vector<ArrayDecl>& arrays);

// --- small_mixed -------------------------------------------------------------

struct MixedProgram {
  long procs = 0;
  std::vector<ArrayDecl> arrays;
  std::string decl_text;        ///< PROCESSORS, declarations, mappings
  std::vector<Assign> stmts;    ///< forward/reverse statement pairs
  std::vector<int> round;       ///< statement index of each op in a round
  Values initial;               ///< seeded initial values
};

MixedProgram generate_mixed(std::uint64_t seed);

// --- script_session ----------------------------------------------------------

struct Subroutine {
  std::string name;
  std::vector<ArrayDecl> dummies;  ///< assumed-shape 1-D dummies
  std::vector<std::string> spec;   ///< dummy mapping directives
  std::vector<Assign> body;        ///< refs index the dummies
};

struct ScriptStep {
  enum class Kind { kText, kAssign, kCall, kCheckpoint, kRestore };
  Kind kind = Kind::kText;
  std::string text;          ///< kText: a directive or runtime statement
  Assign assign;             ///< kAssign
  int sub = -1;              ///< kCall
  std::vector<Ref> actuals;  ///< kCall: 1-D sections, one per dummy
};

struct Script {
  long procs = 0;
  std::vector<ArrayDecl> arrays;
  std::vector<ScriptStep> steps;
  std::vector<Subroutine> subs;
  bool has_faults = false;
  bool has_fail_proc = false;
  bool has_call = false;
  std::string text;
  long lines = 0;
};

/// The index-th script of a seed's pool.
Script generate_script(std::uint64_t seed, int index);

/// Serial reference: the final values of the main program's arrays
/// (arrays start at zero, as the library allocates them).
Values run_reference(const Script& script);

}  // namespace hpfbench
