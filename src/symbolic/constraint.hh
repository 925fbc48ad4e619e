/**
 * @file
 * Path constraints and the built-in solver for backward symbolic
 * execution (paper Section 5).
 *
 * Constraints are conjunctions of atoms "operand COND operand" where
 * operands are constants, registers (frame-local, resolved during the
 * backward walk) or abstract memory locations. The solver decides
 * satisfiability of the location-vs-constant fragment, which is what
 * ad-hoc synchronization guards (boolean flags, null checks, message
 * `what` tags) compile to.
 */

#ifndef SIERRA_SYMBOLIC_CONSTRAINT_HH
#define SIERRA_SYMBOLIC_CONSTRAINT_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "air/instruction.hh"
#include "race/access.hh"

namespace sierra::symbolic {

/** One side of an atom. */
struct Operand {
    enum class Kind { Unknown, Const, Reg, Loc };
    Kind kind{Kind::Unknown};
    int64_t value{0}; //!< Const payload
    int reg{-1};      //!< Reg payload (current frame)
    race::MemLoc loc; //!< Loc payload

    static Operand unknown() { return {}; }
    static Operand
    constant(int64_t v)
    {
        Operand o;
        o.kind = Kind::Const;
        o.value = v;
        return o;
    }
    static Operand
    regOp(int r)
    {
        Operand o;
        o.kind = Kind::Reg;
        o.reg = r;
        return o;
    }
    static Operand
    locOp(race::MemLoc l)
    {
        Operand o;
        o.kind = Kind::Loc;
        o.loc = std::move(l);
        return o;
    }

    bool isUnknown() const { return kind == Kind::Unknown; }
    bool isConst() const { return kind == Kind::Const; }
    bool isReg() const { return kind == Kind::Reg; }
    bool isLoc() const { return kind == Kind::Loc; }

    std::string toString() const;
};

/** One conjunct: lhs COND rhs. */
struct Atom {
    Operand lhs;
    air::CondKind cond{air::CondKind::Eq};
    Operand rhs;

    std::string toString() const;
};

/**
 * A conjunction of atoms with weakest-precondition substitution.
 *
 * The store is path-local: backward execution copies it when forking.
 * All mutating operations return false when the conjunction became
 * unsatisfiable (the path can be pruned). Invariant: a store that has
 * not failed is simplified and solver-consistent, so a substitution
 * that matches no operand changes nothing and skips re-solving.
 */
class ConstraintStore
{
  public:
    /** Add an atom; simplifies immediately. */
    bool add(Atom atom);

    /** Weakest precondition of "reg := value": substitute. */
    bool substituteReg(int reg, const Operand &value);

    /** Weakest precondition of "loc := value" (strong update). */
    bool substituteLoc(const race::MemLoc &loc, const Operand &value);

    /** Drop every atom that mentions a register (frame boundary). */
    void dropRegAtoms();

    /** Drop atoms mentioning register keys in [lo, hi) (used to discard
     *  a frame's temporaries at its entry boundary). */
    void dropRegsInRange(int lo, int hi);

    /** Substitute locations whose key matches (and, when `objs` is
     *  non-empty, whose base object is in `objs`) with a constant --
     *  on-demand constant propagation for Message.what. Keys compare
     *  by interned id, so the FieldKey must come from the same
     *  interner as the accesses (the harness's PointsToResult). */
    bool substituteKeyWithConst(analysis::FieldKey key, int64_t value,
                                const std::set<int> &objs = {});

    /** Drop atoms on locations whose key is in `keys` (call havoc). */
    void dropLocsByKey(const std::vector<analysis::FieldKey> &keys);

    /** Re-map register operands across a call frame: register `from` in
     *  the callee becomes register `to` in the caller. */
    bool renameReg(int from, int to);

    /** Satisfiability of the Loc-vs-Const fragment (other atoms are
     *  treated as satisfiable). */
    bool consistent() const;

    bool failed() const { return _failed; }
    size_t size() const { return _atoms.size(); }
    const std::vector<Atom> &atoms() const { return _atoms; }

    std::string toString() const;

  private:
    /** Simplify one atom: returns 1 (true, drop), 0 (keep), -1 (false,
     *  unsat). */
    static int simplify(Atom &atom);
    bool resimplifyAll();

    std::vector<Atom> _atoms;
    bool _failed{false};
};

/**
 * Decide satisfiability of a conjunction of (loc COND const) atoms over
 * integers. Exposed for direct testing; ConstraintStore::consistent()
 * delegates here.
 */
bool solveLocConstSystem(const std::vector<Atom> &atoms);

} // namespace sierra::symbolic

#endif // SIERRA_SYMBOLIC_CONSTRAINT_HH
