#include "constraint.hh"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <tuple>

#include "air/logging.hh"

namespace sierra::symbolic {

using air::CondKind;

std::string
Operand::toString() const
{
    switch (kind) {
      case Kind::Unknown: return "?";
      case Kind::Const: return std::to_string(value);
      case Kind::Reg: return "r" + std::to_string(reg);
      case Kind::Loc:
        return (loc.isStatic ? "static:" : "") + loc.key.str() + "#" +
               std::to_string(loc.obj);
    }
    panic("unreachable operand kind");
}

std::string
Atom::toString() const
{
    return lhs.toString() + " " + air::condName(cond) + " " +
           rhs.toString();
}

namespace {

bool
sameLoc(const race::MemLoc &a, const race::MemLoc &b)
{
    return a == b;
}

/** Replace every operand `matches` accepts with `value`; true when
 *  one did. */
template <typename Match>
bool
substOperands(std::vector<Atom> &atoms, const Operand &value,
              Match matches)
{
    bool changed = false;
    for (Atom &a : atoms) {
        if (matches(a.lhs)) {
            a.lhs = value;
            changed = true;
        }
        if (matches(a.rhs)) {
            a.rhs = value;
            changed = true;
        }
    }
    return changed;
}

} // namespace

int
ConstraintStore::simplify(Atom &atom)
{
    if (atom.lhs.isUnknown() || atom.rhs.isUnknown())
        return 1; // unconstrained: drop (conservatively satisfiable)
    if (atom.lhs.isConst() && atom.rhs.isConst()) {
        return air::evalCond(atom.cond, atom.lhs.value, atom.rhs.value)
                   ? 1
                   : -1;
    }
    // Normalize Const-vs-Loc to Loc-vs-Const.
    if (atom.lhs.isConst() && atom.rhs.isLoc()) {
        std::swap(atom.lhs, atom.rhs);
        switch (atom.cond) {
          case CondKind::Lt: atom.cond = CondKind::Gt; break;
          case CondKind::Le: atom.cond = CondKind::Ge; break;
          case CondKind::Gt: atom.cond = CondKind::Lt; break;
          case CondKind::Ge: atom.cond = CondKind::Le; break;
          default: break;
        }
    }
    // Trivially true self-comparisons.
    if (atom.lhs.isLoc() && atom.rhs.isLoc() &&
        sameLoc(atom.lhs.loc, atom.rhs.loc)) {
        bool holds = atom.cond == CondKind::Eq ||
                     atom.cond == CondKind::Le ||
                     atom.cond == CondKind::Ge;
        return holds ? 1 : -1;
    }
    return 0;
}

bool
ConstraintStore::resimplifyAll()
{
    if (_failed)
        return false;
    size_t kept = 0;
    for (size_t i = 0; i < _atoms.size(); ++i) {
        int s = simplify(_atoms[i]);
        if (s == -1) {
            _failed = true;
            return false;
        }
        if (s == 0) {
            if (kept != i)
                _atoms[kept] = std::move(_atoms[i]);
            ++kept;
        }
    }
    _atoms.erase(_atoms.begin() + static_cast<std::ptrdiff_t>(kept),
                 _atoms.end());
    if (!solveLocConstSystem(_atoms)) {
        _failed = true;
        return false;
    }
    return true;
}

bool
ConstraintStore::add(Atom atom)
{
    if (_failed)
        return false;
    int s = simplify(atom);
    if (s == -1) {
        _failed = true;
        return false;
    }
    if (s == 0)
        _atoms.push_back(std::move(atom));
    return resimplifyAll();
}

// The substitutions re-simplify and re-solve only when an operand
// matched. That is exact by the store invariant (class comment): add
// and the substitutions establish it, dropping atoms only weakens the
// conjunction, and a substitution that matches nothing leaves the atoms
// untouched.

bool
ConstraintStore::substituteReg(int reg, const Operand &value)
{
    if (_failed)
        return false;
    bool changed = substOperands(_atoms, value, [&](const Operand &op) {
        return op.isReg() && op.reg == reg;
    });
    return !changed || resimplifyAll();
}

bool
ConstraintStore::substituteLoc(const race::MemLoc &loc,
                               const Operand &value)
{
    if (_failed)
        return false;
    bool changed = substOperands(_atoms, value, [&](const Operand &op) {
        return op.isLoc() && sameLoc(op.loc, loc);
    });
    return !changed || resimplifyAll();
}

void
ConstraintStore::dropRegAtoms()
{
    std::erase_if(_atoms, [](const Atom &a) {
        return a.lhs.isReg() || a.rhs.isReg();
    });
}

void
ConstraintStore::dropRegsInRange(int lo, int hi)
{
    auto mentions = [&](const Operand &op) {
        return op.isReg() && op.reg >= lo && op.reg < hi;
    };
    std::erase_if(_atoms, [&](const Atom &a) {
        return mentions(a.lhs) || mentions(a.rhs);
    });
}

bool
ConstraintStore::substituteKeyWithConst(analysis::FieldKey key,
                                        int64_t value,
                                        const std::set<int> &objs)
{
    if (_failed)
        return false;
    bool changed = substOperands(
        _atoms, Operand::constant(value), [&](const Operand &op) {
            return op.isLoc() && op.loc.key == key &&
                   (objs.empty() || objs.count(op.loc.obj));
        });
    return !changed || resimplifyAll();
}

void
ConstraintStore::dropLocsByKey(
    const std::vector<analysis::FieldKey> &keys)
{
    auto mentions = [&](const Operand &op) {
        if (!op.isLoc())
            return false;
        return std::find(keys.begin(), keys.end(), op.loc.key) !=
               keys.end();
    };
    std::erase_if(_atoms, [&](const Atom &a) {
        return mentions(a.lhs) || mentions(a.rhs);
    });
}

bool
ConstraintStore::renameReg(int from, int to)
{
    return substituteReg(from, Operand::regOp(to));
}

bool
ConstraintStore::consistent() const
{
    if (_failed)
        return false;
    return solveLocConstSystem(_atoms);
}

std::string
ConstraintStore::toString() const
{
    std::ostringstream os;
    if (_failed)
        os << "<unsat> ";
    for (size_t i = 0; i < _atoms.size(); ++i) {
        if (i)
            os << " && ";
        os << _atoms[i].toString();
    }
    return os.str();
}

namespace {

/** One (loc COND const) atom, flattened for the solver's sort. */
struct LocBound {
    int obj;
    bool isStatic;
    analysis::FieldId key;
    int64_t value;
    CondKind cond;

    bool
    sameLoc(const LocBound &o) const
    {
        return obj == o.obj && isStatic == o.isStatic && key == o.key;
    }
    bool
    operator<(const LocBound &o) const
    {
        return std::tie(obj, isStatic, key, value) <
               std::tie(o.obj, o.isStatic, o.key, o.value);
    }
};

/** Is the domain of one location -- the run [first, last) of bounds,
 *  sorted by value -- non-empty? */
bool
domainSatisfiable(const LocBound *first, const LocBound *last)
{
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    int64_t lo = kMin;
    int64_t hi = kMax;
    bool has_eq = false;
    int64_t eq = 0;
    for (const LocBound *b = first; b != last; ++b) {
        int64_t v = b->value;
        switch (b->cond) {
          case CondKind::Eq:
            if (has_eq && eq != v)
                return false;
            has_eq = true;
            eq = v;
            break;
          case CondKind::Ne:
            break; // second sweep
          // x < INT64_MIN and x > INT64_MAX hold for no integer.
          case CondKind::Lt:
            if (v == kMin)
                return false;
            hi = std::min(hi, v - 1);
            break;
          case CondKind::Le:
            hi = std::min(hi, v);
            break;
          case CondKind::Gt:
            if (v == kMax)
                return false;
            lo = std::max(lo, v + 1);
            break;
          case CondKind::Ge:
            lo = std::max(lo, v);
            break;
        }
    }
    if (lo > hi)
        return false;
    if (has_eq) {
        if (eq < lo || eq > hi)
            return false;
        lo = hi = eq; // the domain is {eq} unless an Ne excludes it
    }
    // The interval minus the excluded points must be non-empty. Ne
    // values arrive sorted, so each distinct one is counted once.
    // Width is computed in unsigned arithmetic: hi - lo would overflow
    // for the unbounded interval (which no finite set can exclude).
    uint64_t width = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (width == std::numeric_limits<uint64_t>::max())
        return true;
    uint64_t excluded = 0;
    const LocBound *prev = nullptr;
    for (const LocBound *b = first; b != last; ++b) {
        if (b->cond != CondKind::Ne || b->value < lo || b->value > hi)
            continue;
        if (prev && prev->value == b->value)
            continue;
        prev = b;
        if (++excluded > width)
            return false;
    }
    return true;
}

} // namespace

bool
solveLocConstSystem(const std::vector<Atom> &atoms)
{
    // Group loc-vs-const atoms per location (base object, static?,
    // interned key id) by sorting them; other atoms (loc-vs-loc, reg
    // atoms) are treated as satisfiable. The scratch buffer is per
    // thread, so concurrent refuter workers never share it.
    thread_local std::vector<LocBound> bounds;
    bounds.clear();
    for (const Atom &a : atoms) {
        if (a.lhs.isLoc() && a.rhs.isConst()) {
            bounds.push_back({a.lhs.loc.obj, a.lhs.loc.isStatic,
                              a.lhs.loc.key.id, a.rhs.value, a.cond});
        }
    }
    std::sort(bounds.begin(), bounds.end());
    for (auto first = bounds.begin(); first != bounds.end();) {
        auto last = first + 1;
        while (last != bounds.end() && last->sameLoc(*first))
            ++last;
        if (!domainSatisfiable(&*first, &*first + (last - first)))
            return false;
        first = last;
    }
    return true;
}

} // namespace sierra::symbolic
