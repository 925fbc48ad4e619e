/** @file Tests for the constraint store and the built-in solver. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "symbolic/constraint.hh"

namespace sierra::symbolic {
namespace {

using air::CondKind;

/** Shared interner standing in for the harness's PointsToResult: all
 *  keys in one store must come from the same table (ids compare). */
util::StringInterner &
testKeys()
{
    static util::StringInterner table;
    return table;
}

analysis::FieldKey
key(std::string_view name)
{
    return analysis::FieldKey::intern(testKeys(), name);
}

race::MemLoc
loc(const std::string &k, int obj = 1)
{
    race::MemLoc l;
    l.obj = obj;
    l.key = key(k);
    return l;
}

Atom
atom(Operand lhs, CondKind c, Operand rhs)
{
    Atom a;
    a.lhs = std::move(lhs);
    a.cond = c;
    a.rhs = std::move(rhs);
    return a;
}

TEST(Solver, SingleNeIsSatisfiable)
{
    // Regression: the unbounded interval must not be "fully excluded"
    // by one point (a signed-overflow bug found during bring-up).
    std::vector<Atom> atoms{atom(Operand::locOp(loc("A.f")), CondKind::Ne,
                                 Operand::constant(0))};
    EXPECT_TRUE(solveLocConstSystem(atoms));
}

TEST(Solver, EqNeContradiction)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Eq,
             Operand::constant(1)),
        atom(Operand::locOp(loc("A.f")), CondKind::Ne,
             Operand::constant(1))};
    EXPECT_FALSE(solveLocConstSystem(atoms));
}

TEST(Solver, TwoDifferentEqsContradict)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Eq,
             Operand::constant(1)),
        atom(Operand::locOp(loc("A.f")), CondKind::Eq,
             Operand::constant(2))};
    EXPECT_FALSE(solveLocConstSystem(atoms));
}

TEST(Solver, DistinctObjectsDoNotConflict)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f", 1)), CondKind::Eq,
             Operand::constant(1)),
        atom(Operand::locOp(loc("A.f", 2)), CondKind::Eq,
             Operand::constant(2))};
    EXPECT_TRUE(solveLocConstSystem(atoms))
        << "same field on different objects";
}

TEST(Solver, IntervalEmptiness)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Gt,
             Operand::constant(5)),
        atom(Operand::locOp(loc("A.f")), CondKind::Lt,
             Operand::constant(6))};
    EXPECT_FALSE(solveLocConstSystem(atoms)) << "5 < x < 6 is empty";

    std::vector<Atom> ok{
        atom(Operand::locOp(loc("A.f")), CondKind::Ge,
             Operand::constant(5)),
        atom(Operand::locOp(loc("A.f")), CondKind::Le,
             Operand::constant(5))};
    EXPECT_TRUE(solveLocConstSystem(ok));
}

TEST(Solver, FiniteIntervalFullyExcluded)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Ge,
             Operand::constant(3)),
        atom(Operand::locOp(loc("A.f")), CondKind::Le,
             Operand::constant(4)),
        atom(Operand::locOp(loc("A.f")), CondKind::Ne,
             Operand::constant(3)),
        atom(Operand::locOp(loc("A.f")), CondKind::Ne,
             Operand::constant(4))};
    EXPECT_FALSE(solveLocConstSystem(atoms));
}

TEST(Solver, EqOutsideInterval)
{
    std::vector<Atom> atoms{
        atom(Operand::locOp(loc("A.f")), CondKind::Eq,
             Operand::constant(10)),
        atom(Operand::locOp(loc("A.f")), CondKind::Lt,
             Operand::constant(5))};
    EXPECT_FALSE(solveLocConstSystem(atoms));
}

/**
 * The map-based solver the sort-and-sweep one replaced, kept as the
 * reference oracle. One deviation: x < INT64_MIN and x > INT64_MAX are
 * unsatisfiable here, where the original computed v - 1 / v + 1 with
 * signed overflow.
 */
bool
referenceSolve(const std::vector<Atom> &atoms)
{
    struct Domain {
        int64_t lo{std::numeric_limits<int64_t>::min()};
        int64_t hi{std::numeric_limits<int64_t>::max()};
        bool hasEq{false};
        int64_t eq{0};
        std::set<int64_t> ne;
    };
    std::map<std::tuple<int, bool, analysis::FieldId>, Domain> domains;
    for (const Atom &a : atoms) {
        if (!a.lhs.isLoc() || !a.rhs.isConst())
            continue;
        Domain &d = domains[std::make_tuple(
            a.lhs.loc.obj, a.lhs.loc.isStatic, a.lhs.loc.key.id)];
        int64_t v = a.rhs.value;
        switch (a.cond) {
          case CondKind::Eq:
            if (d.hasEq && d.eq != v)
                return false;
            d.hasEq = true;
            d.eq = v;
            break;
          case CondKind::Ne:
            d.ne.insert(v);
            break;
          case CondKind::Lt:
            if (v == std::numeric_limits<int64_t>::min())
                return false;
            d.hi = std::min(d.hi, v - 1);
            break;
          case CondKind::Le:
            d.hi = std::min(d.hi, v);
            break;
          case CondKind::Gt:
            if (v == std::numeric_limits<int64_t>::max())
                return false;
            d.lo = std::max(d.lo, v + 1);
            break;
          case CondKind::Ge:
            d.lo = std::max(d.lo, v);
            break;
        }
    }
    for (const auto &[k, d] : domains) {
        if (d.lo > d.hi)
            return false;
        if (d.hasEq) {
            if (d.eq < d.lo || d.eq > d.hi || d.ne.count(d.eq))
                return false;
            continue;
        }
        uint64_t width = static_cast<uint64_t>(d.hi) -
                         static_cast<uint64_t>(d.lo);
        if (width != std::numeric_limits<uint64_t>::max() &&
            width + 1 <= d.ne.size()) {
            uint64_t count = 0;
            for (int64_t v : d.ne) {
                if (v >= d.lo && v <= d.hi)
                    ++count;
            }
            if (count >= width + 1)
                return false;
        }
    }
    return true;
}

constexpr CondKind kConds[] = {CondKind::Eq, CondKind::Ne, CondKind::Lt,
                               CondKind::Le, CondKind::Gt, CondKind::Ge};

/** Random draws for the property tests: values in [-3, 3] plus the
 *  int64 extremes, locations from a pool where one key sits on two
 *  objects and as a static. */
struct Draw {
    std::mt19937 rng;

    explicit Draw(uint32_t seed) : rng(seed) {}

    int
    below(int n)
    {
        return std::uniform_int_distribution<int>(0, n - 1)(rng);
    }
    int64_t
    value()
    {
        int v = below(9);
        if (v == 7)
            return std::numeric_limits<int64_t>::min();
        if (v == 8)
            return std::numeric_limits<int64_t>::max();
        return v - 3;
    }
    CondKind cond() { return kConds[below(6)]; }
    race::MemLoc
    location()
    {
        switch (below(4)) {
          case 0: return loc("P.f", 1);
          case 1: return loc("P.f", 2);
          case 2: {
            race::MemLoc l = loc("P.f", -1);
            l.isStatic = true;
            return l;
          }
          default: return loc("P.g", 1);
        }
    }
};

TEST(Solver, MatchesMapReferenceOnRandomConjunctions)
{
    Draw d(20261017);
    int sat = 0;
    int unsat = 0;
    for (int iter = 0; iter < 120000; ++iter) {
        // 1-3 locations, 1-6 atoms over them, some non-solver atoms.
        const int num_locs = 1 + d.below(3);
        std::vector<race::MemLoc> locs(num_locs);
        for (race::MemLoc &l : locs)
            l = d.location();
        std::vector<Atom> atoms;
        int n = 1 + d.below(6);
        for (int i = 0; i < n; ++i) {
            Operand lhs = Operand::locOp(locs[d.below(num_locs)]);
            Operand rhs = Operand::constant(d.value());
            if (d.below(10) == 0)
                lhs = Operand::regOp(d.below(3));
            else if (d.below(10) == 0)
                rhs = Operand::locOp(locs[d.below(num_locs)]);
            atoms.push_back(atom(lhs, d.cond(), rhs));
        }
        bool expected = referenceSolve(atoms);
        if (solveLocConstSystem(atoms) != expected) {
            std::string shown;
            for (const Atom &a : atoms)
                shown += a.toString() + "; ";
            FAIL() << "iteration " << iter << ": " << shown
                   << "reference says " << expected;
        }
        ++(expected ? sat : unsat);
    }
    EXPECT_GT(sat, 10000);
    EXPECT_GT(unsat, 10000);
}

/** Field-wise equality of two atom lists (Atom has no operator==). */
bool
sameAtoms(const std::vector<Atom> &x, const std::vector<Atom> &y)
{
    auto same = [](const Operand &a, const Operand &b) {
        return a.kind == b.kind && a.value == b.value && a.reg == b.reg &&
               a.loc == b.loc && a.loc.key.flags == b.loc.key.flags;
    };
    if (x.size() != y.size())
        return false;
    for (size_t i = 0; i < x.size(); ++i) {
        if (!same(x[i].lhs, y[i].lhs) || x[i].cond != y[i].cond ||
            !same(x[i].rhs, y[i].rhs)) {
            return false;
        }
    }
    return true;
}

TEST(Store, NoMatchSubstitutionLeavesAtomsUntouched)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::regOp(1), CondKind::Lt,
                           Operand::regOp(2))));
    ASSERT_TRUE(s.add(atom(Operand::constant(0), CondKind::Lt,
                           Operand::locOp(loc("T.x", 3)))));
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.x", 4)), CondKind::Ne,
                           Operand::constant(2))));
    const std::vector<Atom> before = s.atoms();

    EXPECT_TRUE(s.substituteReg(9, Operand::constant(0)));
    EXPECT_TRUE(s.substituteLoc(loc("T.x", 5), Operand::constant(0)));
    EXPECT_TRUE(s.substituteLoc(loc("T.y", 3), Operand::regOp(1)));
    EXPECT_TRUE(s.substituteKeyWithConst(key("T.y"), 7));
    EXPECT_TRUE(s.substituteKeyWithConst(key("T.x"), 7, {9}));
    EXPECT_TRUE(s.renameReg(8, 1));
    EXPECT_TRUE(sameAtoms(s.atoms(), before));
    EXPECT_TRUE(s.consistent());
}

/** The store's operations, applied literally: no simplification, no
 *  solving. */
struct Shadow {
    std::vector<Atom> atoms;

    template <typename Match>
    void
    substitute(Match matches, const Operand &value)
    {
        for (Atom &a : atoms) {
            if (matches(a.lhs))
                a.lhs = value;
            if (matches(a.rhs))
                a.rhs = value;
        }
    }
    template <typename Pred>
    void
    drop(Pred mentions)
    {
        std::erase_if(atoms, [&](const Atom &a) {
            return mentions(a.lhs) || mentions(a.rhs);
        });
    }

    /** Unsat from scratch: every atom added to a fresh store, which
     *  simplifies and solves on each add. */
    bool
    unsat() const
    {
        ConstraintStore fresh;
        for (const Atom &a : atoms)
            fresh.add(a);
        return fresh.failed();
    }
};

TEST(Store, RandomOperationsFailExactlyWhenUnsatFromScratch)
{
    Draw d(7);
    int failed = 0;
    int alive = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        ConstraintStore s;
        Shadow shadow;
        auto operand = [&]() {
            switch (d.below(5)) {
              case 0:
              case 1: return Operand::constant(d.value());
              case 2: return Operand::regOp(d.below(4));
              case 3: return Operand::locOp(d.location());
              default: return Operand::unknown();
            }
        };
        for (int step = 0; step < 12 && !s.failed(); ++step) {
            switch (d.below(7)) {
              case 0:
              case 1: {
                Atom a = atom(operand(), d.cond(), operand());
                s.add(a);
                shadow.atoms.push_back(a);
                break;
              }
              case 2: {
                int r = d.below(4);
                Operand v = operand();
                s.substituteReg(r, v);
                shadow.substitute(
                    [&](const Operand &o) {
                        return o.isReg() && o.reg == r;
                    },
                    v);
                break;
              }
              case 3: {
                race::MemLoc l = d.location();
                Operand v = operand();
                s.substituteLoc(l, v);
                shadow.substitute(
                    [&](const Operand &o) {
                        return o.isLoc() && o.loc == l;
                    },
                    v);
                break;
              }
              case 4: {
                race::MemLoc l = d.location();
                int64_t v = d.value();
                std::set<int> objs;
                if (d.below(2))
                    objs.insert(l.obj);
                s.substituteKeyWithConst(l.key, v, objs);
                shadow.substitute(
                    [&](const Operand &o) {
                        return o.isLoc() && o.loc.key == l.key &&
                               (objs.empty() || objs.count(o.loc.obj));
                    },
                    Operand::constant(v));
                break;
              }
              case 5: {
                analysis::FieldKey k = d.location().key;
                s.dropLocsByKey({k});
                shadow.drop([&](const Operand &o) {
                    return o.isLoc() && o.loc.key == k;
                });
                break;
              }
              default: {
                int lo = d.below(4);
                s.dropRegsInRange(lo, lo + 2);
                shadow.drop([&](const Operand &o) {
                    return o.isReg() && o.reg >= lo && o.reg < lo + 2;
                });
                break;
              }
            }
        }
        ASSERT_EQ(s.failed(), shadow.unsat()) << "sequence " << iter;
        if (!s.failed()) {
            ASSERT_TRUE(s.consistent()) << "sequence " << iter;
            ASSERT_TRUE(referenceSolve(s.atoms())) << "sequence " << iter;
        }
        ++(s.failed() ? failed : alive);
    }
    EXPECT_GT(failed, 1000);
    EXPECT_GT(alive, 1000);
}

TEST(Store, AddConstConstEvaluates)
{
    ConstraintStore s;
    EXPECT_TRUE(s.add(atom(Operand::constant(1), CondKind::Eq,
                           Operand::constant(1))));
    EXPECT_EQ(s.size(), 0u) << "trivially true atoms are dropped";
    EXPECT_FALSE(s.add(atom(Operand::constant(1), CondKind::Eq,
                            Operand::constant(2))));
    EXPECT_TRUE(s.failed());
}

TEST(Store, UnknownOperandsDrop)
{
    ConstraintStore s;
    EXPECT_TRUE(s.add(atom(Operand::unknown(), CondKind::Eq,
                           Operand::constant(2))));
    EXPECT_EQ(s.size(), 0u);
    EXPECT_TRUE(s.consistent());
}

TEST(Store, RegSubstitutionResolvesAtoms)
{
    ConstraintStore s;
    // r5 != 0, then (backward) r5 := loc, then loc := 0 -> contradiction.
    ASSERT_TRUE(s.add(atom(Operand::regOp(5), CondKind::Ne,
                           Operand::constant(0))));
    ASSERT_TRUE(s.substituteReg(5, Operand::locOp(loc("T.flag"))));
    EXPECT_EQ(s.size(), 1u);
    EXPECT_FALSE(
        s.substituteLoc(loc("T.flag"), Operand::constant(0)))
        << "strong update to 0 conflicts with != 0";
    EXPECT_TRUE(s.failed());
}

TEST(Store, StrongUpdateThroughRegister)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.flag")), CondKind::Eq,
                           Operand::constant(1))));
    // loc := r7 (backward over "putfield flag = r7")...
    ASSERT_TRUE(s.substituteLoc(loc("T.flag"), Operand::regOp(7)));
    // ...then r7 := 1 (backward over "const r7 = 1"): consistent.
    EXPECT_TRUE(s.substituteReg(7, Operand::constant(1)));
    EXPECT_TRUE(s.consistent());
}

TEST(Store, NormalizationSwapsConstLeft)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::constant(3), CondKind::Lt,
                           Operand::locOp(loc("T.x")))));
    // 3 < x normalizes to x > 3; adding x < 2 contradicts.
    EXPECT_FALSE(s.add(atom(Operand::locOp(loc("T.x")), CondKind::Lt,
                            Operand::constant(2))));
}

TEST(Store, DropHelpers)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::regOp(3), CondKind::Eq,
                           Operand::constant(1))));
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.a")), CondKind::Eq,
                           Operand::constant(1))));
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.b")), CondKind::Eq,
                           Operand::constant(2))));
    s.dropRegAtoms();
    EXPECT_EQ(s.size(), 2u);
    s.dropLocsByKey({key("T.a")});
    EXPECT_EQ(s.size(), 1u);
    s.dropRegsInRange(0, 10); // no reg atoms left: no-op
    EXPECT_EQ(s.size(), 1u);
}

TEST(Store, DropRegsInRange)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::regOp(65536 + 2), CondKind::Eq,
                           Operand::constant(1))));
    ASSERT_TRUE(s.add(atom(Operand::regOp(3), CondKind::Eq,
                           Operand::constant(1))));
    s.dropRegsInRange(65536, 2 * 65536);
    EXPECT_EQ(s.size(), 1u) << "only the second frame's atom dropped";
}

TEST(Store, SubstituteKeyWithConst)
{
    ConstraintStore s;
    race::MemLoc what = loc("android.os.Message.what", 42);
    ASSERT_TRUE(s.add(atom(Operand::locOp(what), CondKind::Eq,
                           Operand::constant(2))));
    EXPECT_FALSE(
        s.substituteKeyWithConst(key("android.os.Message.what"), 1))
        << "a what==2 guard cannot hold for a what=1 message";
}

TEST(Store, SelfComparisonSimplifies)
{
    ConstraintStore s;
    EXPECT_TRUE(s.add(atom(Operand::locOp(loc("T.x")), CondKind::Eq,
                           Operand::locOp(loc("T.x")))));
    EXPECT_EQ(s.size(), 0u);
    EXPECT_FALSE(s.add(atom(Operand::locOp(loc("T.x")), CondKind::Ne,
                            Operand::locOp(loc("T.x")))));
}

TEST(Store, ToStringShowsAtoms)
{
    ConstraintStore s;
    ASSERT_TRUE(s.add(atom(Operand::locOp(loc("T.flag")), CondKind::Ne,
                           Operand::constant(0))));
    EXPECT_NE(s.toString().find("T.flag"), std::string::npos);
    EXPECT_NE(s.toString().find("ne"), std::string::npos);
}

} // namespace
} // namespace sierra::symbolic
