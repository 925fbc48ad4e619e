/** @file Tests for backward symbolic execution and refutation (Fig. 8). */

#include <gtest/gtest.h>

#include "corpus/patterns.hh"
#include "hb/rules.hh"
#include "symbolic/refuter.hh"
#include "test_helpers.hh"

namespace sierra::symbolic {

void
PrintTo(QueryVerdict v, std::ostream *os)
{
    *os << queryVerdictName(v);
}

namespace {

using test::makePipeline;

struct Analyzed {
    test::Pipeline pipeline;
    std::unique_ptr<analysis::PointsToResult> pta;
    std::unique_ptr<hb::Shbg> shbg;
    std::vector<race::Access> accesses;
    std::vector<race::RacyPair> pairs;
};

template <typename Fill>
Analyzed
analyze(const std::string &name, Fill fill)
{
    Analyzed a{makePipeline(name, fill), nullptr, nullptr, {}, {}};
    analysis::PointsToAnalysis pta(
        a.pipeline.app(), a.pipeline.detector->plans()[0], {});
    a.pta = pta.run();
    hb::HbBuilder builder(*a.pta, a.pipeline.detector->plans()[0],
                          a.pipeline.app());
    a.shbg = builder.build();
    a.accesses = race::extractAccesses(*a.pta);
    a.pairs =
        race::findRacyPairs(*a.pta, *a.shbg, a.accesses, {});
    return a;
}

const race::RacyPair *
pairOn(const Analyzed &a, const std::string &key_needle)
{
    for (const auto &p : a.pairs) {
        if (p.loc.key.find(key_needle) != std::string::npos)
            return &p;
    }
    return nullptr;
}

TEST(Executor, Fig8GuardedWriteIsOrderRefuted)
{
    auto a = analyze("exec-fig8", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("SudokuActivity");
        corpus::addGuardedTimer(f, act);
    });
    const race::RacyPair *p = pairOn(a, "mAccumTime");
    ASSERT_NE(p, nullptr) << "candidate exists before refutation";
    ASSERT_FALSE(p->actionPairs.empty());

    BackwardExecutor exec(*a.pta, {});
    bool any_infeasible = false;
    for (const auto &e : p->actionPairs) {
        QueryVerdict d1 = exec.orderFeasible(a.accesses[e.access1],
                                             e.action1, e.action2);
        QueryVerdict d2 = exec.orderFeasible(a.accesses[e.access2],
                                             e.action2, e.action1);
        any_infeasible |= d1 == QueryVerdict::Infeasible ||
                          d2 == QueryVerdict::Infeasible;
    }
    EXPECT_TRUE(any_infeasible)
        << "the mIsRunning strong update refutes one ordering";
    EXPECT_GT(exec.stats().queries, 0);
}

TEST(Executor, GuardVariableRaceItselfSurvives)
{
    auto a = analyze("exec-guardvar", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("GvActivity");
        corpus::addGuardedTimer(f, act);
    });
    // read mIsRunning in run() vs write in stop(): both orders feasible.
    const race::RacyPair *target = nullptr;
    for (const auto &p : a.pairs) {
        if (p.loc.key.find("mIsRunning") == std::string::npos)
            continue;
        const race::Access &x = a.accesses[p.access1];
        const race::Access &y = a.accesses[p.access2];
        if (x.isWrite != y.isWrite) { // the read/write pair
            target = &p;
            break;
        }
    }
    ASSERT_NE(target, nullptr);

    BackwardExecutor exec(*a.pta, {});
    bool survives = false;
    for (const auto &e : target->actionPairs) {
        QueryVerdict d1 = exec.orderFeasible(a.accesses[e.access1],
                                             e.action1, e.action2);
        QueryVerdict d2 = exec.orderFeasible(a.accesses[e.access2],
                                             e.action2, e.action1);
        survives |= d1 != QueryVerdict::Infeasible &&
                    d2 != QueryVerdict::Infeasible;
    }
    EXPECT_TRUE(survives);
}

TEST(Executor, MessageWhatRefutesWrongBranch)
{
    auto a = analyze("exec-what", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("WhatActivity");
        corpus::addMessageGuard(f, act);
    });
    // The flagA write is guarded by what != 2; under the what=2 message
    // action it is unreachable.
    const race::Access *flag_a_write = nullptr;
    int what2_action = -1;
    for (const auto &acc : a.accesses) {
        if (acc.isWrite && acc.fieldName == "flagA")
            flag_a_write = &acc;
    }
    for (const auto &act : a.pta->actions.all()) {
        if (act.messageWhat == 2)
            what2_action = act.id;
    }
    ASSERT_NE(flag_a_write, nullptr);
    ASSERT_GE(what2_action, 0);

    // Find the flagA access instance executable under the what=2
    // action.
    const race::Access *under_what2 = nullptr;
    for (const auto &acc : a.accesses) {
        if (acc.isWrite && acc.fieldName == "flagA" &&
            a.pta->cg.actionsOf(acc.node).count(what2_action)) {
            under_what2 = &acc;
        }
    }
    ASSERT_NE(under_what2, nullptr);

    BackwardExecutor exec(*a.pta, {});
    // Any second action will do: pick the harness-root-created gui one.
    int other = test::findAction(*a.pta, "onSendOne");
    ASSERT_GE(other, 0);
    EXPECT_EQ(exec.orderFeasible(*under_what2, what2_action, other),
              QueryVerdict::Infeasible)
        << "on-demand constant propagation: what=2 cannot take the "
           "what!=2 branch";
}

TEST(Executor, QueryMemoizationHits)
{
    auto a = analyze("exec-memo", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("MemoActivity");
        corpus::addGuardedTimer(f, act);
    });
    const race::RacyPair *p = pairOn(a, "mAccumTime");
    ASSERT_NE(p, nullptr);
    ASSERT_FALSE(p->actionPairs.empty());
    const auto &e = p->actionPairs[0];

    BackwardExecutor exec(*a.pta, {});
    QueryVerdict first = exec.orderFeasible(a.accesses[e.access1],
                                            e.action1, e.action2);
    int64_t hits_before = exec.stats().cacheHits;
    QueryVerdict second = exec.orderFeasible(a.accesses[e.access1],
                                             e.action1, e.action2);
    EXPECT_EQ(first, second);
    EXPECT_GT(exec.stats().cacheHits, hits_before);
}

TEST(Executor, BudgetExhaustionReportsBudget)
{
    auto a = analyze("exec-budget", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("BgtActivity");
        corpus::addGuardedTimer(f, act);
    });
    const race::RacyPair *p = pairOn(a, "mIsRunning");
    ASSERT_NE(p, nullptr);
    const auto &e = p->actionPairs[0];

    ExecutorOptions tiny;
    tiny.maxSteps = 1;
    BackwardExecutor exec(*a.pta, tiny);
    EXPECT_EQ(exec.orderFeasible(a.accesses[e.access1], e.action1,
                                 e.action2),
              QueryVerdict::Budget);
    EXPECT_GT(exec.stats().budgetExhausted, 0);
}

TEST(Executor, PathPastMaxDepthReportsBudget)
{
    // The only path from onResume's mX write back to its entry is 21
    // instructions long; onPause's is 2. A depth limit of 10 cuts the
    // long walk whether it is phase A (the onResume write's query) or
    // phase B (the onPause write's query, walking onResume after
    // it). A cut walk is unfinished, not refuted: the query answers
    // Budget, never Infeasible.
    auto a = analyze("exec-depth", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("DepthActivity");
        const std::string cls = act.name();
        act.addField("mX", air::Type::intTy());
        act.on("onResume", [=](air::MethodBuilder &b) {
            int t = b.newReg();
            for (int i = 0; i < 20; ++i)
                b.constInt(t, i);
            b.putField(b.thisReg(), corpus::fieldRef(cls, "mX"), t);
        });
        act.on("onPause", [=](air::MethodBuilder &b) {
            int zero = b.newReg();
            b.constInt(zero, 0);
            b.putField(b.thisReg(), corpus::fieldRef(cls, "mX"), zero);
        });
    });
    const int resume = test::findAction(*a.pta, "onResume");
    const int pause = test::findAction(*a.pta, "onPause");
    const race::Access *resume_write = nullptr;
    const race::Access *pause_write = nullptr;
    for (const auto &acc : a.accesses) {
        if (!acc.isWrite || acc.fieldName != "mX")
            continue;
        const auto &actions = a.pta->cg.actionsOf(acc.node);
        if (actions.count(resume))
            resume_write = &acc;
        if (actions.count(pause))
            pause_write = &acc;
    }
    ASSERT_NE(resume_write, nullptr);
    ASSERT_NE(pause_write, nullptr);

    BackwardExecutor fits(*a.pta, {});
    EXPECT_EQ(fits.orderFeasible(*resume_write, resume, pause),
              QueryVerdict::Feasible);
    EXPECT_EQ(fits.orderFeasible(*pause_write, pause, resume),
              QueryVerdict::Feasible);

    BackwardExecutor cut(*a.pta, {.maxDepth = 10});
    EXPECT_EQ(cut.orderFeasible(*resume_write, resume, pause),
              QueryVerdict::Budget)
        << "phase A cut";
    EXPECT_EQ(cut.orderFeasible(*pause_write, pause, resume),
              QueryVerdict::Budget)
        << "phase B cut";
    EXPECT_EQ(cut.stats().budgetExhausted, 2);
}

TEST(Executor, CallHavocCoversWritesOfARecursiveCycle)
{
    // arm() sets the guard mOn and may call bounce(); bounce() may call
    // arm(). onPause arms, reads mHits, clears the guard and then calls
    // bounce(), which can re-arm it: onPause followed by onResume's
    // guarded mHits write is a feasible ordering. With every call
    // havocked (maxCallDepth 0), the havoc of bounce() must drop mOn,
    // a key only its cycle partner writes -- also after a havoc of
    // arm() has computed the cycle's may-write sets starting from arm.
    auto a = analyze("exec-recursion", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("RecActivity");
        const std::string cls = act.name();
        act.addField("mOn", air::Type::intTy());
        act.addField("mHits", air::Type::intTy());
        auto define = [&](const std::string &name,
                          const std::string &partner, bool sets_guard) {
            air::Method *m = act.klass()->addMethod(
                name, {}, air::Type::voidTy(), false);
            air::MethodBuilder b(m);
            air::Label l_end = b.newLabel();
            if (sets_guard) {
                int one = b.newReg();
                b.constInt(one, 1);
                b.putField(b.thisReg(), corpus::fieldRef(cls, "mOn"),
                           one);
            }
            int r = b.newReg();
            b.callStatic(r, "sierra.Nondet", "choose");
            b.ifz(r, air::CondKind::Eq, l_end);
            b.call(b.thisReg(), cls, partner, {});
            b.bind(l_end);
            b.retVoid();
            b.finish();
        };
        define("arm", "bounce", true);
        define("bounce", "arm", false);
        auto clear_guard = [cls](air::MethodBuilder &b) {
            int zero = b.newReg();
            b.constInt(zero, 0);
            b.putField(b.thisReg(), corpus::fieldRef(cls, "mOn"), zero);
        };
        act.on("onResume", [=](air::MethodBuilder &b) {
            air::Label l_end = b.newLabel();
            int r = b.newReg();
            b.getField(r, b.thisReg(), corpus::fieldRef(cls, "mOn"));
            b.ifz(r, air::CondKind::Eq, l_end);
            int hits = b.newReg();
            int one = b.newReg();
            int sum = b.newReg();
            b.getField(hits, b.thisReg(), corpus::fieldRef(cls, "mHits"));
            b.constInt(one, 1);
            b.binOp(sum, air::BinOpKind::Add, hits, one);
            b.putField(b.thisReg(), corpus::fieldRef(cls, "mHits"), sum);
            b.bind(l_end);
        });
        act.on("onPause", [=](air::MethodBuilder &b) {
            b.call(b.thisReg(), cls, "arm", {});
            int hits = b.newReg();
            b.getField(hits, b.thisReg(), corpus::fieldRef(cls, "mHits"));
            clear_guard(b);
            b.call(b.thisReg(), cls, "bounce", {});
        });
        act.on("onStop", clear_guard);
    });
    const int resume = test::findAction(*a.pta, "onResume");
    const int pause = test::findAction(*a.pta, "onPause");
    const int stop = test::findAction(*a.pta, "onStop");
    ASSERT_GE(resume, 0);
    ASSERT_GE(pause, 0);
    ASSERT_GE(stop, 0);
    auto find_access = [&](bool is_write, int action) {
        const race::Access *found = nullptr;
        for (const auto &acc : a.accesses) {
            if (acc.isWrite == is_write && acc.fieldName == "mHits" &&
                a.pta->cg.actionsOf(acc.node).count(action)) {
                found = &acc;
            }
        }
        return found;
    };
    const race::Access *resume_write = find_access(true, resume);
    const race::Access *pause_read = find_access(false, pause);
    ASSERT_NE(resume_write, nullptr);
    ASSERT_NE(pause_read, nullptr);

    ExecutorOptions havoc_all;
    havoc_all.maxCallDepth = 0;
    BackwardExecutor exec(*a.pta, havoc_all);
    EXPECT_EQ(exec.orderFeasible(*resume_write, resume, stop),
              QueryVerdict::Infeasible)
        << "a plain guard clear refutes the ordering";
    // Walking back from the read havocs arm() first.
    exec.orderFeasible(*pause_read, pause, resume);
    EXPECT_EQ(exec.orderFeasible(*resume_write, resume, pause),
              QueryVerdict::Feasible)
        << "bounce() may re-arm the guard through arm()";
}

/**
 * onResume writes mX next to its entry and mY past a long straight run
 * and a branch whose fallthrough contradicts a constant; onPause clears
 * mZ and returns along one arm that needs mZ == 0 and one that needs
 * mZ != 0. Both walks back from onResume reach its entry with an empty
 * store, so the two queries ordering onPause first share one phase-B
 * walk; the mY query starts it deeper and after more steps and paths.
 */
struct PhaseBQueries {
    Analyzed a;
    const race::Access *shallow{nullptr}; //!< the mX write
    const race::Access *deep{nullptr};    //!< the mY write
    int resume{-1};
    int pause{-1};
};

PhaseBQueries
phaseBQueries()
{
    PhaseBQueries q{analyze("exec-phaseb", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("PbActivity");
        const std::string cls = act.name();
        act.addField("mX", air::Type::intTy());
        act.addField("mY", air::Type::intTy());
        act.addField("mZ", air::Type::intTy());
        act.on("onResume", [=](air::MethodBuilder &b) {
            int one = b.newReg();
            b.constInt(one, 1);
            b.putField(b.thisReg(), corpus::fieldRef(cls, "mX"), one);
            int t = b.newReg();
            for (int i = 0; i < 24; ++i)
                b.constInt(t, i);
            air::Label l_write = b.newLabel();
            b.ifz(one, air::CondKind::Ne, l_write);
            b.nop(); // reached only if one == 0: a path that ends
            b.bind(l_write);
            b.putField(b.thisReg(), corpus::fieldRef(cls, "mY"), one);
        });
        act.on("onPause", [=](air::MethodBuilder &b) {
            int zero = b.newReg();
            b.constInt(zero, 0);
            b.putField(b.thisReg(), corpus::fieldRef(cls, "mZ"), zero);
            int z = b.newReg();
            b.getField(z, b.thisReg(), corpus::fieldRef(cls, "mZ"));
            air::Label l_set = b.newLabel();
            b.ifz(z, air::CondKind::Ne, l_set);
            b.retVoid();
            b.bind(l_set);
            b.retVoid();
        });
    })};
    q.resume = test::findAction(*q.a.pta, "onResume");
    q.pause = test::findAction(*q.a.pta, "onPause");
    for (const auto &acc : q.a.accesses) {
        if (!acc.isWrite ||
            !q.a.pta->cg.actionsOf(acc.node).count(q.resume)) {
            continue;
        }
        if (acc.fieldName == "mX")
            q.shallow = &acc;
        if (acc.fieldName == "mY")
            q.deep = &acc;
    }
    return q;
}

/** `second`'s verdict (onResume after onPause) once `first` ran on the
 *  same executor; `reused` tells whether it replayed a phase-B walk. */
QueryVerdict
after(const PhaseBQueries &q, const race::Access &first,
      const race::Access &second, ExecutorOptions opts,
      bool *reused = nullptr)
{
    BackwardExecutor exec(*q.a.pta, opts);
    exec.orderFeasible(first, q.resume, q.pause);
    const int64_t before = exec.stats().phaseBReuses;
    QueryVerdict v = exec.orderFeasible(second, q.resume, q.pause);
    if (reused)
        *reused = exec.stats().phaseBReuses > before;
    return v;
}

/** `access`'s verdict on a fresh executor. */
QueryVerdict
alone(const PhaseBQueries &q, const race::Access &access,
      ExecutorOptions opts)
{
    BackwardExecutor exec(*q.a.pta, opts);
    return exec.orderFeasible(access, q.resume, q.pause);
}

TEST(Executor, SamePhaseBEntryIsWalkedOnce)
{
    PhaseBQueries q = phaseBQueries();
    ASSERT_NE(q.shallow, nullptr);
    ASSERT_NE(q.deep, nullptr);
    ASSERT_GE(q.pause, 0);

    BackwardExecutor fresh(*q.a.pta, {});
    const QueryVerdict alone =
        fresh.orderFeasible(*q.deep, q.resume, q.pause);
    EXPECT_EQ(fresh.stats().phaseBReuses, 0);

    BackwardExecutor exec(*q.a.pta, {});
    EXPECT_EQ(exec.orderFeasible(*q.shallow, q.resume, q.pause),
              QueryVerdict::Feasible);
    const int64_t states = exec.stats().statesExpanded;
    EXPECT_EQ(exec.orderFeasible(*q.deep, q.resume, q.pause), alone);
    EXPECT_EQ(alone, QueryVerdict::Feasible);
    EXPECT_EQ(exec.stats().phaseBReuses, 1);
    EXPECT_LT(exec.stats().statesExpanded - states,
              fresh.stats().statesExpanded)
        << "the replayed phase B expands no state";
}

TEST(Executor, PhaseBReplayTripsTheBudgetWhereAWalkWould)
{
    PhaseBQueries q = phaseBQueries();
    ASSERT_NE(q.shallow, nullptr);
    ASSERT_NE(q.deep, nullptr);

    // Without reuse every pop is an expansion: N is the step count
    // the deep query needs.
    BackwardExecutor fresh(*q.a.pta, {});
    ASSERT_EQ(fresh.orderFeasible(*q.deep, q.resume, q.pause),
              QueryVerdict::Feasible);
    ASSERT_EQ(fresh.stats().phaseBReuses, 0);
    const int n = static_cast<int>(fresh.stats().statesExpanded);

    const race::Access &shallow = *q.shallow;
    const race::Access &deep = *q.deep;
    bool reused = false;
    EXPECT_EQ(after(q, shallow, deep, {.maxSteps = n}, &reused),
              QueryVerdict::Feasible);
    EXPECT_TRUE(reused);
    EXPECT_EQ(after(q, shallow, deep, {.maxSteps = n - 1}, &reused),
              QueryVerdict::Budget);
    EXPECT_TRUE(reused) << "the shallow query fits in " << n - 1
                        << " steps and records the walk";

    // The same for paths: M is the fewest maxPaths a fresh walk of the
    // deep query needs.
    int m = 0;
    while (alone(q, deep, {.maxPaths = m}) == QueryVerdict::Budget)
        ++m;
    ASSERT_GT(m, 0);
    EXPECT_EQ(after(q, shallow, deep, {.maxPaths = m}, &reused),
              QueryVerdict::Feasible);
    EXPECT_TRUE(reused);
    EXPECT_EQ(after(q, shallow, deep, {.maxPaths = m - 1}, &reused),
              QueryVerdict::Budget);
    EXPECT_TRUE(reused);

    // Every budget on either side of both boundaries agrees with a
    // fresh walk.
    for (int steps = 1; steps <= n + 1; ++steps) {
        EXPECT_EQ(after(q, shallow, deep, {.maxSteps = steps}),
                  alone(q, deep, {.maxSteps = steps}))
            << "maxSteps " << steps;
    }
    for (int paths = 0; paths <= m + 1; ++paths) {
        EXPECT_EQ(after(q, shallow, deep, {.maxPaths = paths}),
                  alone(q, deep, {.maxPaths = paths}))
            << "maxPaths " << paths;
    }
}

TEST(Executor, PhaseBWalkIsNotReplayedPastMaxDepth)
{
    PhaseBQueries q = phaseBQueries();
    ASSERT_NE(q.shallow, nullptr);
    ASSERT_NE(q.deep, nullptr);
    const race::Access &shallow = *q.shallow;
    const race::Access &deep = *q.deep;

    // Somewhere the shallow query's phase B fits under maxDepth while
    // the deep query's, started deeper, does not. There a replay of
    // the shallow walk would turn the deep query's Budget into
    // Feasible, and a record of the deep walk, which the limit cut,
    // would turn the shallow query's Feasible into something else.
    bool boundary_seen = false;
    for (int depth = 1; depth <= 64; ++depth) {
        const ExecutorOptions opts{.maxDepth = depth};
        bool reused = false;
        const QueryVerdict deep_alone = alone(q, deep, opts);
        EXPECT_EQ(after(q, shallow, deep, opts, &reused), deep_alone)
            << "maxDepth " << depth;
        EXPECT_EQ(after(q, deep, shallow, opts),
                  alone(q, shallow, opts))
            << "maxDepth " << depth;
        if (alone(q, shallow, opts) == QueryVerdict::Feasible &&
            deep_alone == QueryVerdict::Budget) {
            boundary_seen = true;
            EXPECT_FALSE(reused) << "maxDepth " << depth;
        }
    }
    EXPECT_TRUE(boundary_seen);
}

TEST(Refuter, MarksTrapsAndKeepsTrueRaces)
{
    auto a = analyze("refuter", [](corpus::AppFactory &f) {
        auto &act = f.addActivity("RefActivity");
        corpus::addGuardedTimer(f, act);
        corpus::addThreadRace(f, act);
    });
    RefutationStats stats =
        refuteRaces(*a.pta, a.accesses, a.pairs, {});
    EXPECT_EQ(stats.refuted + stats.survived,
              static_cast<int>(a.pairs.size()));
    EXPECT_GT(stats.refuted, 0);
    EXPECT_GT(stats.survived, 0);

    for (const auto &p : a.pairs) {
        if (p.loc.key.find("mAccumTime") != std::string::npos) {
            EXPECT_TRUE(p.refuted) << p.loc.key;
        }
        if (p.loc.key.find("result$") != std::string::npos) {
            EXPECT_FALSE(p.refuted) << p.loc.key;
        }
    }
}

TEST(Refuter, VerdictNames)
{
    EXPECT_STREQ(queryVerdictName(QueryVerdict::Feasible), "feasible");
    EXPECT_STREQ(queryVerdictName(QueryVerdict::Infeasible),
                 "infeasible");
    EXPECT_STREQ(queryVerdictName(QueryVerdict::Budget), "budget");
}

} // namespace
} // namespace sierra::symbolic
