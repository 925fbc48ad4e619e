/**
 * @file
 * Goal-directed backward symbolic execution (paper Section 5).
 *
 * A query asks: can action B run to completion and then action A run up
 * to the access alpha_A, along some feasible pair of paths? The executor
 * walks backward from alpha_A to A's entry -- descending into callees
 * (with frame-tagged registers and an explicit call stack) and crossing
 * from callee entries to callers within the action -- then backward
 * through B's body from its exits, applying weakest-precondition
 * substitutions. Strong updates to guard fields (e.g. "mIsRunning =
 * false") conflict with collected path constraints and prune paths; if
 * every path is pruned the ordering is infeasible.
 */

#ifndef SIERRA_SYMBOLIC_EXECUTOR_HH
#define SIERRA_SYMBOLIC_EXECUTOR_HH

#include <array>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/points_to.hh"
#include "constraint.hh"
#include "race/access.hh"

namespace sierra::analysis {
class InterConstants;
} // namespace sierra::analysis

namespace sierra::symbolic {

/** Result of one ordering query. */
enum class QueryVerdict {
    Feasible,   //!< a consistent path witnesses the ordering
    Infeasible, //!< all paths pruned: the ordering cannot happen
    Budget,     //!< path/step budget exhausted (treated as feasible)
};

const char *queryVerdictName(QueryVerdict v);

/** Executor tuning knobs. */
struct ExecutorOptions {
    int maxPaths{5000};   //!< terminated-path budget per query (paper's)
    int maxDepth{512};    //!< per-path backward step limit
    int maxSteps{200000}; //!< total state-expansion budget per query
    int maxCallDepth{8};  //!< descend limit; deeper calls are havocked
    /**
     * The paper's aggressive refuted-node cache (Section 5): nodes
     * visited by a refuted query prune later paths. It is unsound (it
     * ignores the constraint context), so it is off by default here and
     * measured by the cache ablation bench. A sound query-level memo is
     * always on.
     */
    bool useNodeCache{false};
    /**
     * Interprocedural constant facts (analysis::InterConstants, the
     * IFDS stage) -- the walk's only constant facts. When set, the
     * walk concretizes otherwise-unknown register writes (arithmetic,
     * setter parameters, callee returns), prunes infeasible pred
     * edges, and -- the big lever -- replaces call-site havoc of
     * must-write-constant fields with strong constant updates, so
     * guard clears hidden behind deep setter chains still conflict
     * with path constraints.
     * The object is read-only here and shared across refuter workers;
     * it must outlive the executor. Measured by bench_ablation_ifds.
     */
    const analysis::InterConstants *inter{nullptr};
};

/** Counters for the evaluation tables. */
struct ExecutorStats {
    int64_t queries{0};
    int64_t pathsExplored{0};
    int64_t statesExpanded{0};
    int64_t cacheHits{0};
    int64_t budgetExhausted{0};
    //! predecessor edges skipped via constant-infeasible branches
    int64_t interPruned{0};
    //! interprocedural concretizations (returns, must-write fields)
    int64_t interApplied{0};

    /**
     * Fold another executor's counters in. Plain component-wise sums,
     * so the merge is associative and commutative: sharded refutation
     * can combine per-worker stats in any grouping and get the same
     * totals. (cacheHits still depends on which queries shared an
     * executor's memo, so it may differ *across* jobs counts.)
     */
    void
    merge(const ExecutorStats &o)
    {
        queries += o.queries;
        pathsExplored += o.pathsExplored;
        statesExpanded += o.statesExpanded;
        cacheHits += o.cacheHits;
        budgetExhausted += o.budgetExhausted;
        interPruned += o.interPruned;
        interApplied += o.interApplied;
    }
};

/**
 * A refuted-node cache shareable between concurrently running
 * executors (paper Section 5 "Caching", here under sharded
 * refutation). Lock-striped: membership tests and bulk inserts lock
 * only the stripe a node hashes to, so parallel workers rarely
 * contend but still see each other's refutations promptly.
 */
class RefutedNodeCache
{
  public:
    bool
    contains(analysis::NodeId n) const
    {
        const Stripe &s = stripeFor(n);
        std::lock_guard<std::mutex> lock(s.mutex);
        return s.nodes.count(n) > 0;
    }

    template <typename Container>
    void
    insertAll(const Container &nodes)
    {
        for (analysis::NodeId n : nodes) {
            Stripe &s = stripeFor(n);
            std::lock_guard<std::mutex> lock(s.mutex);
            s.nodes.insert(n);
        }
    }

    size_t
    size() const
    {
        size_t total = 0;
        for (const Stripe &s : _stripes) {
            std::lock_guard<std::mutex> lock(s.mutex);
            total += s.nodes.size();
        }
        return total;
    }

  private:
    static constexpr size_t kStripes = 16;

    struct Stripe {
        mutable std::mutex mutex;
        std::unordered_set<analysis::NodeId> nodes;
    };

    const Stripe &
    stripeFor(analysis::NodeId n) const
    {
        return _stripes[static_cast<size_t>(n) % kStripes];
    }
    Stripe &
    stripeFor(analysis::NodeId n)
    {
        return _stripes[static_cast<size_t>(n) % kStripes];
    }

    std::array<Stripe, kStripes> _stripes;
};

/**
 * Backward symbolic executor over one pointer-analysis result. The
 * refuted-node cache persists across queries (by design, see paper).
 *
 * An executor is single-threaded; parallel refutation runs one
 * executor per worker. Passing a `shared_cache` lets those workers
 * pool their refuted nodes (only consulted when
 * `options.useNodeCache` is set); with no shared cache the executor
 * owns a private one.
 */
class BackwardExecutor
{
  public:
    BackwardExecutor(const analysis::PointsToResult &result,
                     ExecutorOptions options = {},
                     RefutedNodeCache *shared_cache = nullptr);

    /**
     * Is the ordering "B completes, then A runs and reaches `access`"
     * feasible? `access` must be executable under action_a.
     */
    QueryVerdict orderFeasible(const race::Access &access, int action_a,
                               int action_b);

    const ExecutorStats &stats() const { return _stats; }

  private:
    //! frame-tagged register keys: frame f, register r -> f*stride + r
    static constexpr int kFrameStride = 1 << 16;

    struct Frame {
        analysis::NodeId node{-1};
        int instr{0}; //!< caller position to resume at
        int frame{0}; //!< caller's register-frame id
    };

    struct PathState {
        int phase{0}; //!< 0 = inside A, 1 = inside B
        analysis::NodeId node{-1};
        int instr{0};
        bool skipEffect{false};
        int depth{0};
        int frame{0};
        int nextFrame{1};
        std::vector<Frame> callStack;
        ConstraintStore store;
    };

    static int
    regKey(int frame, int reg)
    {
        return frame * kFrameStride + reg;
    }

    const analysis::Cfg &cfgOf(const air::Method *m);

    /** Keys of fields possibly written by a node (transitively); used
     *  to havoc calls beyond the descend limit. */
    const std::vector<analysis::FieldKey> &
    mayWriteKeys(analysis::NodeId n);
    /** Add the keys `n` and its unseen callees write to `keys`. */
    void collectMayWrites(analysis::NodeId n,
                          std::set<analysis::FieldKey> &keys,
                          std::unordered_set<analysis::NodeId> &seen);

    //! memoised interned keys: the PointsToResult builds each one from
    //! strings, and the walk asks for the same few over and over
    analysis::FieldKey fieldKeyOf(const air::FieldRef &field,
                                  analysis::ObjId o);
    analysis::FieldKey staticKeyOf(const air::FieldRef &field);
    //! the field's declared "Class.field" key (weak-update havoc)
    analysis::FieldKey declaredKeyOf(const air::FieldRef &field);
    //! an array object's element wildcard key
    analysis::FieldKey elemsKeyOf(analysis::ObjId o);
    template <typename Make>
    analysis::FieldKey memoKey(const air::FieldRef *field,
                               analysis::ObjId slot, Make make);

    /** Apply instruction backward transfer (non-invoke); false=prune. */
    bool transfer(PathState &st, const air::Instruction &instr);

    /** Handle an invoke backward: descend into callees or havoc. Pushes
     *  successor states; returns false when the state was fully handled
     *  by descent (so the caller must not continue this state). */
    bool handleInvoke(PathState &st, const air::Instruction &instr,
                      std::vector<PathState> &stack);

    /** Handle reaching instruction 0 of a method. Returns true when the
     *  whole query is feasible. */
    bool atEntry(PathState st, int action_a, int action_b,
                 std::vector<PathState> &stack);

    /** Rename callee frame registers to the caller's argument registers
     *  at a frame boundary. */
    bool bindFrame(ConstraintStore &store, const air::Method *callee,
                   int callee_frame, const air::Instruction &call,
                   int caller_frame);

    bool startPhaseB(const PathState &st, int action_b,
                     std::vector<PathState> &stack);

    bool resolveLoc(analysis::NodeId n, int reg,
                    const air::FieldRef &field, race::MemLoc &out);

    const analysis::PointsToResult &_r;
    ExecutorOptions _opts;
    ExecutorStats _stats;

    std::unordered_map<const air::Method *,
                       std::unique_ptr<analysis::Cfg>>
        _cfgs;
    std::unordered_map<analysis::NodeId,
                       std::vector<analysis::FieldKey>>
        _mayWrite;
    //! _keyMemo slots that are not object ids
    static constexpr analysis::ObjId kStaticSlot = -1;
    static constexpr analysis::ObjId kDeclaredSlot = -2;
    struct KeyMemoHash {
        size_t
        operator()(
            const std::pair<const air::FieldRef *, analysis::ObjId> &p)
            const
        {
            return std::hash<const void *>()(p.first) * 1000003u ^
                   std::hash<int>()(p.second);
        }
    };
    //! (field ref, object or slot) -> key; a null field ref with an
    //! object is that array object's element wildcard
    std::unordered_map<std::pair<const air::FieldRef *, analysis::ObjId>,
                       analysis::FieldKey, KeyMemoHash>
        _keyMemo;
    //! refuted-query node cache (paper Section 5 "Caching"); points at
    //! _ownedCache unless a shared cache was injected
    RefutedNodeCache *_nodeCache;
    std::unique_ptr<RefutedNodeCache> _ownedCache;
    //! nodes visited by the current query's phase-A walk (filled only
    //! when the node cache is on: nothing else reads it)
    std::set<analysis::NodeId> _queryVisited;
    //! sound memoization of whole queries
    std::map<std::tuple<analysis::SiteId, int, int>, QueryVerdict>
        _queryMemo;
};

} // namespace sierra::symbolic

#endif // SIERRA_SYMBOLIC_EXECUTOR_HH
