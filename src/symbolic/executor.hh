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

#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

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
    Budget,     //!< path/step/depth budget exhausted (treated as feasible)
};

const char *queryVerdictName(QueryVerdict v);

/** Executor tuning knobs. */
struct ExecutorOptions {
    int maxPaths{5000};   //!< terminated-path budget per query (paper's)
    int maxDepth{512};    //!< per-path backward step limit (else Budget)
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
    //! phase-B walks replayed from an earlier walk of the same action
    //! from the same entry store (their states are not expanded again)
    int64_t phaseBReuses{0};
};

/**
 * Backward symbolic executor over one pointer-analysis result. The
 * refuted-node cache persists across queries (by design, see paper),
 * and so do the query memo and the recorded phase-B walks. An executor
 * is single-threaded.
 *
 * Phase B -- the walk back through action B from its exits to its
 * entry -- depends only on B, the entry store phase A reached and that
 * store's depth. Each completed walk is recorded under (B, store) and
 * replayed when another phase-A path, in this or a later query,
 * reaches the same store: same verdict, budget trips included
 * (docs/INTERNALS.md section 5).
 */
class BackwardExecutor
{
  public:
    /**
     * `inter` (optional) holds the interprocedural constant facts
     * (analysis::InterConstants, the IFDS stage) -- the walk's only
     * constant facts. When set, the walk concretizes otherwise-unknown
     * register writes (arithmetic, setter parameters, callee returns),
     * prunes infeasible pred edges, and -- the big lever -- replaces
     * call-site havoc of must-write-constant fields with strong
     * constant updates, so guard clears hidden behind deep setter
     * chains still conflict with path constraints. Read-only here; it
     * must outlive the executor. Measured by bench_ablation_ifds.
     */
    BackwardExecutor(const analysis::PointsToResult &result,
                     ExecutorOptions options = {},
                     const analysis::InterConstants *inter = nullptr);

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
        //! 0 = inside A, 1 = inside B; on a query's own stack a phase-1
        //! state is a whole phase-B walk from its store (startPhaseB)
        int phase{0};
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

    /** Keys of fields possibly written by a node (transitively); used
     *  to havoc calls beyond the descend limit. */
    const std::vector<analysis::FieldKey> &
    mayWriteKeys(analysis::NodeId n);
    /** Add the keys `n` and its unseen callees write to `keys`. */
    void collectMayWrites(analysis::NodeId n,
                          std::set<analysis::FieldKey> &keys,
                          std::unordered_set<analysis::NodeId> &seen);

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

    /** Push the phase-B walk from `st`, a consistent store at A's
     *  entry; returns true when B has no body (feasible at once). */
    bool startPhaseB(PathState st, int action_b,
                     std::vector<PathState> &stack);

    //! a query's budget counters; both only grow
    struct Walk {
        int steps{0}; //!< states popped (maxSteps)
        int paths{0}; //!< paths ended (maxPaths)
    };

    /** Count one pop; true when the query's budget is spent. */
    bool overBudget(Walk &walk) const;

    /** Expand one popped state, pushing its successors. Feasible when
     *  the state witnesses the whole ordering, Budget when it lies past
     *  maxDepth (the walk is incomplete), Infeasible otherwise. */
    QueryVerdict expand(PathState &st, int action_a, int action_b,
                        std::vector<PathState> &stack, int &paths);

    /** Run the phase-B walk `entry` (see startPhaseB) to its end over
     *  its own stack, or replay the recorded one. Infeasible means
     *  every B path was pruned. */
    QueryVerdict walkPhaseB(const PathState &entry, int action_a,
                            int action_b, Walk &walk);

    bool resolveLoc(analysis::NodeId n, int reg,
                    const air::FieldRef &field, race::MemLoc &out);

    const analysis::PointsToResult &_r;
    ExecutorOptions _opts;
    const analysis::InterConstants *_inter; //!< IFDS facts, or null
    ExecutorStats _stats;

    std::unordered_map<analysis::NodeId,
                       std::vector<analysis::FieldKey>>
        _mayWrite;
    //! refuted-query node cache (paper Section 5 "Caching")
    std::unordered_set<analysis::NodeId> _refutedNodes;
    //! nodes visited by the current query's phase-A walk (filled only
    //! when the node cache is on: nothing else reads it)
    std::set<analysis::NodeId> _queryVisited;
    //! sound memoization of whole queries
    std::map<std::tuple<analysis::SiteId, int, int>, QueryVerdict>
        _queryMemo;

    //! a phase-B walk's inputs besides its depth: action B and the
    //! exact atoms of the entry store (register-free by then)
    struct PhaseBKey {
        int action;
        std::vector<Atom> atoms;
        bool operator==(const PhaseBKey &o) const;
    };
    struct PhaseBKeyHash {
        size_t operator()(const PhaseBKey &k) const;
    };
    //! what a completed phase-B walk did to the query
    struct PhaseBRun {
        int pops{0};            //!< states popped
        int pathsBeforeLast{0}; //!< paths ended before the last pop
        int paths{0};           //!< paths ended in all
        int depth{0};           //!< deepest pop, relative to the entry
        bool feasible{false};   //!< reached B's entry (else exhausted)
    };
    //! completed walks the depth limit never cut
    std::unordered_map<PhaseBKey, PhaseBRun, PhaseBKeyHash> _phaseB;
};

} // namespace sierra::symbolic

#endif // SIERRA_SYMBOLIC_EXECUTOR_HH
