/**
 * @file
 * Summary-based interprocedural dataflow (IFDS/IDE-style) over the
 * call graph of one harness, plus its two shipped clients.
 *
 * The engine runs conditional constant propagation (SCCP) over each
 * method body -- the repository's only constant solver -- and lifts
 * its facts across calls. Each method in the harness's call-graph
 * envelope gets a *summary*:
 *  - the constant lattice value of every formal parameter, joined over
 *    the actuals of every call site that can reach the method
 *    (framework-invoked entry points are pinned to Top);
 *  - the constant lattice value of its return, joined over every
 *    reachable Return site under those parameter facts;
 *  - the set of fields the method *must* write with a known constant
 *    on every path to every exit ("must-write-constant" facts),
 *    composed through `this`-receiver calls and statics.
 *
 * Summaries are computed once per method by a worklist in reverse
 * post-order over the method-level call graph and cached; call sites
 * reuse the cached summary instead of re-analyzing the callee
 * (IfdsStats::summaryReuses counts those reuses). Tabulation is
 * bounded by IfdsOptions budgets; on exhaustion the whole result
 * degrades to "no facts" (every query answers Top / feasible), never
 * to an unsound partial fixpoint.
 *
 * Client 1 -- InterConstants -- is consumed by the symbolic refuter
 * (ExecutorOptions::inter): it concretizes register reads, prunes
 * interprocedurally-infeasible predecessor edges, and turns call-site
 * havoc into strong constant updates for must-write fields.
 *
 * Client 2 -- use-after-destroy -- is a typestate query on top of the
 * same facts: fields nulled inside `onDestroy` teardown callbacks
 * (directly or through a setter whose parameter the summaries prove
 * null) that a posted/background task can still dereference afterward.
 *
 * Everything here is a pure function of one `const PointsToResult`;
 * queries are const and safe to share across refuter worker threads.
 */

#ifndef SIERRA_ANALYSIS_IFDS_HH
#define SIERRA_ANALYSIS_IFDS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "points_to.hh"

namespace sierra::analysis {

/** Budgets for the interprocedural tabulation. */
struct IfdsOptions {
    /** Re-summarizations of one method before the engine gives up
     *  (the lattice is shallow; real fixpoints take a handful). */
    int maxSolvesPerMethod{16};
    /** Total instruction transfers across all solves, like the HB
     *  rule-5 state budget. */
    int maxStates{1 << 21};
};

/** Counters of one engine run (deterministic). */
struct IfdsStats {
    int64_t methods{0};             //!< methods in the summary universe
    int64_t summaryComputations{0}; //!< method-body solves run
    int64_t summaryReuses{0};       //!< call sites served from the cache
    int64_t callSites{0};           //!< resolved call sites seen
    int64_t paramConsts{0};         //!< formals proven constant
    int64_t returnConsts{0};        //!< methods with a constant return
    int64_t mustWriteFacts{0};      //!< (method, field, value) facts
    int64_t statesVisited{0};       //!< instruction transfers
    bool budgetExhausted{false};    //!< facts discarded for soundness
};

/**
 * Interprocedural constant facts for every method reachable in one
 * harness's call graph. All queries are conservative: a miss (unknown
 * method, exhausted budget) answers Top / reachable / feasible.
 */
class InterConstants
{
  public:
    explicit InterConstants(const PointsToResult &result,
                            IfdsOptions options = {});
    ~InterConstants(); // out-of-line: MethodInfo is incomplete here

    /** Value of `reg` just before instruction `instr` of `m`, valid
     *  for *every* invocation of the method in this harness. */
    ConstVal before(const air::Method *m, int instr, int reg) const;
    /** Value of `reg` just after instruction `instr` executes. */
    ConstVal after(const air::Method *m, int instr, int reg) const;

    /** Can instruction `instr` of `m` execute in any context? */
    bool reachable(const air::Method *m, int instr) const;
    /** Is the branch edge `from_instr` -> `to_instr` feasible under
     *  the interprocedural facts? */
    bool edgeFeasible(const air::Method *m, int from_instr,
                      int to_instr) const;

    /** Join of the values `m` can return (Bottom: no reachable
     *  return; Top: unknown). */
    ConstVal returnConst(const air::Method *m) const;

    /** One field a method writes with the same known constant on
     *  every path to every exit. Instance entries are writes through
     *  `this` (transitively, via `this`-receiver calls). */
    struct MustWrite {
        //! an instruction operand of the module naming the field
        const air::FieldRef *field{nullptr};
        bool isStatic{false};
        /** Every transitive write to this field from the method goes
         *  through the same cell (statics always; instance fields when
         *  all writes ride the `this` chain) -- the symbolic executor
         *  may then keep, not havoc, other constraints on the key. */
        bool exclusive{false};
        int64_t value{0};

        bool operator<(const MustWrite &o) const
        {
            if (field->className != o.field->className)
                return field->className < o.field->className;
            if (field->fieldName != o.field->fieldName)
                return field->fieldName < o.field->fieldName;
            return isStatic < o.isStatic;
        }
    };

    /** Must-write-constant facts of `m`, sorted; empty on a miss. */
    const std::vector<MustWrite> &mustWrites(const air::Method *m) const;

    /**
     * One method's callee list: the methods whose summaries its own
     * summary was composed from. The store layer's reverse-dependency
     * index (analysis/store DepIndex) is built from these lists -- a
     * callee edit dirties every transitive caller exactly because
     * callers embed callee facts (params join, returnConst, must-write
     * composition).
     */
    struct ExportedSummary {
        std::string method;               //!< qualified name
        std::vector<std::string> callees; //!< sorted unique, with bodies
    };

    /** Every method's callee list, sorted by qualified name
     *  (deterministic across processes and jobs counts). */
    std::vector<ExportedSummary> exportSummaries() const;

    /** How many times `m` was (re-)summarized; 0 for unknown methods.
     *  Exposed for the summary-cache unit tests. */
    int solveCountOf(const air::Method *m) const;

    const IfdsStats &stats() const { return _stats; }

  private:
    struct MethodInfo;

    int indexOf(const air::Method *m) const;
    void buildUniverse();
    void buildCallLists();
    void computeRpo();
    bool solveOne(int idx);
    void runFixpoint();
    void computeMayWrites();
    void computeMustWrites();
    void countSummaryStats();

    const PointsToResult &_r;
    IfdsOptions _opts;
    IfdsStats _stats;
    std::vector<MethodInfo> _methods;
    std::map<const air::Method *, int> _index;
    /** Callees whose parameter summaries the current solve widened. */
    std::set<int> _paramsDirty;
};

/** One use-after-destroy finding: a field nulled in a teardown
 *  callback that a posted task can still read afterward. */
struct UseAfterDestroyFinding {
    std::string fieldKey;       //!< canonical "Class.field"
    std::string teardownAction; //!< label of the nulling action
    std::string useAction;      //!< label of the reading action
    std::string writeMethod;    //!< qualified method of the null store
    std::string readMethod;     //!< qualified method of the read
    int writeInstr{-1};
    int readInstr{-1};

    std::string toString() const;

    bool operator<(const UseAfterDestroyFinding &o) const
    {
        if (fieldKey != o.fieldKey)
            return fieldKey < o.fieldKey;
        if (teardownAction != o.teardownAction)
            return teardownAction < o.teardownAction;
        return useAction < o.useAction;
    }
    bool operator==(const UseAfterDestroyFinding &o) const
    {
        return fieldKey == o.fieldKey &&
               teardownAction == o.teardownAction &&
               useAction == o.useAction;
    }
};

/**
 * The use-after-destroy typestate client. Finds reference-typed fields
 * stored null (directly or via a setter parameter the InterConstants
 * facts prove null) inside a Lifecycle `onDestroy` callback, then
 * reports every read of the same field from a posted/background action
 * that is not happens-before-ordered ahead of the teardown.
 *
 * `happensBefore(a, b)` must answer "action a always completes before
 * action b starts" (the detector passes Shbg::reaches). Results are
 * deterministic and sorted.
 */
std::vector<UseAfterDestroyFinding>
findUseAfterDestroy(const PointsToResult &result,
                    const InterConstants &inter,
                    const std::function<bool(int, int)> &happensBefore);

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_IFDS_HH
