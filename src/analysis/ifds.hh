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
 * (the `inter` argument of symbolic::refuteRaces): it concretizes
 * register reads, prunes interprocedurally-infeasible predecessor
 * edges, and turns call-site havoc into strong constant updates for
 * must-write fields.
 *
 * Client 2 -- use-after-destroy -- is a typestate query on top of the
 * same facts: fields nulled inside `onDestroy` teardown callbacks
 * (directly or through a setter whose parameter the summaries prove
 * null) that a posted/background task can still dereference afterward.
 *
 * Everything here is a pure function of one `const PointsToResult`,
 * and queries are const. The facts are read inside the harness task
 * that built them: refutation runs serially there, one executor per
 * harness, so nothing here is shared across threads.
 */

#ifndef SIERRA_ANALYSIS_IFDS_HH
#define SIERRA_ANALYSIS_IFDS_HH

#include <cstdint>
#include <functional>
#include <memory>
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

    /** How many times `m` was (re-)summarized; 0 for unknown methods.
     *  Exposed for the summary-cache unit tests. */
    int solveCountOf(const air::Method *m) const;

    const IfdsStats &stats() const { return _stats; }

  private:
    struct MethodInfo;
    class Worklist;

    /** One field the write summaries track: its declaring class and
     *  name, static or not. `ref` is the operand of the first write
     *  seen; any operand naming the same class and field stands for
     *  the slot. Slot ids are dense, in first-write order. */
    struct Slot {
        bool isStatic{false};
        const air::FieldRef *ref{nullptr};
    };
    //! _mayWrite states of one (method, slot)
    static constexpr char kMayNot = 0;      //!< never written
    static constexpr char kMayOnlyThis = 1; //!< written, only via `this`
    static constexpr char kMayAny = 2;      //!< written through any base

    /** Universe index of `m` / of a node's method; -1 on a miss. */
    int indexOf(const air::Method *m) const;
    int indexOf(NodeId n) const;
    /** The facts of `m`, null on a miss or once the budget ran out. */
    const MethodInfo *known(const air::Method *m) const;

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
    // The per-method arrays, one segment per method (MethodInfo holds
    // the views): parameters, per-instruction callee offsets, callees,
    // callers, unresolved-call flags, written slots, block ranks (rank
    // of each block, then block of each rank), and the facts: register
    // rows before each instruction, reachability, infeasible edges.
    std::vector<ConstVal> _params;
    std::vector<int> _calleeStarts;
    std::vector<int> _callees;
    std::vector<int> _callers;
    std::vector<char> _unresolved;
    std::vector<int> _writeSlots;
    std::vector<int> _blockRanks;
    std::vector<ConstVal> _before;
    std::vector<char> _reachable;
    std::vector<int> _infeasibleTo;
    //! per dense method index of the call graph: universe index or -1
    std::vector<int> _infoOf;
    //! universe indices by RPO rank
    std::vector<int> _rpoMethod;
    std::vector<Slot> _slots;
    //! methods x slots: kMayNot / kMayOnlyThis / kMayAny
    std::vector<char> _mayWrite;
    //! methods by RPO rank, queued for a solve
    std::unique_ptr<Worklist> _methodWork;
    //! blocks of the method being solved, by forward RPO rank
    std::unique_ptr<Worklist> _blockWork;
    // Scratch of solveOne, reused by every solve: per block entry
    // states (blocks x registers), which blocks were reached, a
    // register row being transferred and one flowing along an edge,
    // and the destination value of each call.
    std::vector<ConstVal> _blockIn;
    std::vector<char> _blockReached;
    std::vector<ConstVal> _env;
    std::vector<ConstVal> _edgeEnv;
    std::vector<ConstVal> _invokeRet;
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
