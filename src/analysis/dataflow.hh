/**
 * @file
 * Generic intraprocedural dataflow framework over analysis::Cfg.
 *
 * A worklist solver iterates a client-defined lattice to fixpoint over
 * the basic blocks of one method, in reverse post-order (forward
 * problems) or post-order (backward problems). Clients describe their
 * analysis as a *problem* object:
 *
 * @code
 *   struct MyProblem {
 *       using Domain = ...;                       // one lattice element
 *       static constexpr DataflowDirection kDirection =
 *           DataflowDirection::Forward;
 *       Domain boundary() const;   // state at the entry (fwd) / exit (bwd)
 *       // Merge `from` into `into` (meet/join); return true on change.
 *       bool merge(Domain &into, const Domain &from) const;
 *       // Apply one instruction's effect in program order (fwd) or
 *       // reverse program order (bwd).
 *       void transfer(int instr_idx, const air::Instruction &instr,
 *                     Domain &d) const;
 *   };
 * @endcode
 *
 * Two optional hooks extend the basic scheme:
 *  - `bool edgeTransfer(const Cfg &, int from_block, int to_block,
 *     Domain &d) const` refines (or kills, by returning false) the state
 *     flowing along one CFG edge -- this is how conditional constant
 *     propagation prunes branches that cannot be taken;
 *  - `void widen(Domain &d) const`, applied to a block's input after it
 *     has been re-entered more than kWidenAfter times, guarantees
 *     termination for lattices of unbounded height.
 *
 * The solver and every client below are pure functions of one
 * `const Cfg` (itself a pure function of a `const air::Method`), hold
 * no global state, and never mutate their inputs, so they are safe to
 * run concurrently from the per-plan parallel tasks of the detector:
 * each thread solves its own problem instances.
 *
 * Shipped client: live registers (Liveness), which the AIR lint
 * driver (analysis/lint.cc) uses. The lock-set and enablement stages
 * and lint define their own problems, and conditional constant
 * propagation lives in the interprocedural solver (analysis/ifds.cc),
 * whose per-method problem is seeded with parameter and callee-return
 * facts; its facts guide the symbolic refuter.
 */

#ifndef SIERRA_ANALYSIS_DATAFLOW_HH
#define SIERRA_ANALYSIS_DATAFLOW_HH

#include <concepts>
#include <set>
#include <utility>
#include <vector>

#include "cfg.hh"

namespace sierra::analysis {

/** Direction of a dataflow problem. */
enum class DataflowDirection { Forward, Backward };

namespace dataflow_detail {

template <typename P>
concept HasEdgeTransfer = requires(const P p, const Cfg &cfg,
                                   typename P::Domain d) {
    { p.edgeTransfer(cfg, 0, 0, d) } -> std::convertible_to<bool>;
};

template <typename P>
concept HasWiden = requires(const P p, typename P::Domain d) {
    p.widen(d);
};

/** Reverse post-order of blocks following `succs` (forward) or `preds`
 *  (backward) from the given root; unreachable blocks are appended in
 *  id order so every block gets a deterministic priority. */
std::vector<int> blockOrder(const Cfg &cfg, DataflowDirection dir);

} // namespace dataflow_detail

/** Per-block fixpoint states of one solved problem. */
template <typename Domain>
struct DataflowResult {
    /** State at the block's program-order start (forward: the solver
     *  input; backward: the solver output). */
    std::vector<Domain> atEntry;
    /** State at the block's program-order end. */
    std::vector<Domain> atExit;
    /** Whether the block was ever reached by the solver; states of
     *  unreached blocks are default-constructed and meaningless. */
    std::vector<char> reached;
};

/**
 * Solve one dataflow problem to fixpoint. Deterministic: iteration
 * order depends only on the CFG shape, never on timing or pointers.
 */
template <typename Problem>
DataflowResult<typename Problem::Domain>
solveDataflow(const Cfg &cfg, const Problem &problem)
{
    using Domain = typename Problem::Domain;
    constexpr bool forward =
        Problem::kDirection == DataflowDirection::Forward;
    /** Re-entries of one block before widening kicks in. */
    constexpr int kWidenAfter = 8;

    const int n = cfg.numBlocks();
    DataflowResult<Domain> r;
    r.atEntry.resize(n);
    r.atExit.resize(n);
    r.reached.assign(n, 0);

    // "in" = solver input side (program entry for forward problems,
    // program exit for backward ones); "out" = the other side.
    std::vector<Domain> &in = forward ? r.atEntry : r.atExit;
    std::vector<Domain> &out = forward ? r.atExit : r.atEntry;

    const std::vector<int> order = dataflow_detail::blockOrder(
        cfg, Problem::kDirection);
    std::vector<int> priority(n, 0);
    for (size_t i = 0; i < order.size(); ++i)
        priority[order[i]] = static_cast<int>(i);

    const int root = forward ? cfg.entryBlock() : cfg.exitBlock();
    in[root] = problem.boundary();
    r.reached[root] = 1;

    std::vector<int> visits(n, 0);
    // Worklist keyed by iteration-order priority: always process the
    // earliest pending block, which converges in near-minimal passes
    // for reducible CFGs.
    std::set<std::pair<int, int>> worklist; // (priority, block)
    worklist.insert({priority[root], root});

    auto instrRange = [&](int b) {
        return std::pair<int, int>(cfg.blocks()[b].first,
                                   cfg.blocks()[b].last);
    };

    while (!worklist.empty()) {
        const int b = worklist.begin()->second;
        worklist.erase(worklist.begin());

        if (++visits[b] > kWidenAfter) {
            if constexpr (dataflow_detail::HasWiden<Problem>)
                problem.widen(in[b]);
        }

        // Push the input through the block body.
        Domain d = in[b];
        auto [first, last] = instrRange(b);
        if (first <= last) { // the synthetic exit block is empty
            if constexpr (forward) {
                for (int i = first; i <= last; ++i)
                    problem.transfer(i, cfg.method().instr(i), d);
            } else {
                for (int i = last; i >= first; --i)
                    problem.transfer(i, cfg.method().instr(i), d);
            }
        }
        out[b] = std::move(d);

        const auto &targets = forward ? cfg.blocks()[b].succs
                                      : cfg.blocks()[b].preds;
        for (int t : targets) {
            Domain onto = out[b];
            if constexpr (dataflow_detail::HasEdgeTransfer<Problem>) {
                // Forward edge b->t; backward edge t->b.
                const int from = forward ? b : t;
                const int to = forward ? t : b;
                if (!problem.edgeTransfer(cfg, from, to, onto))
                    continue; // statically infeasible edge
            }
            bool changed;
            if (!r.reached[t]) {
                in[t] = std::move(onto);
                r.reached[t] = 1;
                changed = true;
            } else {
                changed = problem.merge(in[t], onto);
            }
            if (changed)
                worklist.insert({priority[t], t});
        }
    }
    return r;
}

// ---------------------------------------------------------------------
// Client: live registers
// ---------------------------------------------------------------------

/** Classic backward liveness of registers, per instruction. */
class Liveness
{
  public:
    explicit Liveness(const Cfg &cfg);

    /** Is `reg` read after instruction `instr` completes (before being
     *  redefined)? */
    bool liveAfter(int instr, int reg) const
    {
        return _liveAfter[instr][reg] != 0;
    }

  private:
    std::vector<std::vector<char>> _liveAfter; //!< per instr, per reg
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_DATAFLOW_HH
