#include "dataflow.hh"

namespace sierra::analysis {

using air::Instruction;

namespace dataflow_detail {

std::vector<int>
blockOrder(const Cfg &cfg, DataflowDirection dir)
{
    const int n = cfg.numBlocks();
    const bool forward = dir == DataflowDirection::Forward;
    const int root = forward ? cfg.entryBlock() : cfg.exitBlock();

    std::vector<int> postorder;
    std::vector<char> seen(n, 0);
    // Iterative DFS with an explicit edge cursor per frame.
    std::vector<std::pair<int, size_t>> stack{{root, 0}};
    seen[root] = 1;
    while (!stack.empty()) {
        auto &[b, cursor] = stack.back();
        const auto &next = forward ? cfg.blocks()[b].succs
                                   : cfg.blocks()[b].preds;
        if (cursor < next.size()) {
            int t = next[cursor++];
            if (!seen[t]) {
                seen[t] = 1;
                stack.push_back({t, 0});
            }
        } else {
            postorder.push_back(b);
            stack.pop_back();
        }
    }
    std::vector<int> order(postorder.rbegin(), postorder.rend());
    for (int b = 0; b < n; ++b) {
        if (!seen[b])
            order.push_back(b);
    }
    return order;
}

} // namespace dataflow_detail

// ---------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------

namespace {

struct ReachingProblem {
    using Domain = std::vector<std::set<int>>;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Forward;

    int numRegisters;
    int firstTempReg;

    Domain
    boundary() const
    {
        Domain d(static_cast<size_t>(numRegisters));
        for (int r = 0; r < firstTempReg; ++r)
            d[r].insert(ReachingDefs::kEntryDef);
        return d;
    }

    bool
    merge(Domain &into, const Domain &from) const
    {
        bool changed = false;
        for (size_t r = 0; r < into.size(); ++r) {
            for (int def : from[r])
                changed |= into[r].insert(def).second;
        }
        return changed;
    }

    void
    transfer(int idx, const Instruction &instr, Domain &d) const
    {
        if (instr.writesRegister())
            d[instr.dst] = {idx};
    }
};

} // namespace

ReachingDefs::ReachingDefs(const Cfg &cfg) : _cfg(cfg)
{
    ReachingProblem problem{cfg.method().numRegisters(),
                            cfg.method().firstTempReg()};
    DataflowResult<ReachingProblem::Domain> r =
        solveDataflow(cfg, problem);
    _atBlockEntry = std::move(r.atEntry);
    _reached = std::move(r.reached);
}

std::vector<int>
ReachingDefs::reaching(int instr, int reg) const
{
    const int b = _cfg.blockOf(instr);
    if (!_reached[b])
        return {};
    ReachingProblem::Domain env = _atBlockEntry[b];
    ReachingProblem problem{_cfg.method().numRegisters(),
                            _cfg.method().firstTempReg()};
    for (int i = _cfg.blocks()[b].first; i < instr; ++i)
        problem.transfer(i, _cfg.method().instr(i), env);
    return {env[reg].begin(), env[reg].end()};
}

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

namespace {

struct LivenessProblem {
    using Domain = std::vector<char>;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Backward;

    int numRegisters;

    Domain
    boundary() const
    {
        return Domain(static_cast<size_t>(numRegisters), 0);
    }

    bool
    merge(Domain &into, const Domain &from) const
    {
        bool changed = false;
        for (size_t r = 0; r < into.size(); ++r) {
            if (from[r] && !into[r]) {
                into[r] = 1;
                changed = true;
            }
        }
        return changed;
    }

    void
    transfer(int, const Instruction &instr, Domain &d) const
    {
        if (instr.dst >= 0)
            d[instr.dst] = 0;
        for (int src : instr.srcs)
            d[src] = 1;
    }
};

} // namespace

Liveness::Liveness(const Cfg &cfg)
{
    const air::Method &m = cfg.method();
    LivenessProblem problem{m.numRegisters()};
    DataflowResult<LivenessProblem::Domain> r =
        solveDataflow(cfg, problem);

    // Conservative default for blocks the backward solve never reached
    // (code that cannot fall through to an exit): everything live.
    _liveAfter.assign(
        m.numInstrs(),
        std::vector<char>(static_cast<size_t>(m.numRegisters()), 1));
    for (const BasicBlock &block : cfg.blocks()) {
        if (block.first > block.last || !r.reached[block.id])
            continue;
        LivenessProblem::Domain live = r.atExit[block.id];
        for (int i = block.last; i >= block.first; --i) {
            _liveAfter[i] = live;
            problem.transfer(i, m.instr(i), live);
        }
    }
}

} // namespace sierra::analysis
