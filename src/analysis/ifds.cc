#include "ifds.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <set>
#include <span>
#include <string_view>

#include "air/logging.hh"
#include "cfg.hh"
#include "dataflow.hh"
#include "util/flat_map.hh"

namespace sierra::analysis {

using air::Instruction;
using air::Opcode;

namespace {

ConstVal
constTop()
{
    ConstVal v;
    v.state = ConstVal::State::Top;
    return v;
}

ConstVal
constOf(int64_t value)
{
    ConstVal v;
    v.state = ConstVal::State::Const;
    v.value = value;
    return v;
}

/** Meet of two (Const | Top) values, Bottom treated as Top. This is
 *  the path-join used inside one method's SCCP solve. */
ConstVal
constMeet(const ConstVal &a, const ConstVal &b)
{
    if (a.isConst() && b.isConst() && a.value == b.value)
        return a;
    return constTop();
}

/** Optimistic join used across the interprocedural fixpoint: Bottom
 *  is the identity, conflicting constants rise to Top. */
ConstVal
constJoin(const ConstVal &a, const ConstVal &b)
{
    if (a.state == ConstVal::State::Bottom)
        return b;
    if (b.state == ConstVal::State::Bottom)
        return a;
    if (a.isConst() && b.isConst() && a.value == b.value)
        return a;
    return constTop();
}

bool
sameVal(const ConstVal &a, const ConstVal &b)
{
    return a.state == b.state && (!a.isConst() || a.value == b.value);
}

/** Decide a conditional branch under a register environment.
 *  @return 1 = always taken, 0 = never taken, -1 = unknown. */
int
evalBranch(const Instruction &instr, const ConstVal *env)
{
    const ConstVal &lhs = env[instr.srcs[0]];
    if (!lhs.isConst())
        return -1;
    int64_t rhs = 0;
    if (instr.op == Opcode::If) {
        const ConstVal &r = env[instr.srcs[1]];
        if (!r.isConst())
            return -1;
        rhs = r.value;
    }
    return air::evalCond(instr.cond, lhs.value, rhs) ? 1 : 0;
}

/** The value one non-invoke instruction writes to its destination:
 *  constants and moves propagate, arithmetic folds, and every other
 *  write (loads, allocations, strings) is unknown. */
ConstVal
evalInstr(const Instruction &instr, const ConstVal *env)
{
    switch (instr.op) {
      case Opcode::ConstInt:
        return constOf(instr.intValue);
      case Opcode::ConstNull:
        return constOf(0);
      case Opcode::Move:
        return env[instr.srcs[0]];
      case Opcode::BinOp: {
        const ConstVal &l = env[instr.srcs[0]];
        const ConstVal &r = env[instr.srcs[1]];
        return l.isConst() && r.isConst()
                   ? constOf(air::evalBinOp(instr.binop, l.value, r.value))
                   : constTop();
      }
      case Opcode::UnOp: {
        const ConstVal &s = env[instr.srcs[0]];
        if (!s.isConst())
            return constTop();
        // Matches the dynamic interpreter: Not is logical.
        return constOf(instr.unop == air::UnOpKind::Not
                           ? (s.value == 0 ? 1 : 0)
                           : -s.value);
      }
      default:
        // Loads, calls, allocations, ConstStr: unknown value. (New is
        // non-null but not a *known* integer; modeling it as a constant
        // would fold comparisons between two distinct allocations.)
        return constTop();
    }
}

/** Apply one non-invoke instruction's effect on a register row. */
void
transferInstr(const Instruction &instr, ConstVal *env)
{
    if (instr.dst >= 0)
        env[instr.dst] = evalInstr(instr, env);
}

/** "Definitely written on every path; last value if known." */
struct WriteVal {
    bool known{false};
    int64_t value{0};
};

/** Must-write environment: (slot, value) sorted by slot. */
using MustEnv = std::vector<std::pair<int, WriteVal>>;

WriteVal *
envFind(MustEnv &env, int slot)
{
    auto it = std::lower_bound(
        env.begin(), env.end(), slot,
        [](const auto &e, int s) { return e.first < s; });
    return it != env.end() && it->first == slot ? &it->second : nullptr;
}

void
envSet(MustEnv &env, int slot, WriteVal v)
{
    auto it = std::lower_bound(
        env.begin(), env.end(), slot,
        [](const auto &e, int s) { return e.first < s; });
    if (it != env.end() && it->first == slot)
        it->second = v;
    else
        env.insert(it, {slot, v});
}

/** Meet of two must-write environments: intersect keys, values must
 *  agree to stay known. Returns true if `into` changed. */
bool
mustMeet(MustEnv &into, const MustEnv &from)
{
    bool changed = false;
    size_t out = 0;
    auto jt = from.begin();
    for (size_t i = 0; i < into.size(); ++i) {
        auto &[slot, wv] = into[i];
        while (jt != from.end() && jt->first < slot)
            ++jt;
        if (jt == from.end() || jt->first != slot) {
            changed = true;
            continue;
        }
        if (wv.known && (!jt->second.known || jt->second.value != wv.value)) {
            wv.known = false;
            changed = true;
        }
        into[out++] = into[i];
    }
    into.resize(out);
    return changed;
}

} // namespace

/**
 * A set of priorities 0..n-1 that pops its smallest member. Each
 * method (block) has its own priority, so popping the smallest one is
 * exactly what the (priority, id) std::set worklists it replaces did.
 */
class InterConstants::Worklist
{
  public:
    void
    reset(int n)
    {
        _words.assign(static_cast<size_t>((n + 63) / 64), 0);
        _lowest = 0;
    }
    void
    push(int p)
    {
        const size_t w = static_cast<size_t>(p) >> 6;
        _words[w] |= uint64_t{1} << (p & 63);
        _lowest = std::min(_lowest, w);
    }
    /** The smallest member, removed; -1 when empty. */
    int
    pop()
    {
        while (_lowest < _words.size() && _words[_lowest] == 0)
            ++_lowest;
        if (_lowest == _words.size())
            return -1;
        const int bit = std::countr_zero(_words[_lowest]);
        _words[_lowest] &= _words[_lowest] - 1;
        return static_cast<int>(_lowest * 64) + bit;
    }

  private:
    std::vector<uint64_t> _words;
    size_t _lowest{0};
};

// ---------------------------------------------------------------------
// Engine state
// ---------------------------------------------------------------------

struct InterConstants::MethodInfo {
    const air::Method *method{nullptr};
    const Cfg *cfg{nullptr}; //!< the result's CFG of `method`
    /** Framework-invoked (action entry / harness root / no callers):
     *  parameters pinned to Top. */
    bool open{false};
    /** Register 0 (`this`) is never redefined in the body. */
    bool thisStable{false};
    int rpo{0};
    int solves{0};
    int numRegs{0};

    // Views into the engine's flat arrays (one segment per method).

    /** Join of actuals over every call site (size firstTempReg). */
    std::span<ConstVal> params;
    /** Join of the values the method can return. */
    ConstVal ret;

    /** Universe indices of the resolvable callees of instruction i,
     *  sorted: callees[calleeStart[i] .. calleeStart[i + 1]). */
    std::span<int> calleeStart;
    std::span<int> callees;
    /** Per instruction: a call that may also dispatch to a bodiless
     *  target (its return value stays unknown). */
    std::span<char> unresolved;
    std::span<int> callers; //!< universe indices, sorted unique
    /** Per block: its rank in forward reverse post-order, and back. */
    std::span<int> blockRank;
    std::span<int> rankBlock;
    /** Per instruction: the slot a PutField/PutStatic writes, else -1. */
    std::span<int> writeSlot;

    // Final per-instruction facts (from the converged last solve).
    std::span<ConstVal> before; //!< instructions x registers
    std::span<char> reachable;
    //! per conditional branch: the successor proven infeasible, or -1
    std::span<int> infeasibleTo;

    std::vector<MustWrite> mustWrites;
    std::vector<int> mustSlots; //!< the slot of each mustWrites entry
    bool mustDone{false};

    std::span<const int>
    calleesAt(int i) const
    {
        const size_t start =
            static_cast<size_t>(calleeStart[static_cast<size_t>(i)]);
        return std::span<const int>(callees).subspan(
            start,
            static_cast<size_t>(calleeStart[static_cast<size_t>(i) + 1]) -
                start);
    }
    /** The register row before instruction i (i == numInstrs: the
     *  end of the last row). */
    ConstVal *
    row(int i) const
    {
        return before.data() +
               static_cast<size_t>(i) * static_cast<size_t>(numRegs);
    }
};

int
InterConstants::indexOf(const air::Method *m) const
{
    const int d = _r.cg.methodIndex(m);
    return d < 0 ? -1 : _infoOf[static_cast<size_t>(d)];
}

int
InterConstants::indexOf(NodeId n) const
{
    return _infoOf[static_cast<size_t>(_r.cg.methodIndex(n))];
}

namespace {

/** The `count` elements of `all` from `first` on. */
template <typename T>
std::span<T>
segment(std::vector<T> &all, size_t first, size_t count)
{
    return std::span<T>(all.data() + first, count);
}

} // namespace

void
InterConstants::buildUniverse()
{
    // Dense method indices number methods in first-node order, so the
    // universe keeps the order of a walk over the nodes.
    _infoOf.assign(static_cast<size_t>(_r.cg.numMethods()), -1);
    _methods.reserve(static_cast<size_t>(_r.cg.numMethods()));
    size_t ninstrs = 0;
    size_t nregs = 0;
    size_t nblocks = 0;
    size_t nparams = 0;
    for (int d = 0; d < _r.cg.numMethods(); ++d) {
        const air::Method *m = _r.cg.methodAt(d);
        if (!m->hasBody())
            continue;
        _infoOf[static_cast<size_t>(d)] = static_cast<int>(_methods.size());
        MethodInfo mi;
        mi.method = m;
        mi.cfg = &_r.cfg(*m);
        mi.numRegs = m->numRegisters();
        ninstrs += static_cast<size_t>(m->numInstrs());
        nregs += static_cast<size_t>(m->numInstrs()) *
                 static_cast<size_t>(mi.numRegs);
        nblocks += static_cast<size_t>(mi.cfg->numBlocks());
        nparams += static_cast<size_t>(m->firstTempReg());
        _methods.push_back(mi);
    }
    _stats.methods = static_cast<int64_t>(_methods.size());

    // One allocation per array for the whole universe.
    _params.assign(nparams, ConstVal{});
    _calleeStarts.assign(ninstrs + _methods.size(), 0);
    _unresolved.assign(ninstrs, 0);
    _writeSlots.assign(ninstrs, -1);
    _blockRanks.assign(nblocks * 2, 0);
    _before.assign(nregs, ConstVal{});
    _reachable.assign(ninstrs, 0);
    _infeasibleTo.assign(ninstrs, -1);
    size_t param = 0, instr_at = 0, block = 0, reg = 0;
    util::IdIndex slot_ids;
    for (size_t idx = 0; idx < _methods.size(); ++idx) {
        MethodInfo &mi = _methods[idx];
        const air::Method &m = *mi.method;
        const size_t n = static_cast<size_t>(m.numInstrs());
        const size_t b = static_cast<size_t>(mi.cfg->numBlocks());
        const size_t np = static_cast<size_t>(m.firstTempReg());
        const size_t nr = n * static_cast<size_t>(mi.numRegs);
        mi.params = segment(_params, param, np);
        mi.calleeStart = segment(_calleeStarts, instr_at + idx, n + 1);
        mi.unresolved = segment(_unresolved, instr_at, n);
        mi.writeSlot = segment(_writeSlots, instr_at, n);
        mi.reachable = segment(_reachable, instr_at, n);
        mi.infeasibleTo = segment(_infeasibleTo, instr_at, n);
        mi.blockRank = segment(_blockRanks, 2 * block, b);
        mi.rankBlock = segment(_blockRanks, 2 * block + b, b);
        mi.before = segment(_before, reg, nr);
        param += np;
        instr_at += n;
        block += b;
        reg += nr;

        mi.thisStable = !m.isStatic();
        for (size_t i = 0; i < n; ++i) {
            const Instruction &instr = m.instr(static_cast<int>(i));
            if (instr.dst == 0)
                mi.thisStable = false;
            if (instr.op != Opcode::PutField &&
                instr.op != Opcode::PutStatic)
                continue;
            const bool is_static = instr.op == Opcode::PutStatic;
            const air::FieldRef &f = instr.field;
            const uint64_t key = util::hashMix(
                util::hashMix(is_static, f.className.hash()),
                f.fieldName.hash());
            int slot = slot_ids.find(key, [&](int id) {
                const Slot &s = _slots[static_cast<size_t>(id)];
                return s.isStatic == is_static && s.ref->className ==
                       f.className && s.ref->fieldName == f.fieldName;
            });
            if (slot < 0) {
                slot = static_cast<int>(_slots.size());
                _slots.push_back({is_static, &f});
                slot_ids.insert(key, slot);
            }
            mi.writeSlot[i] = slot;
        }
        const std::vector<int> order =
            dataflow_detail::blockOrder(*mi.cfg, DataflowDirection::Forward);
        std::copy(order.begin(), order.end(), mi.rankBlock.begin());
        for (size_t p = 0; p < b; ++p)
            mi.blockRank[static_cast<size_t>(mi.rankBlock[p])] =
                static_cast<int>(p);
    }

    // Framework-invoked entries: every action entry plus the harness
    // root. Their parameters carry framework values -- pin them Top.
    auto markOpen = [&](NodeId n) {
        if (n < 0)
            return;
        int idx = indexOf(n);
        if (idx >= 0)
            _methods[static_cast<size_t>(idx)].open = true;
    };
    markOpen(_r.rootNode);
    for (const Action &a : _r.actions.all())
        markOpen(a.entryNode);
}

void
InterConstants::buildCallLists()
{
    // (caller, instruction, callee) and (callee, caller) pairs, sorted
    // into one flat segment per method.
    std::vector<std::array<int, 3>> calls;
    std::vector<std::pair<int, int>> callers;
    for (NodeId n = 0; n < _r.cg.numNodes(); ++n) {
        int caller = indexOf(n);
        if (caller < 0)
            continue;
        MethodInfo &mi = _methods[static_cast<size_t>(caller)];
        for (const CGEdge &edge : _r.cg.edgesOf(n)) {
            int instr = _r.sites.instrOf(edge.site);
            int callee = indexOf(edge.callee);
            if (callee < 0) {
                mi.unresolved[static_cast<size_t>(instr)] = 1;
                continue;
            }
            calls.push_back({caller, instr, callee});
            callers.push_back({callee, caller});
        }
    }
    std::sort(calls.begin(), calls.end());
    calls.erase(std::unique(calls.begin(), calls.end()), calls.end());
    std::sort(callers.begin(), callers.end());
    callers.erase(std::unique(callers.begin(), callers.end()),
                  callers.end());

    _callees.resize(calls.size());
    _callers.resize(callers.size());
    size_t next_callee = 0, next_caller = 0;
    auto call = calls.begin();
    auto by = callers.begin();
    for (size_t i = 0; i < _methods.size(); ++i) {
        MethodInfo &mi = _methods[i];
        const int idx = static_cast<int>(i);
        const size_t first = next_callee;
        for (; call != calls.end() && (*call)[0] == idx; ++call) {
            ++mi.calleeStart[static_cast<size_t>((*call)[1]) + 1];
            _callees[next_callee++] = (*call)[2];
        }
        mi.callees = std::span<int>(_callees.data() + first,
                                    next_callee - first);
        for (size_t k = 1; k < mi.calleeStart.size(); ++k)
            mi.calleeStart[k] += mi.calleeStart[k - 1];
        const size_t first_caller = next_caller;
        for (; by != callers.end() && by->first == idx; ++by)
            _callers[next_caller++] = by->second;
        mi.callers = std::span<int>(_callers.data() + first_caller,
                                    next_caller - first_caller);
        // A method no harness code calls is framework-invoked too.
        if (mi.callers.empty())
            mi.open = true;
    }
}

void
InterConstants::computeRpo()
{
    // Reverse post-order over the method-level call graph from the
    // open (framework-invoked) methods, so callers generally solve
    // before their callees and actuals are seeded early. A method's
    // successors are its distinct callees, ascending.
    const int n = static_cast<int>(_methods.size());
    std::vector<int> succs;
    std::vector<size_t> succ_start(static_cast<size_t>(n) + 1, 0);
    for (int i = 0; i < n; ++i) {
        const std::span<int> cs = _methods[static_cast<size_t>(i)].callees;
        const size_t first = succs.size();
        succs.insert(succs.end(), cs.begin(), cs.end());
        std::sort(succs.begin() + static_cast<std::ptrdiff_t>(first),
                  succs.end());
        succs.erase(std::unique(succs.begin() +
                                    static_cast<std::ptrdiff_t>(first),
                                succs.end()),
                    succs.end());
        succ_start[static_cast<size_t>(i) + 1] = succs.size();
    }
    std::vector<int> postorder;
    std::vector<char> seen(static_cast<size_t>(n), 0);
    std::vector<std::pair<int, size_t>> stack;
    auto dfs = [&](int root) {
        stack.push_back({root, 0});
        seen[static_cast<size_t>(root)] = 1;
        while (!stack.empty()) {
            auto &[m, cursor] = stack.back();
            const size_t end = succ_start[static_cast<size_t>(m) + 1];
            const size_t at = succ_start[static_cast<size_t>(m)] + cursor;
            if (at < end) {
                ++cursor;
                int t = succs[at];
                if (!seen[static_cast<size_t>(t)]) {
                    seen[static_cast<size_t>(t)] = 1;
                    stack.push_back({t, 0});
                }
            } else {
                postorder.push_back(m);
                stack.pop_back();
            }
        }
    };
    for (int i = 0; i < n; ++i) {
        if (_methods[static_cast<size_t>(i)].open &&
            !seen[static_cast<size_t>(i)])
            dfs(i);
    }
    for (int i = 0; i < n; ++i) {
        if (!seen[static_cast<size_t>(i)])
            dfs(i);
    }
    _rpoMethod.assign(postorder.rbegin(), postorder.rend());
    for (size_t r = 0; r < _rpoMethod.size(); ++r)
        _methods[static_cast<size_t>(_rpoMethod[r])].rpo =
            static_cast<int>(r);
}

namespace {

/** Refine the state flowing along the CFG edge `from` -> `to` of a
 *  conditional branch, or kill it (false) when the branch cannot go
 *  that way. `d` is the environment at the branch (branches write no
 *  register). */
bool
edgeTransfer(const Cfg &cfg, int from, int to, ConstVal *d)
{
    const auto &fb = cfg.blocks()[static_cast<size_t>(from)];
    if (fb.first > fb.last)
        return true; // synthetic exit block
    const Instruction &last = cfg.method().instr(fb.last);
    if (!last.isConditionalBranch())
        return true;
    const int target_block = cfg.blockOf(last.target);
    const int fall_block = fb.last + 1 < cfg.method().numInstrs()
                               ? cfg.blockOf(fb.last + 1)
                               : -1;
    if (target_block == fall_block)
        return true; // one edge either way: no information

    const bool is_target_edge = to == target_block;
    const int verdict = evalBranch(last, d);
    if (verdict == 1 && !is_target_edge)
        return false;
    if (verdict == 0 && is_target_edge)
        return false;

    // Refine an equality edge: after "if (r == c)" is taken (or
    // "if (r != c)" falls through), r is known to be c.
    air::CondKind effective =
        is_target_edge ? last.cond : air::negateCond(last.cond);
    if (effective == air::CondKind::Eq) {
        int reg = -1;
        int64_t value = 0;
        if (last.op == Opcode::IfZ) {
            reg = last.srcs[0];
            value = 0;
        } else if (d[last.srcs[1]].isConst()) {
            reg = last.srcs[0];
            value = d[last.srcs[1]].value;
        } else if (d[last.srcs[0]].isConst()) {
            reg = last.srcs[1];
            value = d[last.srcs[0]].value;
        }
        if (reg >= 0 && !d[reg].isConst())
            d[reg] = constOf(value);
    }
    return true;
}

/** Meet `from` into `into` over `n` registers; true on change. */
bool
mergeRow(ConstVal *into, const ConstVal *from, int n)
{
    bool changed = false;
    for (int r = 0; r < n; ++r) {
        ConstVal met = constMeet(into[r], from[r]);
        if (!sameVal(met, into[r])) {
            into[r] = met;
            changed = true;
        }
    }
    return changed;
}

} // namespace

/**
 * (Re-)summarize one method under the current interprocedural facts:
 * solve its conditional constant propagation (seeded with parameter
 * facts and callee return summaries), record its per-instruction
 * facts, join its actuals into callee parameter summaries (queueing
 * each callee whose summary widened), and recompute its return
 * summary.
 * @return true if the return summary changed.
 */
bool
InterConstants::solveOne(int idx)
{
    MethodInfo &mi = _methods[static_cast<size_t>(idx)];
    const air::Method &m = *mi.method;
    const Cfg &cfg = *mi.cfg;
    const int n = m.numInstrs();
    const int regs = mi.numRegs;
    const size_t width = static_cast<size_t>(regs);
    const size_t nblocks = static_cast<size_t>(cfg.numBlocks());

    // The destination value of each call, fixed for this solve (a
    // solve changes no return summary until it ends).
    _invokeRet.assign(static_cast<size_t>(n), constTop());
    for (int i = 0; i < n; ++i) {
        std::span<const int> at = mi.calleesAt(i);
        if (at.empty() || mi.unresolved[static_cast<size_t>(i)])
            continue;
        ConstVal v; // Bottom
        for (int c : at)
            v = constJoin(v, _methods[static_cast<size_t>(c)].ret);
        _invokeRet[static_cast<size_t>(i)] = v;
    }
    auto transfer = [&](int i, const Instruction &instr, ConstVal *env) {
        if (instr.op != Opcode::Invoke) {
            transferInstr(instr, env);
        } else if (instr.dst >= 0) {
            env[instr.dst] = _invokeRet[static_cast<size_t>(i)];
        }
    };

    // Block fixpoint over one flat blocks x registers buffer, in the
    // forward reverse post-order; the boundary is the parameter facts.
    _blockIn.resize(nblocks * width);
    _blockReached.assign(nblocks, 0);
    _env.resize(width);
    _edgeEnv.resize(width);
    auto in = [&](int b) {
        return _blockIn.data() + static_cast<size_t>(b) * width;
    };
    {
        ConstVal *entry = in(cfg.entryBlock());
        std::fill(entry, entry + regs, constTop());
        if (!mi.open)
            std::copy(mi.params.begin(), mi.params.end(), entry);
    }
    _blockReached[static_cast<size_t>(cfg.entryBlock())] = 1;
    _blockWork->reset(static_cast<int>(nblocks));
    _blockWork->push(mi.blockRank[static_cast<size_t>(cfg.entryBlock())]);
    for (int p; (p = _blockWork->pop()) >= 0;) {
        const int b = mi.rankBlock[static_cast<size_t>(p)];
        const BasicBlock &block = cfg.blocks()[static_cast<size_t>(b)];
        std::copy(in(b), in(b) + regs, _env.begin());
        for (int i = block.first; i <= block.last; ++i)
            transfer(i, m.instr(i), _env.data());
        for (int t : block.succs) {
            std::copy(_env.begin(), _env.end(), _edgeEnv.begin());
            if (!edgeTransfer(cfg, b, t, _edgeEnv.data()))
                continue; // statically infeasible edge
            bool changed;
            char &reached = _blockReached[static_cast<size_t>(t)];
            if (!reached) {
                std::copy(_edgeEnv.begin(), _edgeEnv.end(), in(t));
                reached = 1;
                changed = true;
            } else {
                changed = mergeRow(in(t), _edgeEnv.data(), regs);
            }
            if (changed)
                _blockWork->push(mi.blockRank[static_cast<size_t>(t)]);
        }
    }

    std::fill(mi.reachable.begin(), mi.reachable.end(), 0);
    std::fill(mi.infeasibleTo.begin(), mi.infeasibleTo.end(), -1);

    ConstVal ret; // Bottom
    for (const BasicBlock &block : cfg.blocks()) {
        if (block.first > block.last)
            continue;
        if (!_blockReached[static_cast<size_t>(block.id)]) {
            // No facts for unreached code (Bottom, as fresh rows hold).
            std::fill(mi.row(block.first), mi.row(block.last + 1),
                      ConstVal{});
            continue;
        }
        std::copy(in(block.id), in(block.id) + regs, _env.begin());
        for (int i = block.first; i <= block.last; ++i) {
            ++_stats.statesVisited;
            mi.reachable[static_cast<size_t>(i)] = 1;
            std::copy(_env.begin(), _env.end(), mi.row(i));
            const Instruction &instr = m.instr(i);
            if (instr.op == Opcode::Invoke) {
                // Flow actuals into the formal summaries of callees.
                for (int c : mi.calleesAt(i)) {
                    MethodInfo &cm = _methods[static_cast<size_t>(c)];
                    if (cm.open)
                        continue;
                    for (size_t a = 0; a < cm.params.size(); ++a) {
                        ConstVal v =
                            a < instr.srcs.size()
                                ? _env[static_cast<size_t>(instr.srcs[a])]
                                : constTop();
                        ConstVal joined = constJoin(cm.params[a], v);
                        if (!sameVal(joined, cm.params[a])) {
                            cm.params[a] = joined;
                            _methodWork->push(cm.rpo);
                        }
                    }
                }
            }
            transfer(i, instr, _env.data());
            if (instr.op == Opcode::Return)
                ret = constJoin(ret, mi.row(i)[instr.srcs[0]]);
        }

        // Record the branch edge the fixpoint proved infeasible.
        const Instruction &last = m.instr(block.last);
        if (!last.isConditionalBranch())
            continue;
        const int target_block = cfg.blockOf(last.target);
        const int fall_block =
            block.last + 1 < n ? cfg.blockOf(block.last + 1) : -1;
        if (target_block == fall_block)
            continue;
        const int verdict = evalBranch(last, mi.row(block.last));
        if (verdict == 1 && fall_block >= 0)
            mi.infeasibleTo[static_cast<size_t>(block.last)] =
                block.last + 1;
        else if (verdict == 0)
            mi.infeasibleTo[static_cast<size_t>(block.last)] = last.target;
    }

    // Monotone replacement keeps termination independent of
    // reachability wobbles near the fixpoint.
    ret = constJoin(mi.ret, ret);
    if (sameVal(ret, mi.ret))
        return false;
    mi.ret = ret;
    return true;
}

void
InterConstants::runFixpoint()
{
    _methodWork->reset(static_cast<int>(_methods.size()));
    for (const MethodInfo &mi : _methods)
        _methodWork->push(mi.rpo);

    for (int p; (p = _methodWork->pop()) >= 0;) {
        const int idx = _rpoMethod[static_cast<size_t>(p)];
        MethodInfo &mi = _methods[static_cast<size_t>(idx)];
        if (mi.solves >= _opts.maxSolvesPerMethod ||
            _stats.statesVisited > _opts.maxStates) {
            _stats.budgetExhausted = true;
            return;
        }
        ++mi.solves;
        ++_stats.summaryComputations;
        if (solveOne(idx)) {
            for (int caller : mi.callers)
                _methodWork->push(
                    _methods[static_cast<size_t>(caller)].rpo);
        }
    }
}

void
InterConstants::computeMayWrites()
{
    // Transitive may-write sets with an "only via this" flag per slot:
    // entries only appear and flags only drop, so the least fixpoint is
    // reached in any order. Own writes first, then a caller worklist.
    const size_t nslots = _slots.size();
    _mayWrite.assign(_methods.size() * nslots, kMayNot);
    auto record = [&](size_t i, int slot, bool via_this) {
        char &st = _mayWrite[i * nslots + static_cast<size_t>(slot)];
        const char want = via_this ? kMayOnlyThis : kMayAny;
        if (st == kMayNot || (st == kMayOnlyThis && want == kMayAny)) {
            st = want;
            return true;
        }
        return false;
    };
    for (size_t i = 0; i < _methods.size(); ++i) {
        const MethodInfo &mi = _methods[i];
        const air::Method &m = *mi.method;
        for (int k = 0; k < m.numInstrs(); ++k) {
            const Instruction &instr = m.instr(k);
            const int slot = mi.writeSlot[static_cast<size_t>(k)];
            if (instr.op == Opcode::PutField) {
                record(i, slot,
                       !m.isStatic() && instr.srcs[0] == 0 &&
                           mi.thisStable);
            } else if (instr.op == Opcode::PutStatic) {
                // One global cell: "exclusive" by construction.
                record(i, slot, true);
            }
        }
    }
    Worklist &work = *_methodWork;
    work.reset(static_cast<int>(_methods.size()));
    for (size_t i = 0; i < _methods.size(); ++i)
        work.push(static_cast<int>(i));
    for (int i; (i = work.pop()) >= 0;) {
        const MethodInfo &mi = _methods[static_cast<size_t>(i)];
        const air::Method &m = *mi.method;
        bool changed = false;
        for (int k = 0; k < m.numInstrs(); ++k) {
            std::span<const int> at = mi.calleesAt(k);
            if (at.empty())
                continue;
            const Instruction &instr = m.instr(k);
            const bool this_recv = !m.isStatic() && mi.thisStable &&
                                   !instr.srcs.empty() &&
                                   instr.srcs[0] == 0;
            for (int c : at) {
                const bool keeps_chain =
                    this_recv &&
                    !_methods[static_cast<size_t>(c)].method->isStatic();
                const char *from =
                    _mayWrite.data() + static_cast<size_t>(c) * nslots;
                for (size_t s = 0; s < nslots; ++s) {
                    if (from[s] == kMayNot)
                        continue;
                    changed |= record(
                        static_cast<size_t>(i), static_cast<int>(s),
                        _slots[s].isStatic ||
                            (from[s] == kMayOnlyThis && keeps_chain));
                }
            }
        }
        if (changed) {
            for (int caller : mi.callers)
                work.push(caller);
        }
    }
}

void
InterConstants::computeMustWrites()
{
    // Callees first (descending RPO); recursive edges to a method not
    // yet summarized fall back to may-write invalidation only.
    const size_t nslots = _slots.size();
    std::vector<MustEnv> in;
    std::vector<char> has_in;
    MustEnv env;
    MustEnv exit_env;
    // (slot, (value, exclusive)) applied by one call, sorted by slot
    std::vector<std::pair<int, std::pair<int64_t, bool>>> applied;
    std::vector<std::pair<int, std::pair<int64_t, bool>>> cur;
    for (auto it = _rpoMethod.rbegin(); it != _rpoMethod.rend(); ++it) {
        const int idx = *it;
        MethodInfo &mi = _methods[static_cast<size_t>(idx)];
        const air::Method &m = *mi.method;
        const Cfg &cfg = *mi.cfg;

        auto mustTransfer = [&](int i, const Instruction &instr,
                                MustEnv &e) {
            ++_stats.statesVisited;
            switch (instr.op) {
              case Opcode::PutField: {
                const int slot = mi.writeSlot[static_cast<size_t>(i)];
                if (!m.isStatic() && instr.srcs[0] == 0 &&
                    mi.thisStable) {
                    ConstVal v = mi.row(i)[instr.srcs[1]];
                    envSet(e, slot,
                           v.isConst() ? WriteVal{true, v.value}
                                       : WriteVal{});
                } else if (WriteVal *w = envFind(e, slot)) {
                    // A write through a maybe-aliasing base: the
                    // last value of the `this` cell is now unknown.
                    w->known = false;
                }
                break;
              }
              case Opcode::PutStatic: {
                ConstVal v = mi.row(i)[instr.srcs[0]];
                envSet(e, mi.writeSlot[static_cast<size_t>(i)],
                       v.isConst() ? WriteVal{true, v.value}
                                   : WriteVal{});
                break;
              }
              case Opcode::Invoke: {
                std::span<const int> at = mi.calleesAt(i);
                if (at.empty())
                    break; // framework call: no app-field writes
                bool this_recv = !m.isStatic() && mi.thisStable &&
                                 !instr.srcs.empty() && instr.srcs[0] == 0;
                // Intersection of the callee summaries (a virtual
                // call runs exactly one of them).
                applied.clear();
                bool all_done = true;
                for (int c : at)
                    all_done &= _methods[static_cast<size_t>(c)].mustDone;
                bool first = true;
                for (int c : all_done ? at : std::span<const int>()) {
                    const MethodInfo &cm = _methods[static_cast<size_t>(c)];
                    cur.clear();
                    for (size_t w = 0; w < cm.mustWrites.size(); ++w) {
                        const MustWrite &mw = cm.mustWrites[w];
                        if (!mw.isStatic &&
                            !(this_recv && !cm.method->isStatic()))
                            continue;
                        cur.push_back({cm.mustSlots[w],
                                       {mw.value, mw.exclusive}});
                    }
                    std::sort(cur.begin(), cur.end());
                    if (first) {
                        applied.swap(cur);
                        first = false;
                        continue;
                    }
                    size_t out = 0;
                    auto jt = cur.begin();
                    for (auto &a : applied) {
                        while (jt != cur.end() && jt->first < a.first)
                            ++jt;
                        if (jt == cur.end() || jt->first != a.first ||
                            jt->second.first != a.second.first)
                            continue;
                        a.second.second &= jt->second.second;
                        applied[out++] = a;
                    }
                    applied.resize(out);
                }
                // Everything else the callees may write loses its
                // known last value.
                for (auto &[slot, wv] : e) {
                    auto ap = std::lower_bound(
                        applied.begin(), applied.end(), slot,
                        [](const auto &a, int s) { return a.first < s; });
                    if (ap != applied.end() && ap->first == slot)
                        continue;
                    for (int c : at) {
                        if (_mayWrite[static_cast<size_t>(c) * nslots +
                                      static_cast<size_t>(slot)] !=
                            kMayNot) {
                            wv.known = false;
                            break;
                        }
                    }
                }
                for (const auto &[slot, val] : applied)
                    envSet(e, slot, WriteVal{true, val.first});
                break;
              }
              default:
                break;
            }
        };

        // Forward block fixpoint with intersection meet. The domain
        // only descends, so plain iteration terminates.
        const size_t nblocks = static_cast<size_t>(cfg.numBlocks());
        in.resize(nblocks);
        has_in.assign(nblocks, 0);
        in[static_cast<size_t>(cfg.entryBlock())].clear();
        has_in[static_cast<size_t>(cfg.entryBlock())] = 1;
        Worklist &work = *_blockWork;
        work.reset(static_cast<int>(nblocks));
        work.push(mi.blockRank[static_cast<size_t>(cfg.entryBlock())]);
        bool exit_seen = false;
        exit_env.clear();
        for (int p; (p = work.pop()) >= 0;) {
            const int b = mi.rankBlock[static_cast<size_t>(p)];
            const BasicBlock &block = cfg.blocks()[static_cast<size_t>(b)];
            env = in[static_cast<size_t>(b)];
            for (int i = block.first; i <= block.last; ++i) {
                const Instruction &instr = m.instr(i);
                const bool is_exit = instr.op == Opcode::Return ||
                                     instr.op == Opcode::ReturnVoid ||
                                     instr.op == Opcode::Throw;
                if (is_exit && mi.reachable[static_cast<size_t>(i)]) {
                    if (!exit_seen) {
                        exit_env = env;
                        exit_seen = true;
                    } else {
                        mustMeet(exit_env, env);
                    }
                }
                mustTransfer(i, instr, env);
            }
            for (int s : block.succs) {
                const size_t su = static_cast<size_t>(s);
                if (!has_in[su]) {
                    in[su] = env;
                    has_in[su] = 1;
                } else if (!mustMeet(in[su], env)) {
                    continue;
                }
                work.push(mi.blockRank[su]);
            }
        }

        if (exit_seen) {
            std::vector<std::pair<MustWrite, int>> facts;
            for (const auto &[slot, wv] : exit_env) {
                if (!wv.known)
                    continue;
                const Slot &s = _slots[static_cast<size_t>(slot)];
                MustWrite mw;
                mw.field = s.ref;
                mw.isStatic = s.isStatic;
                mw.value = wv.value;
                mw.exclusive =
                    s.isStatic ||
                    _mayWrite[static_cast<size_t>(idx) * nslots +
                              static_cast<size_t>(slot)] == kMayOnlyThis;
                facts.push_back({mw, slot});
            }
            std::sort(facts.begin(), facts.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            for (const auto &[mw, slot] : facts) {
                mi.mustWrites.push_back(mw);
                mi.mustSlots.push_back(slot);
            }
        }
        mi.mustDone = true;
    }
}

void
InterConstants::countSummaryStats()
{
    std::vector<char> used(_methods.size(), 0);
    for (const MethodInfo &mi : _methods) {
        if (!mi.open) {
            for (const ConstVal &p : mi.params)
                _stats.paramConsts += p.isConst() ? 1 : 0;
        }
        _stats.returnConsts += mi.ret.isConst() ? 1 : 0;
        _stats.mustWriteFacts +=
            static_cast<int64_t>(mi.mustWrites.size());
        for (int c : mi.callees) {
            ++_stats.callSites;
            char &u = used[static_cast<size_t>(c)];
            if (u)
                ++_stats.summaryReuses;
            u = 1;
        }
    }
}

InterConstants::InterConstants(const PointsToResult &result,
                               IfdsOptions options)
    : _r(result), _opts(options), _methodWork(std::make_unique<Worklist>()),
      _blockWork(std::make_unique<Worklist>())
{
    buildUniverse();
    buildCallLists();
    computeRpo();
    runFixpoint();
    if (!_stats.budgetExhausted)
        computeMayWrites();
    if (!_stats.budgetExhausted)
        computeMustWrites();
    if (_stats.budgetExhausted) {
        // Partial fixpoints are not sound facts: degrade to "know
        // nothing" rather than answer from a stale lattice (every
        // query checks the flag first).
        for (MethodInfo &mi : _methods) {
            mi.mustWrites.clear();
            mi.mustSlots.clear();
            mi.ret = constTop();
        }
    }
    countSummaryStats();
}

InterConstants::~InterConstants() = default;

const InterConstants::MethodInfo *
InterConstants::known(const air::Method *m) const
{
    const int idx = indexOf(m);
    if (idx < 0 || _stats.budgetExhausted)
        return nullptr;
    return &_methods[static_cast<size_t>(idx)];
}

ConstVal
InterConstants::before(const air::Method *m, int instr, int reg) const
{
    const MethodInfo *mi = known(m);
    if (!mi || instr < 0 ||
        static_cast<size_t>(instr) >= mi->reachable.size() ||
        !mi->reachable[static_cast<size_t>(instr)])
        return constTop();
    return mi->row(instr)[reg];
}

ConstVal
InterConstants::after(const air::Method *m, int instr, int reg) const
{
    const MethodInfo *mi = known(m);
    if (!mi || instr < 0 ||
        static_cast<size_t>(instr) >= mi->reachable.size() ||
        !mi->reachable[static_cast<size_t>(instr)])
        return constTop();
    const ConstVal *row = mi->row(instr);
    const Instruction &in = mi->method->instr(instr);
    if (in.dst < 0 || in.dst != reg)
        return row[reg];
    if (in.op != Opcode::Invoke)
        return evalInstr(in, row);
    std::span<const int> at = mi->calleesAt(instr);
    if (at.empty() || mi->unresolved[static_cast<size_t>(instr)])
        return constTop();
    ConstVal v; // Bottom
    for (int c : at)
        v = constJoin(v, _methods[static_cast<size_t>(c)].ret);
    return v;
}

bool
InterConstants::reachable(const air::Method *m, int instr) const
{
    const MethodInfo *mi = known(m);
    if (!mi || instr < 0 ||
        static_cast<size_t>(instr) >= mi->reachable.size())
        return true;
    return mi->reachable[static_cast<size_t>(instr)] != 0;
}

bool
InterConstants::edgeFeasible(const air::Method *m, int from_instr,
                             int to_instr) const
{
    const MethodInfo *mi = known(m);
    if (!mi || from_instr < 0 ||
        static_cast<size_t>(from_instr) >= mi->infeasibleTo.size())
        return true;
    return mi->infeasibleTo[static_cast<size_t>(from_instr)] != to_instr;
}

ConstVal
InterConstants::returnConst(const air::Method *m) const
{
    const MethodInfo *mi = known(m);
    return mi ? mi->ret : constTop();
}

const std::vector<InterConstants::MustWrite> &
InterConstants::mustWrites(const air::Method *m) const
{
    static const std::vector<MustWrite> empty;
    const MethodInfo *mi = known(m);
    return mi ? mi->mustWrites : empty;
}

int
InterConstants::solveCountOf(const air::Method *m) const
{
    int idx = indexOf(m);
    return idx < 0 ? 0 : _methods[static_cast<size_t>(idx)].solves;
}

// ---------------------------------------------------------------------
// Client 2: use-after-destroy
// ---------------------------------------------------------------------

std::string
UseAfterDestroyFinding::toString() const
{
    return fieldKey + ": nulled in " + teardownAction + " (" +
           writeMethod + ":" + std::to_string(writeInstr) +
           "), read from " + useAction + " (" + readMethod + ":" +
           std::to_string(readInstr) + ")";
}

namespace {

bool
isPostedKind(ActionKind k)
{
    switch (k) {
      case ActionKind::PostedRunnable:
      case ActionKind::PostedMessage:
      case ActionKind::AsyncPre:
      case ActionKind::AsyncBackground:
      case ActionKind::AsyncPost:
      case ActionKind::ThreadRun:
      case ActionKind::ExecutorRun:
        return true;
      default:
        return false;
    }
}

bool
isRefField(const PointsToResult &r, const air::FieldRef &field)
{
    const air::Field *f =
        r.cha.resolveField(field.className, field.fieldName);
    return f && f->type.isReference();
}

} // namespace

std::vector<UseAfterDestroyFinding>
findUseAfterDestroy(const PointsToResult &result,
                    const InterConstants &inter,
                    const std::function<bool(int, int)> &happensBefore)
{
    std::vector<int> teardowns;
    for (const Action &a : result.actions.all()) {
        if (a.kind == ActionKind::Lifecycle &&
            a.callbackName == "onDestroy")
            teardowns.push_back(a.id);
    }
    if (teardowns.empty())
        return {};

    struct NullStore {
        int teardown;
        const air::Method *method;
        int instr;
    };
    // Keyed by field key id; the printable key is built only for a
    // finding.
    std::map<FieldId, std::vector<NullStore>> nulled;

    for (NodeId n = 0; n < result.cg.numNodes(); ++n) {
        const air::Method *m = result.cg.node(n).method;
        if (!m || !m->hasBody())
            continue;
        const auto &acts = result.cg.actionsOf(n);
        std::vector<int> here;
        for (int t : teardowns) {
            if (acts.count(t))
                here.push_back(t);
        }
        if (here.empty())
            continue;
        for (int i = 0; i < m->numInstrs(); ++i) {
            const Instruction &instr = m->instr(i);
            int value_reg = -1;
            if (instr.op == Opcode::PutField)
                value_reg = instr.srcs[1];
            else if (instr.op == Opcode::PutStatic)
                value_reg = instr.srcs[0];
            else
                continue;
            if (!isRefField(result, instr.field))
                continue;
            // The stored value must be null on every execution --
            // directly or through a setter parameter the summaries
            // prove null.
            ConstVal v = inter.before(m, i, value_reg);
            if (!v.isConst() || v.value != 0)
                continue;
            std::vector<FieldKey> keys;
            if (instr.op == Opcode::PutStatic) {
                keys.push_back(result.staticKey(instr.field));
            } else {
                for (ObjId o : result.pointsTo(n, instr.srcs[0]))
                    keys.push_back(result.fieldKey(o, instr.field));
            }
            for (const FieldKey &key : keys) {
                for (int t : here)
                    nulled[key.id].push_back({t, m, i});
            }
        }
    }
    if (nulled.empty())
        return {};

    std::set<UseAfterDestroyFinding> findings;
    for (NodeId n = 0; n < result.cg.numNodes(); ++n) {
        const air::Method *m = result.cg.node(n).method;
        if (!m || !m->hasBody())
            continue;
        std::vector<int> users;
        for (int a : result.cg.actionsOf(n)) {
            if (isPostedKind(result.actions.get(a).kind))
                users.push_back(a);
        }
        if (users.empty())
            continue;
        for (int i = 0; i < m->numInstrs(); ++i) {
            const Instruction &instr = m->instr(i);
            std::vector<FieldKey> keys;
            if (instr.op == Opcode::GetField) {
                for (ObjId o : result.pointsTo(n, instr.srcs[0]))
                    keys.push_back(result.fieldKey(o, instr.field));
            } else if (instr.op == Opcode::GetStatic) {
                keys.push_back(result.staticKey(instr.field));
            } else {
                continue;
            }
            for (const FieldKey &key : keys) {
                auto stores = nulled.find(key.id);
                if (stores == nulled.end())
                    continue;
                for (const NullStore &ns : stores->second) {
                    for (int use : users) {
                        if (use == ns.teardown)
                            continue;
                        // Only a use the HB graph proves complete
                        // before the teardown is safe.
                        if (happensBefore(use, ns.teardown))
                            continue;
                        UseAfterDestroyFinding f;
                        f.fieldKey = key.str();
                        f.teardownAction =
                            result.actions.get(ns.teardown).label;
                        f.useAction =
                            result.actions.get(use).label;
                        f.writeMethod = ns.method->qualifiedName();
                        f.readMethod = m->qualifiedName();
                        f.writeInstr = ns.instr;
                        f.readInstr = i;
                        findings.insert(std::move(f));
                    }
                }
            }
        }
    }
    return {findings.begin(), findings.end()};
}

} // namespace sierra::analysis
