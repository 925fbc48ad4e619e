#include "ifds.hh"

#include <algorithm>
#include <optional>

#include "air/logging.hh"
#include "cfg.hh"
#include "dataflow.hh"

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
evalBranch(const Instruction &instr, const std::vector<ConstVal> &env)
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

/** Apply one non-invoke instruction's effect on a register
 *  environment: constants and moves propagate, arithmetic folds, and
 *  every other write (loads, allocations, strings) is unknown. */
void
transferInstr(const Instruction &instr, std::vector<ConstVal> &env)
{
    switch (instr.op) {
      case Opcode::ConstInt:
        env[instr.dst] = constOf(instr.intValue);
        break;
      case Opcode::ConstNull:
        env[instr.dst] = constOf(0);
        break;
      case Opcode::Move:
        env[instr.dst] = env[instr.srcs[0]];
        break;
      case Opcode::BinOp: {
        const ConstVal &l = env[instr.srcs[0]];
        const ConstVal &r = env[instr.srcs[1]];
        env[instr.dst] =
            l.isConst() && r.isConst()
                ? constOf(air::evalBinOp(instr.binop, l.value, r.value))
                : constTop();
        break;
      }
      case Opcode::UnOp: {
        const ConstVal &s = env[instr.srcs[0]];
        if (s.isConst()) {
            // Matches the dynamic interpreter: Not is logical.
            env[instr.dst] = constOf(instr.unop == air::UnOpKind::Not
                                         ? (s.value == 0 ? 1 : 0)
                                         : -s.value);
        } else {
            env[instr.dst] = constTop();
        }
        break;
      }
      default:
        // Loads, calls, allocations, ConstStr: unknown value. (New is
        // non-null but not a *known* integer; modeling it as a constant
        // would fold comparisons between two distinct allocations.)
        if (instr.dst >= 0)
            env[instr.dst] = constTop();
        break;
    }
}

/** Identity of one field in the may/must-write summaries (string
 * identity: IFDS summaries are method-scoped and cross harnesses, so
 * they cannot use per-result interned ids). `ref` is the operand of
 * the first write seen; any operand naming the same class and field
 * stands for the slot. */
struct FieldSlot {
    bool isStatic{false};
    const air::FieldRef *ref{nullptr};

    bool operator<(const FieldSlot &o) const
    {
        if (isStatic != o.isStatic)
            return isStatic < o.isStatic;
        if (ref->className != o.ref->className)
            return ref->className < o.ref->className;
        return ref->fieldName < o.ref->fieldName;
    }
    bool operator==(const FieldSlot &o) const
    {
        return isStatic == o.isStatic && *ref == *o.ref;
    }
};

/** "Definitely written on every path; last value if known." */
struct WriteVal {
    bool known{false};
    int64_t value{0};
};

using MustEnv = std::map<FieldSlot, WriteVal>;

/** Meet of two must-write environments: intersect keys, values must
 *  agree to stay known. Returns true if `into` changed. */
bool
mustMeet(MustEnv &into, const MustEnv &from)
{
    bool changed = false;
    for (auto it = into.begin(); it != into.end();) {
        auto jt = from.find(it->first);
        if (jt == from.end()) {
            it = into.erase(it);
            changed = true;
            continue;
        }
        if (it->second.known &&
            (!jt->second.known ||
             jt->second.value != it->second.value)) {
            it->second.known = false;
            changed = true;
        }
        ++it;
    }
    return changed;
}

} // namespace

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

    /** Join of actuals over every call site (size firstTempReg). */
    std::vector<ConstVal> params;
    /** Join of the values the method can return. */
    ConstVal ret;

    /** Per call instruction: universe indices of resolvable callees. */
    std::map<int, std::vector<int>> calleesAt;
    /** Call instructions that may also dispatch to a bodiless target
     *  (return value must stay unknown). */
    std::set<int> unresolvedAt;
    std::vector<int> callers; //!< universe indices, sorted unique

    // Final per-instruction facts (from the converged last solve).
    std::vector<std::vector<ConstVal>> before;
    std::vector<char> reachable;
    std::set<std::pair<int, int>> infeasible;

    // Summaries of field writes.
    std::map<FieldSlot, char> mayWriteOnlyThis; //!< present = may write
    std::vector<MustWrite> mustWrites;
    bool mustDone{false};
};

int
InterConstants::indexOf(const air::Method *m) const
{
    auto it = _index.find(m);
    return it == _index.end() ? -1 : it->second;
}

void
InterConstants::buildUniverse()
{
    for (NodeId n = 0; n < _r.cg.numNodes(); ++n) {
        const air::Method *m = _r.cg.node(n).method;
        if (!m || !m->hasBody() || _index.count(m))
            continue;
        _index.emplace(m, static_cast<int>(_methods.size()));
        MethodInfo mi;
        mi.method = m;
        mi.cfg = &_r.cfg(*m);
        mi.params.assign(static_cast<size_t>(m->firstTempReg()),
                         ConstVal{});
        mi.thisStable = !m->isStatic();
        for (int i = 0; i < m->numInstrs() && mi.thisStable; ++i) {
            if (m->instr(i).dst == 0)
                mi.thisStable = false;
        }
        _methods.push_back(std::move(mi));
    }
    _stats.methods = static_cast<int64_t>(_methods.size());

    // Framework-invoked entries: every action entry plus the harness
    // root. Their parameters carry framework values -- pin them Top.
    auto markOpen = [&](NodeId n) {
        if (n < 0)
            return;
        int idx = indexOf(_r.cg.node(n).method);
        if (idx >= 0)
            _methods[idx].open = true;
    };
    markOpen(_r.rootNode);
    for (const Action &a : _r.actions.all())
        markOpen(a.entryNode);
}

void
InterConstants::buildCallLists()
{
    std::vector<std::set<int>> callers(_methods.size());
    for (NodeId n = 0; n < _r.cg.numNodes(); ++n) {
        int caller = indexOf(_r.cg.node(n).method);
        if (caller < 0)
            continue;
        MethodInfo &mi = _methods[caller];
        for (const CGEdge &edge : _r.cg.edgesOf(n)) {
            int instr = _r.sites.instrOf(edge.site);
            const air::Method *cm = _r.cg.node(edge.callee).method;
            int callee = cm ? indexOf(cm) : -1;
            if (callee < 0) {
                mi.unresolvedAt.insert(instr);
                continue;
            }
            std::vector<int> &at = mi.calleesAt[instr];
            if (std::find(at.begin(), at.end(), callee) == at.end())
                at.push_back(callee);
            callers[static_cast<size_t>(callee)].insert(caller);
        }
    }
    for (size_t i = 0; i < _methods.size(); ++i) {
        MethodInfo &mi = _methods[i];
        for (auto &[instr, at] : mi.calleesAt)
            std::sort(at.begin(), at.end());
        mi.callers.assign(callers[i].begin(), callers[i].end());
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
    // before their callees and actuals are seeded early.
    const int n = static_cast<int>(_methods.size());
    std::vector<int> postorder;
    std::vector<char> seen(static_cast<size_t>(n), 0);
    auto dfs = [&](int root) {
        std::vector<std::pair<int, size_t>> stack{{root, 0}};
        seen[static_cast<size_t>(root)] = 1;
        std::vector<std::vector<int>> succs_cache(
            static_cast<size_t>(n));
        while (!stack.empty()) {
            auto &[m, cursor] = stack.back();
            std::vector<int> &succs =
                succs_cache[static_cast<size_t>(m)];
            if (succs.empty() && cursor == 0) {
                std::set<int> s;
                for (const auto &[instr, at] :
                     _methods[static_cast<size_t>(m)].calleesAt)
                    s.insert(at.begin(), at.end());
                succs.assign(s.begin(), s.end());
            }
            if (cursor < succs.size()) {
                int t = succs[cursor++];
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
    int next = 0;
    for (auto it = postorder.rbegin(); it != postorder.rend(); ++it)
        _methods[static_cast<size_t>(*it)].rpo = next++;
}

namespace {

/** The per-method SCCP problem, seeded with the interprocedural
 *  parameter facts and callee return summaries. */
struct SeededConstProblem {
    using Domain = std::vector<ConstVal>;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Forward;

    int numRegisters;
    int numFrameRegs;
    bool open;
    const std::vector<ConstVal> *params;
    /** dst value of each Invoke instruction under current summaries. */
    const std::map<int, ConstVal> *invokeReturns;

    Domain
    boundary() const
    {
        Domain d(static_cast<size_t>(numRegisters), constTop());
        if (!open) {
            for (int r = 0; r < numFrameRegs; ++r)
                d[static_cast<size_t>(r)] =
                    (*params)[static_cast<size_t>(r)];
        }
        return d;
    }

    bool
    merge(Domain &into, const Domain &from) const
    {
        bool changed = false;
        for (size_t r = 0; r < into.size(); ++r) {
            ConstVal met = constMeet(into[r], from[r]);
            if (!sameVal(met, into[r])) {
                into[r] = met;
                changed = true;
            }
        }
        return changed;
    }

    void
    transfer(int instr_idx, const Instruction &instr, Domain &d) const
    {
        if (instr.op == Opcode::Invoke) {
            if (instr.dst >= 0) {
                auto it = invokeReturns->find(instr_idx);
                d[static_cast<size_t>(instr.dst)] =
                    it != invokeReturns->end() ? it->second
                                               : constTop();
            }
            return;
        }
        transferInstr(instr, d);
    }

    bool
    edgeTransfer(const Cfg &cfg, int from, int to, Domain &d) const
    {
        const auto &fb = cfg.blocks()[from];
        if (fb.first > fb.last)
            return true; // synthetic exit block
        const Instruction &last = cfg.method().instr(fb.last);
        if (!last.isConditionalBranch())
            return true;
        const int target_block = cfg.blockOf(last.target);
        const int fall_block =
            fb.last + 1 < cfg.method().numInstrs()
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
        // "if (r != c)" falls through), r is known to be c. `d` is the
        // environment at the branch (branches write no register).
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
};

} // namespace

/**
 * (Re-)summarize one method under the current interprocedural facts:
 * record its per-instruction facts, join its actuals into callee
 * parameter summaries, and recompute its return summary.
 * @return true if the return summary changed.
 */
bool
InterConstants::solveOne(int idx)
{
    MethodInfo &mi = _methods[static_cast<size_t>(idx)];
    const air::Method &m = *mi.method;
    const Cfg &cfg = *mi.cfg;
    const int n = m.numInstrs();

    // The callee return summary of each call, fixed for this solve.
    std::map<int, ConstVal> invoke_returns;
    for (const auto &[instr, at] : mi.calleesAt) {
        if (mi.unresolvedAt.count(instr)) {
            invoke_returns.emplace(instr, constTop());
            continue;
        }
        ConstVal v; // Bottom
        for (int c : at)
            v = constJoin(v, _methods[static_cast<size_t>(c)].ret);
        invoke_returns.emplace(instr, v);
    }

    SeededConstProblem problem{m.numRegisters(), m.firstTempReg(),
                               mi.open, &mi.params, &invoke_returns};
    DataflowResult<SeededConstProblem::Domain> r =
        solveDataflow(cfg, problem);

    mi.reachable.assign(static_cast<size_t>(n), 0);
    mi.before.assign(static_cast<size_t>(n),
                     std::vector<ConstVal>(
                         static_cast<size_t>(m.numRegisters())));
    mi.infeasible.clear();

    ConstVal ret; // Bottom
    for (const BasicBlock &block : cfg.blocks()) {
        if (block.first > block.last || !r.reached[block.id])
            continue;
        std::vector<ConstVal> env = r.atEntry[block.id];
        for (int i = block.first; i <= block.last; ++i) {
            ++_stats.statesVisited;
            mi.reachable[static_cast<size_t>(i)] = 1;
            mi.before[static_cast<size_t>(i)] = env;
            const Instruction &instr = m.instr(i);
            if (instr.op == Opcode::Invoke) {
                // Flow actuals into the formal summaries of callees.
                auto at = mi.calleesAt.find(i);
                if (at != mi.calleesAt.end()) {
                    for (int c : at->second) {
                        MethodInfo &cm =
                            _methods[static_cast<size_t>(c)];
                        if (cm.open)
                            continue;
                        for (size_t a = 0; a < cm.params.size();
                             ++a) {
                            ConstVal v =
                                a < instr.srcs.size()
                                    ? env[static_cast<size_t>(
                                          instr.srcs[a])]
                                    : constTop();
                            ConstVal joined =
                                constJoin(cm.params[a], v);
                            if (!sameVal(joined, cm.params[a])) {
                                cm.params[a] = joined;
                                _paramsDirty.insert(c);
                            }
                        }
                    }
                }
                problem.transfer(i, instr, env);
            } else {
                transferInstr(instr, env);
            }
            if (instr.op == Opcode::Return)
                ret = constJoin(
                    ret, mi.before[static_cast<size_t>(i)]
                                  [static_cast<size_t>(
                                      instr.srcs[0])]);
        }

        // Record branch edges the fixpoint proved infeasible.
        const Instruction &last = m.instr(block.last);
        if (!last.isConditionalBranch())
            continue;
        const int target_block = cfg.blockOf(last.target);
        const int fall_block =
            block.last + 1 < n ? cfg.blockOf(block.last + 1) : -1;
        if (target_block == fall_block)
            continue;
        const int verdict =
            evalBranch(last, mi.before[static_cast<size_t>(block.last)]);
        if (verdict == 1 && fall_block >= 0)
            mi.infeasible.insert({block.last, block.last + 1});
        else if (verdict == 0)
            mi.infeasible.insert({block.last, last.target});
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
    std::set<std::pair<int, int>> worklist; // (rpo, index)
    for (size_t i = 0; i < _methods.size(); ++i)
        worklist.insert({_methods[i].rpo, static_cast<int>(i)});

    while (!worklist.empty()) {
        auto [rpo, idx] = *worklist.begin();
        (void)rpo;
        worklist.erase(worklist.begin());
        MethodInfo &mi = _methods[static_cast<size_t>(idx)];
        if (mi.solves >= _opts.maxSolvesPerMethod ||
            _stats.statesVisited > _opts.maxStates) {
            _stats.budgetExhausted = true;
            return;
        }
        ++mi.solves;
        ++_stats.summaryComputations;
        _paramsDirty.clear();
        bool ret_changed = solveOne(idx);
        for (int c : _paramsDirty)
            worklist.insert({_methods[static_cast<size_t>(c)].rpo, c});
        if (ret_changed) {
            for (int caller : mi.callers)
                worklist.insert(
                    {_methods[static_cast<size_t>(caller)].rpo,
                     caller});
        }
    }
}

void
InterConstants::computeMayWrites()
{
    // Transitive may-write sets with an "only via this" flag per
    // field, to fixpoint (entries only appear, flags only drop).
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < _methods.size(); ++i) {
            MethodInfo &mi = _methods[i];
            const air::Method &m = *mi.method;
            auto record = [&](const FieldSlot &id, bool via_this) {
                auto [it, inserted] =
                    mi.mayWriteOnlyThis.emplace(id, via_this ? 1 : 0);
                if (inserted) {
                    changed = true;
                } else if (it->second && !via_this) {
                    it->second = 0;
                    changed = true;
                }
            };
            for (int k = 0; k < m.numInstrs(); ++k) {
                const Instruction &instr = m.instr(k);
                switch (instr.op) {
                  case Opcode::PutField:
                    record({false, &instr.field},
                           !m.isStatic() && instr.srcs[0] == 0 &&
                               mi.thisStable);
                    break;
                  case Opcode::PutStatic:
                    // One global cell: "exclusive" by construction.
                    record({true, &instr.field}, true);
                    break;
                  case Opcode::Invoke: {
                    auto at = mi.calleesAt.find(k);
                    if (at == mi.calleesAt.end())
                        break;
                    bool this_recv =
                        !m.isStatic() && mi.thisStable &&
                        !instr.srcs.empty() && instr.srcs[0] == 0;
                    for (int c : at->second) {
                        const MethodInfo &cm =
                            _methods[static_cast<size_t>(c)];
                        for (const auto &[id, via] :
                             cm.mayWriteOnlyThis) {
                            bool keeps_chain =
                                id.isStatic ||
                                (via && this_recv &&
                                 !cm.method->isStatic());
                            record(id, id.isStatic ? true
                                                   : keeps_chain &&
                                                         via);
                        }
                    }
                    break;
                  }
                  default:
                    break;
                }
            }
        }
    }
}

void
InterConstants::computeMustWrites()
{
    // Callees first (descending RPO); recursive edges to a method not
    // yet summarized fall back to may-write invalidation only.
    std::vector<int> order(_methods.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return _methods[static_cast<size_t>(a)].rpo >
               _methods[static_cast<size_t>(b)].rpo;
    });

    for (int idx : order) {
        MethodInfo &mi = _methods[static_cast<size_t>(idx)];
        const air::Method &m = *mi.method;
        const Cfg &cfg = *mi.cfg;

        auto mustTransfer = [&](int i, const Instruction &instr,
                                MustEnv &env) {
            ++_stats.statesVisited;
            switch (instr.op) {
              case Opcode::PutField: {
                FieldSlot id{false, &instr.field};
                if (!m.isStatic() && instr.srcs[0] == 0 &&
                    mi.thisStable) {
                    ConstVal v =
                        mi.before[static_cast<size_t>(i)]
                                 [static_cast<size_t>(instr.srcs[1])];
                    env[id] = v.isConst() ? WriteVal{true, v.value}
                                          : WriteVal{};
                } else if (auto it = env.find(id); it != env.end()) {
                    // A write through a maybe-aliasing base: the
                    // last value of the `this` cell is now unknown.
                    it->second.known = false;
                }
                break;
              }
              case Opcode::PutStatic: {
                ConstVal v =
                    mi.before[static_cast<size_t>(i)]
                             [static_cast<size_t>(instr.srcs[0])];
                env[FieldSlot{true, &instr.field}] =
                    v.isConst() ? WriteVal{true, v.value}
                                : WriteVal{};
                break;
              }
              case Opcode::Invoke: {
                auto at = mi.calleesAt.find(i);
                if (at == mi.calleesAt.end())
                    break; // framework call: no app-field writes
                bool this_recv =
                    !m.isStatic() && mi.thisStable &&
                    !instr.srcs.empty() && instr.srcs[0] == 0;
                // Intersection of the callee summaries (a virtual
                // call runs exactly one of them).
                std::map<FieldSlot, MustWrite> applied;
                bool first = true;
                bool all_done = true;
                for (int c : at->second)
                    all_done &= _methods[static_cast<size_t>(c)]
                                    .mustDone;
                if (all_done) {
                    for (int c : at->second) {
                        const MethodInfo &cm =
                            _methods[static_cast<size_t>(c)];
                        std::map<FieldSlot, MustWrite> cur;
                        for (const MustWrite &mw : cm.mustWrites) {
                            if (!mw.isStatic &&
                                !(this_recv &&
                                  !cm.method->isStatic()))
                                continue;
                            cur.emplace(
                                FieldSlot{mw.isStatic, mw.field},
                                mw);
                        }
                        if (first) {
                            applied = std::move(cur);
                            first = false;
                        } else {
                            for (auto it = applied.begin();
                                 it != applied.end();) {
                                auto jt = cur.find(it->first);
                                if (jt == cur.end() ||
                                    jt->second.value !=
                                        it->second.value) {
                                    it = applied.erase(it);
                                } else {
                                    it->second.exclusive &=
                                        jt->second.exclusive;
                                    ++it;
                                }
                            }
                        }
                    }
                }
                // Everything else the callees may write loses its
                // known last value.
                for (int c : at->second) {
                    const MethodInfo &cm =
                        _methods[static_cast<size_t>(c)];
                    for (const auto &[id, via] :
                         cm.mayWriteOnlyThis) {
                        if (applied.count(id))
                            continue;
                        if (auto it = env.find(id); it != env.end())
                            it->second.known = false;
                    }
                }
                for (const auto &[id, mw] : applied)
                    env[id] = WriteVal{true, mw.value};
                break;
              }
              default:
                break;
            }
        };

        // Forward block fixpoint with intersection meet. The domain
        // only descends, so plain iteration terminates.
        const std::vector<int> block_order =
            dataflow_detail::blockOrder(cfg,
                                        DataflowDirection::Forward);
        std::vector<int> priority(
            static_cast<size_t>(cfg.numBlocks()), 0);
        for (size_t p = 0; p < block_order.size(); ++p)
            priority[static_cast<size_t>(block_order[p])] =
                static_cast<int>(p);
        std::vector<std::optional<MustEnv>> in(
            static_cast<size_t>(cfg.numBlocks()));
        in[static_cast<size_t>(cfg.entryBlock())] = MustEnv{};
        std::set<std::pair<int, int>> worklist{
            {priority[static_cast<size_t>(cfg.entryBlock())],
             cfg.entryBlock()}};
        MustEnv exit_env;
        bool exit_seen = false;
        while (!worklist.empty()) {
            int b = worklist.begin()->second;
            worklist.erase(worklist.begin());
            const BasicBlock &block =
                cfg.blocks()[static_cast<size_t>(b)];
            MustEnv env = *in[static_cast<size_t>(b)];
            if (block.first <= block.last) {
                for (int i = block.first; i <= block.last; ++i) {
                    const Instruction &instr = m.instr(i);
                    const bool is_exit =
                        instr.op == Opcode::Return ||
                        instr.op == Opcode::ReturnVoid ||
                        instr.op == Opcode::Throw;
                    if (is_exit &&
                        mi.reachable[static_cast<size_t>(i)]) {
                        if (!exit_seen) {
                            exit_env = env;
                            exit_seen = true;
                        } else {
                            mustMeet(exit_env, env);
                        }
                    }
                    mustTransfer(i, instr, env);
                }
            }
            for (int s : block.succs) {
                auto &succ_in = in[static_cast<size_t>(s)];
                if (!succ_in) {
                    succ_in = env;
                } else if (!mustMeet(*succ_in, env)) {
                    continue;
                }
                worklist.insert(
                    {priority[static_cast<size_t>(s)], s});
            }
        }

        if (exit_seen) {
            for (const auto &[id, wv] : exit_env) {
                if (!wv.known)
                    continue;
                MustWrite mw;
                mw.field = id.ref;
                mw.isStatic = id.isStatic;
                mw.value = wv.value;
                auto via = mi.mayWriteOnlyThis.find(id);
                mw.exclusive =
                    id.isStatic ||
                    (via != mi.mayWriteOnlyThis.end() &&
                     via->second != 0);
                mi.mustWrites.push_back(std::move(mw));
            }
            std::sort(mi.mustWrites.begin(), mi.mustWrites.end());
        }
        mi.mustDone = true;
    }
}

void
InterConstants::countSummaryStats()
{
    std::set<int> used;
    for (const MethodInfo &mi : _methods) {
        if (!mi.open) {
            for (const ConstVal &p : mi.params)
                _stats.paramConsts += p.isConst() ? 1 : 0;
        }
        _stats.returnConsts += mi.ret.isConst() ? 1 : 0;
        _stats.mustWriteFacts +=
            static_cast<int64_t>(mi.mustWrites.size());
        for (const auto &[instr, at] : mi.calleesAt) {
            for (int c : at) {
                ++_stats.callSites;
                if (!used.insert(c).second)
                    ++_stats.summaryReuses;
            }
        }
    }
}

InterConstants::InterConstants(const PointsToResult &result,
                               IfdsOptions options)
    : _r(result), _opts(options)
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
        // nothing" rather than answer from a stale lattice.
        for (MethodInfo &mi : _methods) {
            mi.before.clear();
            mi.reachable.clear();
            mi.infeasible.clear();
            mi.mustWrites.clear();
            mi.ret = constTop();
        }
    }
    countSummaryStats();
}

InterConstants::~InterConstants() = default;

ConstVal
InterConstants::before(const air::Method *m, int instr, int reg) const
{
    int idx = indexOf(m);
    if (idx < 0 || _stats.budgetExhausted)
        return constTop();
    const MethodInfo &mi = _methods[static_cast<size_t>(idx)];
    if (instr < 0 ||
        static_cast<size_t>(instr) >= mi.reachable.size() ||
        !mi.reachable[static_cast<size_t>(instr)])
        return constTop();
    return mi.before[static_cast<size_t>(instr)]
                    [static_cast<size_t>(reg)];
}

ConstVal
InterConstants::after(const air::Method *m, int instr, int reg) const
{
    int idx = indexOf(m);
    if (idx < 0 || _stats.budgetExhausted)
        return constTop();
    const MethodInfo &mi = _methods[static_cast<size_t>(idx)];
    if (instr < 0 ||
        static_cast<size_t>(instr) >= mi.reachable.size() ||
        !mi.reachable[static_cast<size_t>(instr)])
        return constTop();
    std::vector<ConstVal> env = mi.before[static_cast<size_t>(instr)];
    const Instruction &in = m->instr(instr);
    if (in.op == Opcode::Invoke) {
        if (in.dst >= 0) {
            ConstVal v = constTop();
            if (!mi.unresolvedAt.count(instr)) {
                auto at = mi.calleesAt.find(instr);
                if (at != mi.calleesAt.end()) {
                    v = ConstVal{};
                    for (int c : at->second)
                        v = constJoin(
                            v,
                            _methods[static_cast<size_t>(c)].ret);
                }
            }
            env[static_cast<size_t>(in.dst)] = v;
        }
    } else {
        transferInstr(in, env);
    }
    return env[static_cast<size_t>(reg)];
}

bool
InterConstants::reachable(const air::Method *m, int instr) const
{
    int idx = indexOf(m);
    if (idx < 0 || _stats.budgetExhausted)
        return true;
    const MethodInfo &mi = _methods[static_cast<size_t>(idx)];
    if (instr < 0 || static_cast<size_t>(instr) >= mi.reachable.size())
        return true;
    return mi.reachable[static_cast<size_t>(instr)] != 0;
}

bool
InterConstants::edgeFeasible(const air::Method *m, int from_instr,
                             int to_instr) const
{
    int idx = indexOf(m);
    if (idx < 0 || _stats.budgetExhausted)
        return true;
    return !_methods[static_cast<size_t>(idx)].infeasible.count(
        {from_instr, to_instr});
}

ConstVal
InterConstants::returnConst(const air::Method *m) const
{
    int idx = indexOf(m);
    if (idx < 0 || _stats.budgetExhausted)
        return constTop();
    return _methods[static_cast<size_t>(idx)].ret;
}

const std::vector<InterConstants::MustWrite> &
InterConstants::mustWrites(const air::Method *m) const
{
    static const std::vector<MustWrite> empty;
    int idx = indexOf(m);
    if (idx < 0 || _stats.budgetExhausted)
        return empty;
    return _methods[static_cast<size_t>(idx)].mustWrites;
}

int
InterConstants::solveCountOf(const air::Method *m) const
{
    int idx = indexOf(m);
    return idx < 0 ? 0 : _methods[static_cast<size_t>(idx)].solves;
}

// ---------------------------------------------------------------------
// Summary export (consumed by the store's DepIndex, docs/CACHING.md)
// ---------------------------------------------------------------------

std::vector<InterConstants::ExportedSummary>
InterConstants::exportSummaries() const
{
    std::vector<ExportedSummary> out;
    out.reserve(_methods.size());
    for (const MethodInfo &mi : _methods) {
        ExportedSummary s;
        s.method = mi.method->qualifiedName();
        std::set<std::string> callees;
        for (const auto &[instr, at] : mi.calleesAt) {
            for (int callee : at) {
                callees.insert(_methods[static_cast<size_t>(callee)]
                                   .method->qualifiedName());
            }
        }
        s.callees.assign(callees.begin(), callees.end());
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const ExportedSummary &a, const ExportedSummary &b) {
                  return a.method < b.method;
              });
    return out;
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
    std::map<std::string, std::vector<NullStore>> nulled;

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
            std::vector<std::string> keys;
            if (instr.op == Opcode::PutStatic) {
                keys.push_back(result.staticKey(instr.field).str());
            } else {
                for (ObjId o : result.pointsTo(n, instr.srcs[0]))
                    keys.push_back(result.fieldKey(o, instr.field).str());
            }
            for (const std::string &key : keys) {
                for (int t : here)
                    nulled[key].push_back({t, m, i});
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
            std::vector<std::string> keys;
            if (instr.op == Opcode::GetField) {
                for (ObjId o : result.pointsTo(n, instr.srcs[0]))
                    keys.push_back(result.fieldKey(o, instr.field).str());
            } else if (instr.op == Opcode::GetStatic) {
                keys.push_back(result.staticKey(instr.field).str());
            } else {
                continue;
            }
            for (const std::string &key : keys) {
                auto stores = nulled.find(key);
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
                        f.fieldKey = key;
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
