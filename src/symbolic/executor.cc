#include "executor.hh"

#include <algorithm>
#include <span>

#include "air/logging.hh"
#include "analysis/ifds.hh"

namespace sierra::symbolic {

using air::CondKind;
using air::Instruction;
using air::Opcode;
using analysis::NodeId;
using race::MemLoc;

const char *
queryVerdictName(QueryVerdict v)
{
    switch (v) {
      case QueryVerdict::Feasible: return "feasible";
      case QueryVerdict::Infeasible: return "infeasible";
      case QueryVerdict::Budget: return "budget";
    }
    panic("unreachable verdict");
}

BackwardExecutor::BackwardExecutor(const analysis::PointsToResult &result,
                                   ExecutorOptions options)
    : _r(result), _opts(options)
{
}

const std::vector<analysis::FieldKey> &
BackwardExecutor::mayWriteKeys(NodeId n)
{
    auto it = _mayWrite.find(n);
    if (it != _mayWrite.end())
        return it->second;
    // Set ordered by interned id; havoc (dropLocsByKey) is
    // order-insensitive, so id order is as good as lexicographic.
    std::set<analysis::FieldKey> keys;
    std::unordered_set<NodeId> seen{n};
    collectMayWrites(n, keys, seen);
    auto [ins, inserted] = _mayWrite.emplace(
        n,
        std::vector<analysis::FieldKey>(keys.begin(), keys.end()));
    (void)inserted;
    return ins->second;
}

void
BackwardExecutor::collectMayWrites(NodeId n,
                                   std::set<analysis::FieldKey> &keys,
                                   std::unordered_set<NodeId> &seen)
{
    const air::Method *m = _r.cg.node(n).method;
    if (!m->hasBody())
        return;
    for (int i = 0; i < m->numInstrs(); ++i) {
        const Instruction &instr = m->instr(i);
        switch (instr.op) {
          case Opcode::PutField:
            for (analysis::ObjId o : _r.pointsTo(n, instr.srcs[0]))
                keys.insert(_r.fieldKey(o, instr.field));
            keys.insert(_r.declaredKey(instr.field));
            break;
          case Opcode::PutStatic:
            keys.insert(_r.staticKey(instr.field));
            break;
          case Opcode::ArrayPut:
            for (analysis::ObjId o : _r.pointsTo(n, instr.srcs[0]))
                keys.insert(_r.wildcardKey(o));
            break;
          default:
            break;
        }
    }
    // Only complete sets are memoised, so a memoised callee's set is
    // taken whole; any other callee is walked once per computation.
    for (const auto &edge : _r.cg.edgesOf(n)) {
        auto memo = _mayWrite.find(edge.callee);
        if (memo != _mayWrite.end())
            keys.insert(memo->second.begin(), memo->second.end());
        else if (seen.insert(edge.callee).second)
            collectMayWrites(edge.callee, keys, seen);
    }
}

bool
BackwardExecutor::resolveLoc(NodeId n, int reg,
                             const air::FieldRef &field, MemLoc &out)
{
    const auto &pts = _r.pointsTo(n, reg);
    if (pts.size() != 1)
        return false;
    out.isStatic = false;
    out.obj = *pts.begin();
    out.key = _r.fieldKey(out.obj, field);
    return true;
}

bool
BackwardExecutor::transfer(PathState &st, const Instruction &instr)
{
    ConstraintStore &store = st.store;
    const int f = st.frame;
    switch (instr.op) {
      case Opcode::ConstInt:
        return store.substituteReg(regKey(f, instr.dst),
                                   Operand::constant(instr.intValue));
      case Opcode::ConstNull:
        return store.substituteReg(regKey(f, instr.dst),
                                   Operand::constant(0));
      case Opcode::ConstStr:
      case Opcode::BinOp:
      case Opcode::UnOp: {
        // Arithmetic results are opaque to the WP transfer, but the
        // interprocedural constant facts may know the value holds on
        // every run (folded arithmetic, setter parameters).
        if (_opts.inter) {
            const air::Method *m = _r.cg.node(st.node).method;
            analysis::ConstVal v =
                _opts.inter->after(m, st.instr, instr.dst);
            if (v.isConst()) {
                ++_stats.interApplied;
                return store.substituteReg(regKey(f, instr.dst),
                                           Operand::constant(v.value));
            }
        }
        return store.substituteReg(regKey(f, instr.dst),
                                   Operand::unknown());
      }
      case Opcode::New:
      case Opcode::NewArray:
        // Fresh allocations are non-null; 1 satisfies != null checks
        // and conflicts with == null checks.
        return store.substituteReg(regKey(f, instr.dst),
                                   Operand::constant(1));
      case Opcode::Move:
        return store.substituteReg(
            regKey(f, instr.dst),
            Operand::regOp(regKey(f, instr.srcs[0])));
      case Opcode::GetField: {
        MemLoc loc;
        if (resolveLoc(st.node, instr.srcs[0], instr.field, loc)) {
            return store.substituteReg(regKey(f, instr.dst),
                                       Operand::locOp(loc));
        }
        return store.substituteReg(regKey(f, instr.dst),
                                   Operand::unknown());
      }
      case Opcode::PutField: {
        MemLoc loc;
        if (resolveLoc(st.node, instr.srcs[0], instr.field, loc)) {
            // Strong update.
            return store.substituteLoc(
                loc, Operand::regOp(regKey(f, instr.srcs[1])));
        }
        // Ambiguous base: weak update, havoc by key.
        store.dropLocsByKey({_r.declaredKey(instr.field)});
        for (analysis::ObjId o : _r.pointsTo(st.node, instr.srcs[0]))
            store.dropLocsByKey({_r.fieldKey(o, instr.field)});
        return !store.failed();
      }
      case Opcode::GetStatic: {
        MemLoc loc;
        loc.isStatic = true;
        loc.key = _r.staticKey(instr.field);
        return store.substituteReg(regKey(f, instr.dst),
                                   Operand::locOp(loc));
      }
      case Opcode::PutStatic: {
        MemLoc loc;
        loc.isStatic = true;
        loc.key = _r.staticKey(instr.field);
        return store.substituteLoc(
            loc, Operand::regOp(regKey(f, instr.srcs[0])));
      }
      case Opcode::ArrayGet:
        return store.substituteReg(regKey(f, instr.dst),
                                   Operand::unknown());
      case Opcode::ArrayPut:
        for (analysis::ObjId o : _r.pointsTo(st.node, instr.srcs[0]))
            store.dropLocsByKey({_r.wildcardKey(o)});
        return !store.failed();
      default:
        return !store.failed();
    }
}

bool
BackwardExecutor::bindFrame(ConstraintStore &store,
                            const air::Method *callee, int callee_frame,
                            const Instruction &call, int caller_frame)
{
    // Frame-distinct register keys make the renames collision-free.
    int frame_regs = callee->firstTempReg();
    store.dropRegsInRange(regKey(callee_frame, frame_regs),
                          regKey(callee_frame + 1, 0));
    for (int r = 0; r < frame_regs; ++r) {
        Operand value =
            static_cast<size_t>(r) < call.srcs.size()
                ? Operand::regOp(regKey(caller_frame, call.srcs[r]))
                : Operand::unknown();
        if (!store.substituteReg(regKey(callee_frame, r), value))
            return false;
    }
    return !store.failed();
}

bool
BackwardExecutor::handleInvoke(PathState &st, const Instruction &instr,
                               std::vector<PathState> &stack)
{
    // Callees of this site within the current phase's walk.
    analysis::SiteId site =
        _r.sites.find(_r.cg.node(st.node).method, st.instr);
    std::vector<NodeId> callees;
    for (const auto &edge : _r.cg.edgesOf(st.node)) {
        if (edge.site == site &&
            _r.cg.node(edge.callee).method->hasBody()) {
            callees.push_back(edge.callee);
        }
    }

    if (callees.empty() ||
        static_cast<int>(st.callStack.size()) >= _opts.maxCallDepth) {
        // Havoc: unknown return value, drop what callees may write.
        // The interprocedural summaries can do better on both counts:
        // a constant return concretizes the destination, and fields
        // every callee must-writes with a known constant get a strong
        // update -- which may conflict with collected constraints and
        // prune the path -- instead of being dropped.
        if (instr.dst >= 0) {
            Operand ret = Operand::unknown();
            if (_opts.inter && !callees.empty()) {
                analysis::ConstVal acc; // Bottom
                for (NodeId c : callees) {
                    analysis::ConstVal rc = _opts.inter->returnConst(
                        _r.cg.node(c).method);
                    if (acc.state ==
                        analysis::ConstVal::State::Bottom) {
                        acc = rc;
                    } else if (rc.state !=
                                   analysis::ConstVal::State::Bottom &&
                               !(acc.isConst() && rc.isConst() &&
                                 acc.value == rc.value)) {
                        acc.state = analysis::ConstVal::State::Top;
                    }
                }
                if (acc.isConst()) {
                    ++_stats.interApplied;
                    ret = Operand::constant(acc.value);
                }
            }
            if (!st.store.substituteReg(regKey(st.frame, instr.dst),
                                        ret)) {
                return false;
            }
        }
        // Must-write facts agreed on by every possible callee (a
        // virtual call runs exactly one of them, so only the
        // intersection is a strong update).
        std::set<analysis::FieldKey> keep;
        if (_opts.inter && !callees.empty()) {
            std::map<MemLoc, std::pair<int64_t, bool>> agreed;
            bool first = true;
            for (NodeId c : callees) {
                const air::Method *cm = _r.cg.node(c).method;
                std::map<MemLoc, std::pair<int64_t, bool>> cur;
                for (const auto &mw : _opts.inter->mustWrites(cm)) {
                    MemLoc loc;
                    if (mw.isStatic) {
                        loc.isStatic = true;
                        loc.key = _r.staticKey(*mw.field);
                    } else {
                        // Instance facts are writes through the
                        // callee's `this`: usable only when that
                        // resolves to a single abstract object.
                        const auto &pts = _r.pointsTo(c, 0);
                        if (pts.size() != 1)
                            continue;
                        loc.obj = *pts.begin();
                        loc.key = _r.fieldKey(loc.obj, *mw.field);
                    }
                    cur.emplace(loc,
                                std::make_pair(mw.value,
                                               mw.exclusive));
                }
                if (first) {
                    agreed = std::move(cur);
                    first = false;
                } else {
                    for (auto it = agreed.begin();
                         it != agreed.end();) {
                        auto jt = cur.find(it->first);
                        if (jt == cur.end() ||
                            jt->second.first != it->second.first) {
                            it = agreed.erase(it);
                        } else {
                            it->second.second &= jt->second.second;
                            ++it;
                        }
                    }
                }
            }
            for (const auto &[loc, v] : agreed) {
                ++_stats.interApplied;
                if (!st.store.substituteLoc(
                        loc, Operand::constant(v.first))) {
                    return false; // conflicts: path infeasible
                }
                // `exclusive` facts cover every write the callee can
                // make to this key, so nothing is left to havoc.
                if (v.second)
                    keep.insert(loc.key);
            }
        }
        for (NodeId c : callees) {
            if (keep.empty()) {
                st.store.dropLocsByKey(mayWriteKeys(c));
                continue;
            }
            std::vector<analysis::FieldKey> drop;
            for (const analysis::FieldKey &k : mayWriteKeys(c)) {
                if (!keep.count(k))
                    drop.push_back(k);
            }
            st.store.dropLocsByKey(drop);
        }
        return !st.store.failed();
    }

    // Descend: continue backward from each callee exit; resume at this
    // call site when the callee's entry is reached.
    for (NodeId c : callees) {
        const air::Method *cm = _r.cg.node(c).method;
        for (int e = 0; e < cm->numInstrs(); ++e) {
            const Instruction &exit_instr = cm->instr(e);
            if (exit_instr.op != Opcode::Return &&
                exit_instr.op != Opcode::ReturnVoid &&
                exit_instr.op != Opcode::Throw) {
                continue;
            }
            PathState next = st;
            next.node = c;
            next.instr = e;
            next.skipEffect = true;
            next.depth = st.depth + 1;
            next.frame = st.nextFrame++;
            next.nextFrame = st.nextFrame;
            next.callStack.push_back({st.node, st.instr, st.frame});
            // The call's destination register holds the return value.
            if (instr.dst >= 0) {
                Operand ret =
                    exit_instr.op == Opcode::Return
                        ? Operand::regOp(
                              regKey(next.frame, exit_instr.srcs[0]))
                        : Operand::unknown();
                if (!next.store.substituteReg(
                        regKey(st.frame, instr.dst), ret)) {
                    continue;
                }
            }
            stack.push_back(std::move(next));
        }
    }
    return false; // state replaced by descent states
}

bool
BackwardExecutor::startPhaseB(PathState st, int action_b,
                              std::vector<PathState> &stack)
{
    const analysis::Action &b = _r.actions.get(action_b);
    if (b.entryNode < 0) {
        // B has no analyzable body: it cannot conflict with the
        // constraints, so the ordering is feasible if the store is.
        return st.store.consistent();
    }
    // One stack entry stands for the whole phase-B walk; walkPhaseB
    // runs it when the query pops it.
    st.phase = 1;
    stack.push_back(std::move(st));
    return false;
}

size_t
BackwardExecutor::PhaseBKeyHash::operator()(const PhaseBKey &k) const
{
    uint64_t h = static_cast<uint64_t>(k.action);
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    auto mixOperand = [&](const Operand &op) {
        mix(static_cast<uint64_t>(op.kind));
        mix(static_cast<uint64_t>(op.value));
        mix(static_cast<uint64_t>(op.reg));
        mix(static_cast<uint64_t>(op.loc.obj));
        mix(op.loc.key.id);
    };
    for (const Atom &a : k.atoms) {
        mixOperand(a.lhs);
        mix(static_cast<uint64_t>(a.cond));
        mixOperand(a.rhs);
    }
    return static_cast<size_t>(h);
}

namespace {

/** Every field, so that equal operands behave the same in every store
 *  operation (MemLoc::operator== ignores the key flags). */
bool
sameOperand(const Operand &x, const Operand &y)
{
    return x.kind == y.kind && x.value == y.value && x.reg == y.reg &&
           x.loc.isStatic == y.loc.isStatic && x.loc.obj == y.loc.obj &&
           x.loc.key.id == y.loc.key.id &&
           x.loc.key.flags == y.loc.key.flags;
}

} // namespace

bool
BackwardExecutor::PhaseBKey::operator==(const PhaseBKey &o) const
{
    return action == o.action &&
           std::equal(atoms.begin(), atoms.end(), o.atoms.begin(),
                      o.atoms.end(), [](const Atom &x, const Atom &y) {
                          return x.cond == y.cond &&
                                 sameOperand(x.lhs, y.lhs) &&
                                 sameOperand(x.rhs, y.rhs);
                      });
}

QueryVerdict
BackwardExecutor::walkPhaseB(const PathState &entry, int action_a,
                             int action_b, Walk &walk)
{
    PhaseBKey key{action_b, entry.store.atoms()};
    if (auto it = _phaseB.find(key);
        it != _phaseB.end() &&
        entry.depth + it->second.depth <= _opts.maxDepth) {
        // Replay. Both counters only grow, so a fresh walk fails its
        // budget check at some pop iff it fails it at the last one.
        const PhaseBRun &run = it->second;
        ++_stats.phaseBReuses;
        if (run.pops > 0 &&
            (walk.steps + run.pops > _opts.maxSteps ||
             walk.paths + run.pathsBeforeLast > _opts.maxPaths)) {
            return QueryVerdict::Budget;
        }
        walk.steps += run.pops;
        walk.paths += run.paths;
        return run.feasible ? QueryVerdict::Feasible
                            : QueryVerdict::Infeasible;
    }

    // Walk back from every exit of B's entry method.
    const NodeId b_entry = _r.actions.get(action_b).entryNode;
    const air::Method *bm = _r.cg.node(b_entry).method;
    std::vector<PathState> stack;
    for (int i = 0; i < bm->numInstrs(); ++i) {
        const Instruction &instr = bm->instr(i);
        if (instr.op == Opcode::Return ||
            instr.op == Opcode::ReturnVoid ||
            instr.op == Opcode::Throw) {
            PathState next;
            next.phase = 1;
            next.node = b_entry;
            next.instr = i;
            next.skipEffect = true;
            next.depth = entry.depth + 1;
            next.store = entry.store;
            stack.push_back(std::move(next));
        }
    }

    const Walk start = walk;
    PhaseBRun run;
    while (!stack.empty()) {
        run.pathsBeforeLast = walk.paths - start.paths;
        if (overBudget(walk))
            return QueryVerdict::Budget; // cut short: not recorded
        PathState st = std::move(stack.back());
        stack.pop_back();
        run.depth = std::max(run.depth, st.depth - entry.depth);
        const QueryVerdict v =
            expand(st, action_a, action_b, stack, walk.paths);
        if (v == QueryVerdict::Budget)
            return v; // cut by the depth limit: not recorded
        if (v == QueryVerdict::Feasible) {
            run.feasible = true;
            break;
        }
    }
    run.pops = walk.steps - start.steps;
    run.paths = walk.paths - start.paths;
    _phaseB.emplace(std::move(key), run);
    return run.feasible ? QueryVerdict::Feasible : QueryVerdict::Infeasible;
}

bool
BackwardExecutor::atEntry(PathState st, int action_a, int action_b,
                          std::vector<PathState> &stack)
{
    const air::Method *m = _r.cg.node(st.node).method;

    // Returning from a descended call: resume in the caller.
    if (!st.callStack.empty()) {
        Frame caller = st.callStack.back();
        st.callStack.pop_back();
        const air::Method *cm = _r.cg.node(caller.node).method;
        const Instruction &call = cm->instr(caller.instr);
        if (!bindFrame(st.store, m, st.frame, call, caller.frame))
            return false;
        st.node = caller.node;
        st.instr = caller.instr;
        st.frame = caller.frame;
        st.skipEffect = true;
        st.depth += 1;
        stack.push_back(std::move(st));
        return false;
    }

    const analysis::Action &phase_action =
        _r.actions.get(st.phase == 0 ? action_a : action_b);

    if (st.node != phase_action.entryNode) {
        // Cross upward to callers within the same action.
        for (NodeId caller : _r.cg.callersOf(st.node)) {
            if (!_r.cg.actionsOf(caller).count(phase_action.id))
                continue;
            const air::Method *cm = _r.cg.node(caller).method;
            for (const auto &edge : _r.cg.edgesOf(caller)) {
                if (edge.callee != st.node)
                    continue;
                int call_instr = _r.sites.instrOf(edge.site);
                const Instruction &call = cm->instr(call_instr);
                PathState next = st;
                next.node = caller;
                next.instr = call_instr;
                next.skipEffect = true;
                next.depth = st.depth + 1;
                next.frame = st.nextFrame++;
                next.nextFrame = st.nextFrame;
                // Callee frame regs become caller argument regs; note
                // the roles: st.frame is the callee frame here.
                if (!bindFrame(next.store, m, st.frame, call,
                               next.frame)) {
                    continue;
                }
                stack.push_back(std::move(next));
            }
        }
        return false;
    }

    // Reached the action's entry: apply message-what facts and drop the
    // remaining register atoms (parameters are unconstrained inputs).
    if (phase_action.messageWhat >= 0) {
        // Restrict the substitution to the handled message's abstract
        // objects (the handleMessage parameter); other Message objects
        // in scope keep their symbolic `what`.
        std::set<int> msg_objs;
        if (phase_action.entryNode >= 0) {
            const air::Method *em =
                _r.cg.node(phase_action.entryNode).method;
            if (em->numParams() >= 1) {
                for (analysis::ObjId o : _r.pointsTo(
                         phase_action.entryNode, em->paramReg(0))) {
                    msg_objs.insert(o);
                }
            }
        }
        if (!st.store.substituteKeyWithConst(
                _r.internKey("android.os.Message.what"),
                phase_action.messageWhat, msg_objs)) {
            return false;
        }
    }
    st.store.dropRegAtoms();
    if (!st.store.consistent())
        return false;

    if (st.phase == 0)
        return startPhaseB(std::move(st), action_b, stack);
    return true; // phase B entry with a consistent store: feasible
}

bool
BackwardExecutor::overBudget(Walk &walk) const
{
    return ++walk.steps > _opts.maxSteps || walk.paths > _opts.maxPaths;
}

QueryVerdict
BackwardExecutor::expand(PathState &st, int action_a, int action_b,
                         std::vector<PathState> &stack, int &paths)
{
    ++_stats.statesExpanded;

    // Past the depth limit the walk is incomplete, not refuted.
    if (st.depth > _opts.maxDepth)
        return QueryVerdict::Budget;
    if (_opts.useNodeCache && st.phase == 0) {
        if (_refutedNodes.count(st.node)) {
            ++_stats.cacheHits;
            ++paths;
            return QueryVerdict::Infeasible;
        }
        _queryVisited.insert(st.node);
    }

    const air::Method *m = _r.cg.node(st.node).method;
    const Instruction &instr = m->instr(st.instr);

    if (!st.skipEffect) {
        if (instr.op == Opcode::Invoke) {
            if (!handleInvoke(st, instr, stack)) {
                ++paths;
                return QueryVerdict::Infeasible;
            }
        } else if (!transfer(st, instr)) {
            ++paths;
            return QueryVerdict::Infeasible;
        }
    }
    st.skipEffect = false;

    std::span<const int> preds = _r.cfg(*m).instrPreds(st.instr);
    if (st.instr == 0) {
        // The method entry is one continuation; a back edge into
        // instruction 0 is another, so also fall through to the
        // predecessor exploration below.
        bool feasible = preds.empty()
                            ? atEntry(std::move(st), action_a, action_b,
                                      stack)
                            : atEntry(st, action_a, action_b, stack);
        if (feasible)
            return QueryVerdict::Feasible;
    }
    if (preds.empty()) {
        ++paths;
        return QueryVerdict::Infeasible;
    }
    const int here = st.instr;
    const int depth = st.depth;
    const int frame = st.frame;
    for (size_t i = 0; i < preds.size(); ++i) {
        const int q = preds[i];
        const Instruction &pred = m->instr(q);
        if (_opts.inter && (!_opts.inter->reachable(m, q) ||
                            !_opts.inter->edgeFeasible(m, q, here))) {
            // The constant facts prove no execution flows along
            // this edge: don't walk it.
            ++_stats.interPruned;
            ++paths;
            continue;
        }
        // The last predecessor takes the state itself.
        PathState next =
            i + 1 == preds.size() ? std::move(st) : PathState(st);
        next.instr = q;
        next.depth = depth + 1;

        if (pred.isConditionalBranch()) {
            bool via_target = pred.target == here;
            bool via_fall = q + 1 == here;
            CondKind cond = pred.cond;
            bool add = true;
            if (via_target && via_fall) {
                add = false; // both edges reach here: no constraint
            } else if (!via_target && via_fall) {
                cond = air::negateCond(cond);
            }
            if (add) {
                Atom atom;
                atom.lhs = Operand::regOp(regKey(frame, pred.srcs[0]));
                atom.cond = cond;
                atom.rhs =
                    pred.op == Opcode::IfZ
                        ? Operand::constant(0)
                        : Operand::regOp(regKey(frame, pred.srcs[1]));
                if (!next.store.add(atom)) {
                    ++paths;
                    continue;
                }
            }
        }
        stack.push_back(std::move(next));
    }
    return QueryVerdict::Infeasible;
}

QueryVerdict
BackwardExecutor::orderFeasible(const race::Access &access, int action_a,
                                int action_b)
{
    ++_stats.queries;
    _queryVisited.clear();

    const analysis::Action &a = _r.actions.get(action_a);
    if (a.entryNode < 0)
        return QueryVerdict::Feasible;

    auto memo_key = std::make_tuple(access.site, action_a, action_b);
    if (auto it = _queryMemo.find(memo_key); it != _queryMemo.end()) {
        ++_stats.cacheHits;
        return it->second;
    }

    std::vector<PathState> stack;
    {
        PathState init;
        init.phase = 0;
        init.node = access.node;
        init.instr = access.instrIdx;
        init.skipEffect = true;
        stack.push_back(std::move(init));
    }

    Walk walk;
    QueryVerdict verdict = QueryVerdict::Infeasible;
    while (!stack.empty() && verdict == QueryVerdict::Infeasible) {
        if (stack.back().phase == 1) {
            // A whole phase-B walk (startPhaseB).
            PathState entry = std::move(stack.back());
            stack.pop_back();
            verdict = walkPhaseB(entry, action_a, action_b, walk);
        } else if (overBudget(walk)) {
            verdict = QueryVerdict::Budget;
        } else {
            PathState st = std::move(stack.back());
            stack.pop_back();
            verdict = expand(st, action_a, action_b, stack, walk.paths);
        }
    }

    switch (verdict) {
      case QueryVerdict::Feasible:
        ++_stats.pathsExplored;
        break;
      case QueryVerdict::Budget:
        ++_stats.budgetExhausted;
        break;
      case QueryVerdict::Infeasible:
        // Every path pruned: the ordering is infeasible.
        if (_opts.useNodeCache) {
            _refutedNodes.insert(_queryVisited.begin(),
                                 _queryVisited.end());
        }
        break;
    }
    _queryMemo[memo_key] = verdict;
    return verdict;
}

} // namespace sierra::symbolic
