#include "points_to.hh"

#include <deque>

#include "air/logging.hh"
#include "array_keys.hh"
#include "framework/known_api.hh"
#include "util/flat_map.hh"
#include "util/trace.hh"

namespace sierra::analysis {

using air::Instruction;
using air::InvokeKind;
using air::Method;
using air::Opcode;
using framework::ApiKind;

namespace {

/** Backstop against runaway action creation: past this many actions,
 *  a new action folds into an existing one with the same site, entry
 *  class and callback, else into the root action. */
constexpr int kMaxActions = 4096;

} // namespace

const ObjSet PointsToResult::_emptySet;

const ObjSet &
PointsToResult::pointsTo(NodeId node, int reg) const
{
    if (node < 0 || node >= static_cast<int>(regPts.size()))
        return _emptySet;
    const auto &regs = regPts[node];
    if (reg < 0 || reg >= static_cast<int>(regs.size()))
        return _emptySet;
    return regs[reg];
}

ConstVal
PointsToResult::constOf(NodeId node, int reg) const
{
    if (node < 0 || node >= static_cast<int>(regConst.size()))
        return {};
    const auto &regs = regConst[node];
    if (reg < 0 || reg >= static_cast<int>(regs.size()))
        return {};
    return regs[reg];
}

PointsToResult::MethodFacts &
PointsToResult::factsOf(const air::Method &m) const
{
    auto [facts, inserted] = _factsOf.tryEmplace(&m, nullptr);
    if (inserted)
        *facts = &_methodFacts.emplace_back(m);
    return **facts;
}

const Cfg &
PointsToResult::cfg(const air::Method &m) const
{
    return factsOf(m).cfg;
}

const DominatorTree &
PointsToResult::dominators(const air::Method &m) const
{
    MethodFacts &facts = factsOf(m);
    if (!facts.dom)
        facts.dom = std::make_unique<DominatorTree>(facts.cfg);
    return *facts.dom;
}

template <typename Make>
FieldKey
PointsToResult::memoKey(const air::FieldRef *field, ObjId slot,
                        Make make) const
{
    if (const FieldKey *key = _keyMemo.find({field, slot}))
        return *key;
    // `make` may intern keys, never memo entries: insert after it.
    FieldKey key = make();
    _keyMemo.tryEmplace({field, slot}, key);
    return key;
}

FieldKey
PointsToResult::fieldKey(ObjId obj, const air::FieldRef &field) const
{
    // The key depends on the object's class only.
    return memoKey(&field, objects.get(obj).classId, [&] {
        return declaringKey(objects.get(obj).klassName, field);
    });
}

FieldKey
PointsToResult::staticKey(const air::FieldRef &field) const
{
    return memoKey(&field, kStaticSlot,
                   [&] { return declaringKey(field.className, field); });
}

FieldKey
PointsToResult::declaringKey(const std::string &klass,
                             const air::FieldRef &field) const
{
    const std::string *decl =
        cha.findDeclaringClassOfField(klass, field.fieldName);
    // Built in a reused buffer: interning a key already seen copies
    // nothing.
    _keyText.assign(decl ? *decl : field.className);
    _keyText += '.';
    _keyText += field.fieldName;
    return internKey(_keyText);
}

FieldKey
PointsToResult::declaredKey(const air::FieldRef &field) const
{
    return memoKey(&field, kDeclaredSlot, [&] {
        return internKey(field.className + "." + field.fieldName);
    });
}

FieldKey
PointsToResult::wildcardKey(ObjId obj) const
{
    return memoKey(nullptr, objects.get(obj).classId, [&] {
        return internKey(arrayWildcardKey(objects.get(obj).klassName),
                         FieldKey::kArray | FieldKey::kWildcard);
    });
}

ObjId
PointsToResult::looperOfAction(int action_id) const
{
    const Action &a = actions.get(action_id);
    switch (a.affinity) {
      case ThreadAffinity::Background:
        return -1;
      case ThreadAffinity::MainLooper:
        return mainLooperObj;
      case ThreadAffinity::CustomLooper:
        return a.looperObj >= 0 ? a.looperObj : mainLooperObj;
    }
    return mainLooperObj;
}

int
PointsToResult::numRealActions() const
{
    int n = 0;
    for (const Action &a : actions.all()) {
        if (a.kind != ActionKind::HarnessRoot)
            ++n;
    }
    return n;
}

/**
 * The worklist engine. One instance per run; all state lives in the
 * PointsToResult being built plus the dependency maps below.
 *
 * Delta propagation: every instruction's last-execution signature (the
 * sum of its inputs' monotone version counters) is cached per node.
 * Inputs unchanged => re-execution is provably a no-op (every transfer
 * is a monotone union/merge and every enqueue is guarded by "changed"),
 * so the visit is skipped without perturbing traversal order — the
 * property the byte-identical-report contract rests on.
 */
class PointsToAnalysis::Engine
{
  public:
    Engine(const framework::App &app, const EntryPlan &plan,
           PointsToOptions options)
        : _app(app), _plan(plan), _opts(options), _apis(app.module())
    {
        for (const char *name : kCallbackNames)
            nameIdOf(name);
    }

    std::unique_ptr<PointsToResult> run();

  private:
    static constexpr uint64_t kNoSig = ~uint64_t{0};

    /** Callback names the intrinsics dispatch on; interned first, so
     *  each one's name id is its index here. */
    static constexpr const char *kCallbackNames[] = {
        "run", "handleMessage", "onReceive", "onServiceConnected",
        "onPreExecute", "doInBackground", "onPostExecute",
    };
    enum CallbackName {
        kRun, kHandleMessage, kOnReceive, kOnServiceConnected,
        kOnPreExecute, kDoInBackground, kOnPostExecute,
    };

    /** How the engine handles one invoke instruction of a method,
     *  resolved on its first visit in any node of the method and reused
     *  by every later visit. Every entry is a pure function of the
     *  module and the plan. */
    struct InstrFacts {
        bool invokeResolved{false};
        ApiKind api{ApiKind::None};
        const EntryEventSite *event{nullptr};
        //! Static/Special invokes: the resolved target (may be null)
        const Method *directTarget{nullptr};
        //! Virtual/Interface invokes: the method-name id to dispatch
        int nameId{-1};
    };

    /** Packed (a, b) key of two non-negative 32-bit ids. */
    static uint64_t
    pack(int64_t a, int64_t b)
    {
        return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
               static_cast<uint32_t>(b);
    }

    InstrFacts &
    factsOf(NodeId n, int idx)
    {
        return _instrFacts[static_cast<size_t>(_r->cg.methodIndex(n))]
                          [static_cast<size_t>(idx)];
    }

    /** The invoke facts of instruction `idx`, resolved on the first
     *  ask. Returned by value: resolving interns nothing, but callers
     *  go on to intern nodes and methods. */
    InstrFacts invokeFacts(NodeId n, const Method *m, int idx);

    int
    nameIdOf(const std::string &name)
    {
        auto [it, inserted] = _nameIds.try_emplace(
            name, static_cast<int>(_names.size()));
        if (inserted)
            _names.push_back(&it->first);
        return it->second;
    }

    /** Virtual dispatch of name `name_id` on the dynamic class of `o`,
     *  memoised by (class id, name id). */
    const Method *dispatch(ObjId o, int name_id);

    /** A snapshot of a set's members for a loop whose body may change
     *  the set or reallocate the node tables. The buffer comes from a
     *  pool and returns to it, so a snapshot allocates only while the
     *  pool warms up. */
    class Snapshot
    {
      public:
        Snapshot(Engine &e, const ObjSet &s) : _e(e)
        {
            if (!_e._snapshotPool.empty()) {
                _ids = std::move(_e._snapshotPool.back());
                _e._snapshotPool.pop_back();
            }
            for (ObjId o : s)
                _ids.push_back(o);
        }
        ~Snapshot()
        {
            _ids.clear();
            _e._snapshotPool.push_back(std::move(_ids));
        }
        Snapshot(const Snapshot &) = delete;
        Snapshot &operator=(const Snapshot &) = delete;

        auto begin() const { return _ids.begin(); }
        auto end() const { return _ids.end(); }

      private:
        Engine &_e;
        std::vector<ObjId> _ids;
    };

    bool asMode() const
    {
        return _opts.ctx.policy == ContextPolicy::ActionSensitive;
    }

    void
    enqueue(NodeId n)
    {
        if (!_queued[n]) {
            _queued[n] = true;
            _worklist.push_back(n);
        }
    }

    NodeId internNode(const Method *method, CtxId ctx);

    bool addObj(NodeId n, int reg, ObjId o);
    bool addObjs(NodeId n, int reg, const ObjSet &objs);
    bool mergeConst(NodeId n, int reg, ConstVal v);

    /** Merge a value into returnPts and push through return flows. */
    void addReturn(NodeId n, const ObjSet &objs);
    void addReturnFlow(NodeId src, NodeId dst_node, int dst_reg);

    bool addFieldObjs(ObjId obj, FieldId key, const ObjSet &objs);
    bool addStaticObjs(FieldId key, const ObjSet &objs);

    /** Context for a callee per the active policy. `action_id` is the
     *  action the callee runs under (-1 outside AS mode). */
    CtxId selectCtx(bool is_virtual, CtxId caller, ObjId recv,
                    SiteId site, int action_id);

    /** Create (or fold onto an ancestor) an action. */
    int spawnAction(ActionKind kind, int creator, SiteId site,
                    const std::string &cls, const std::string &cb);
    /** Create the entry node for an action and bind its receiver. */
    NodeId spawnEntry(int action_id, const Method *entry, ObjId this_obj,
                      NodeId creator_node, SiteId site);

    bool addActionToNode(NodeId n, int action);

    void processNode(NodeId n);
    bool processInstr(NodeId n, const Method *m, int idx);
    bool processInvoke(NodeId n, const Method *m, int idx);
    bool handleEventSite(NodeId n, const Method *m, int idx,
                         const InstrFacts &f);
    bool handleIntrinsic(NodeId n, const Method *m, int idx,
                         ApiKind kind);
    bool normalCall(NodeId n, const Method *m, int idx,
                    const InstrFacts &f);
    /** Register `n` as a reader of (o, key) and add what is stored
     *  there to `dst`. */
    void
    readField(NodeId n, ObjId o, FieldId key, int dst, bool &changed)
    {
        _fieldReaders.tryEmplace(pack(o, key), ObjSet(&_r->arena))
            .first->insert(n);
        if (ObjSet **stored = _fieldPtsOf.find(pack(o, key)))
            changed |= addObjs(n, dst, **stored);
    }

    /** Bind call args into a callee node; true if anything changed. */
    bool bindArgs(NodeId caller, const Instruction &instr,
                  const Method *target, NodeId callee, bool has_this);

    const std::string &classOf(ObjId o) const
    {
        return _r->objects.get(o).klassName;
    }

    /** Constant "what" recorded on message objects. */
    void mergeFieldConst(ObjId obj, FieldId key, ConstVal v);
    ConstVal fieldConstOf(ObjId obj, FieldId key) const;

    /** Exact array-element key for `o`. Only writes (`record=true`,
     *  the ArrayPut path that creates the fieldPts entry) register the
     *  key in the per-object element index — the delta-friendly
     *  replacement for the old string prefix scan over fieldPts, which
     *  likewise only saw entries writes had created. */
    FieldId
    elemIdOf(ObjId o, int64_t idx, bool record)
    {
        FieldId id =
            _r->internKey(arrayElementKey(classOf(o), idx),
                          FieldKey::kArray)
                .id;
        _elemWildcard.emplace(id, _r->wildcardKey(o).id);
        if (record) {
            auto &elems = _arrayElemKeys[o];
            bool known = false;
            for (FieldId e : elems)
                known = known || e == id;
            if (!known)
                elems.push_back(id);
        }
        return id;
    }

    FieldId
    internFixed(const char *s)
    {
        return _r->internKey(s).id;
    }

    /** Heap-backed copy of a set (temporaries never bloat the arena). */
    static ObjSet
    copyOf(const ObjSet &s)
    {
        ObjSet t;
        t.unionWith(s);
        return t;
    }

    // --- delta-propagation signatures ---

    /** The registers of the node being processed: views into its rows
     *  of regPts and regConst. Rows never move (a new node appends a
     *  row; the rows' own storage stays put), so the views hold for a
     *  whole processNode. */
    struct NodeRegs {
        const ObjSet *pts;
        const ConstVal *consts;
        int count;
    };

    /** Version of one register as an instruction input: points-to set
     *  mutation counter plus the (monotone) constant lattice state. */
    static uint64_t
    inSig(const NodeRegs &regs, int reg)
    {
        if (reg < 0 || reg >= regs.count)
            return 0;
        return regs.pts[reg].version() +
               static_cast<uint64_t>(regs.consts[reg].state);
    }

    /** Sum of the monotone versions of everything the instruction's
     *  transfer function reads. Unchanged sum => unchanged inputs =>
     *  re-execution is a no-op and is skipped. Opcodes with no dynamic
     *  inputs return a constant (run exactly once). */
    uint64_t
    instrSignature(NodeId n, const NodeRegs &regs,
                   const Instruction &instr) const
    {
        switch (instr.op) {
          case Opcode::Move:
          case Opcode::Return:
          case Opcode::PutStatic:
            return inSig(regs, instr.srcs[0]);
          case Opcode::GetField:
            return inSig(regs, instr.srcs[0]) + _fieldEpoch;
          case Opcode::PutField:
            return inSig(regs, instr.srcs[0]) + inSig(regs, instr.srcs[1]);
          case Opcode::GetStatic:
            return _staticEpoch;
          case Opcode::ArrayGet:
            return inSig(regs, instr.srcs[0]) + inSig(regs, instr.srcs[1]) +
                   _fieldEpoch;
          case Opcode::ArrayPut:
            return inSig(regs, instr.srcs[0]) + inSig(regs, instr.srcs[1]) +
                   inSig(regs, instr.srcs[2]);
          case Opcode::Invoke: {
            // Calls read argument registers, the node's action set
            // (spawn creators / propagation), handler->looper bindings,
            // field constants (message "what") and the Thread.$target
            // points-to set. Deliberately NOT the coarse _fieldEpoch:
            // ordinary field writes don't feed any Invoke transfer, so
            // they must not force re-execution of every call site.
            uint64_t s = _r->cg.actionsOf(n).version() + _constEpoch +
                         _spawnFieldEpoch + _looperEpoch;
            for (int r : instr.srcs)
                s += inSig(regs, r);
            return s;
          }
          default:
            return 0; // no dynamic inputs: execute once
        }
    }

    const framework::App &_app;
    const EntryPlan &_plan;
    PointsToOptions _opts;
    framework::KnownApis _apis;
    std::unique_ptr<PointsToResult> _r;

    std::deque<NodeId> _worklist;
    std::vector<char> _queued;

    //! packed (object, field key) -> nodes reading it
    util::FlatMap<uint64_t, ObjSet> _fieldReaders;
    //! static key -> nodes reading it
    util::FlatMap<FieldId, ObjSet> _staticReaders;
    //! per callee node: (dst node, dst reg) forwarding of return values
    std::vector<std::vector<std::pair<NodeId, int>>> _returnFlows;
    //! packed (object, field key) -> constant stored there
    util::FlatMap<uint64_t, ConstVal> _fieldConst;
    //! packed (object, field key) -> its set in the result's fieldPts
    //! (map nodes never move)
    util::FlatMap<uint64_t, ObjSet *> _fieldPtsOf;

    //! per dense method index (CallGraph::methodIndex), per
    //! instruction: resolved facts
    std::vector<std::vector<InstrFacts>> _instrFacts;
    //! per-node, per-instruction last-execution signature: node n's
    //! instruction i at _instrSig[_sigStart[n] + i]
    std::vector<uint64_t> _instrSig;
    std::vector<size_t> _sigStart;

    //! method names by id (keys of _nameIds)
    std::unordered_map<std::string, int> _nameIds;
    std::vector<const std::string *> _names;
    //! packed (class id, name id) -> dispatch target (may be null)
    util::FlatMap<uint64_t, const Method *> _dispatch;
    //! packed (receiver + 1, action + 1) -> receiver-object context
    util::FlatMap<uint64_t, CtxId> _objCtx;
    //! packed (caller context, site) -> call-string context
    util::FlatMap<uint64_t, CtxId> _pushedCtx;
    //! packed (context, action + 1) -> the context with that action
    util::FlatMap<uint64_t, CtxId> _withAction;
    //! packed (site, heap context) -> the allocation's object
    util::FlatMap<uint64_t, ObjId> _allocObj;
    //! buffers lent to Snapshot
    std::vector<std::vector<ObjId>> _snapshotPool;
    //! bumped on every fieldPts / field-constant change
    uint64_t _fieldEpoch{0};
    //! bumped on every staticPts change
    uint64_t _staticEpoch{0};
    //! bumped on every handlerLooper change
    uint64_t _looperEpoch{0};
    //! bumped on every field-constant change only (what Invoke
    //! intrinsics read via fieldConstOf — message "what" joins)
    uint64_t _constEpoch{0};
    //! bumped when the Thread.$target field points-to set changes (the
    //! only fieldPts entry any Invoke handler reads)
    uint64_t _spawnFieldEpoch{0};

    //! exact element key -> its array's wildcard key (for notify)
    std::unordered_map<FieldId, FieldId> _elemWildcard;
    //! per array object: exact element keys seen so far
    std::unordered_map<ObjId, std::vector<FieldId>> _arrayElemKeys;
    FieldId _threadTargetKey{util::StringInterner::kInvalid};
    FieldId _messageWhatKey{util::StringInterner::kInvalid};
    bool _warnedActionCap{false};
};

NodeId
PointsToAnalysis::Engine::internNode(const Method *method, CtxId ctx)
{
    NodeId existing = _r->cg.findNode(method, ctx);
    if (existing >= 0)
        return existing;
    NodeId n = _r->cg.internNode(method, ctx);
    _r->regPts.emplace_back();
    {
        auto &regs = _r->regPts.back();
        int nregs = method->numRegisters();
        regs.reserve(static_cast<size_t>(nregs));
        for (int i = 0; i < nregs; ++i)
            regs.emplace_back(&_r->arena);
    }
    _r->returnPts.emplace_back(&_r->arena);
    _r->regConst.emplace_back(method->numRegisters());
    const size_t ninstrs =
        method->hasBody() ? static_cast<size_t>(method->numInstrs()) : 0;
    _sigStart.push_back(_instrSig.size());
    _instrSig.resize(_instrSig.size() + ninstrs, kNoSig);
    if (_r->cg.methodIndex(n) == static_cast<int>(_instrFacts.size()))
        _instrFacts.emplace_back(ninstrs);
    _returnFlows.emplace_back();
    _queued.push_back(false);
    enqueue(n);
    return n;
}

bool
PointsToAnalysis::Engine::addObj(NodeId n, int reg, ObjId o)
{
    if (reg < 0 || reg >= static_cast<int>(_r->regPts[n].size()))
        return false;
    bool added = _r->regPts[n][reg].insert(o);
    if (added)
        enqueue(n);
    return added;
}

bool
PointsToAnalysis::Engine::addObjs(NodeId n, int reg, const ObjSet &objs)
{
    if (reg < 0 || reg >= static_cast<int>(_r->regPts[n].size()))
        return false;
    bool changed = _r->regPts[n][reg].unionWith(objs);
    if (changed)
        enqueue(n);
    return changed;
}

bool
PointsToAnalysis::Engine::mergeConst(NodeId n, int reg, ConstVal v)
{
    if (reg < 0 || reg >= static_cast<int>(_r->regConst[n].size()))
        return false;
    if (v.state == ConstVal::State::Bottom)
        return false;
    ConstVal &cur = _r->regConst[n][reg];
    if (cur.state == ConstVal::State::Top)
        return false;
    if (cur.state == ConstVal::State::Bottom) {
        cur = v;
        return true;
    }
    // cur is Const
    if (v.state == ConstVal::State::Const && v.value == cur.value)
        return false;
    cur.state = ConstVal::State::Top;
    return true;
}

void
PointsToAnalysis::Engine::addReturn(NodeId n, const ObjSet &objs)
{
    if (!_r->returnPts[n].unionWith(objs))
        return;
    for (auto [dst_node, dst_reg] : _returnFlows[n])
        addObjs(dst_node, dst_reg, _r->returnPts[n]);
}

void
PointsToAnalysis::Engine::addReturnFlow(NodeId src, NodeId dst_node,
                                        int dst_reg)
{
    auto &flows = _returnFlows[src];
    for (auto &[dn, dr] : flows) {
        if (dn == dst_node && dr == dst_reg)
            return;
    }
    flows.emplace_back(dst_node, dst_reg);
    addObjs(dst_node, dst_reg, _r->returnPts[src]);
}

bool
PointsToAnalysis::Engine::addFieldObjs(ObjId obj, FieldId key,
                                       const ObjSet &objs)
{
    ObjSet **slot = _fieldPtsOf.tryEmplace(pack(obj, key)).first;
    if (!*slot) {
        *slot = &_r->fieldPts.try_emplace({obj, key}, ObjSet(&_r->arena))
                     .first->second;
    }
    ObjSet *entry = *slot;
    bool changed = entry->unionWith(objs);
    if (changed) {
        ++_fieldEpoch;
        if (key == _threadTargetKey)
            ++_spawnFieldEpoch;
        auto notify = [&](FieldId k) {
            if (const ObjSet *readers = _fieldReaders.find(pack(obj, k))) {
                for (NodeId reader : *readers)
                    enqueue(reader);
            }
        };
        notify(key);
        // A write to an exact array element must also wake readers
        // registered on the wildcard: an unknown-index ArrayGet scans
        // the exact keys that exist when it runs, so a later-created
        // $elem#i entry would otherwise never reach it.
        auto wit = _elemWildcard.find(key);
        if (wit != _elemWildcard.end())
            notify(wit->second);
    }
    return changed;
}

bool
PointsToAnalysis::Engine::addStaticObjs(FieldId key, const ObjSet &objs)
{
    auto [entry, created] =
        _r->staticPts.try_emplace(key, ObjSet(&_r->arena));
    (void)created;
    bool changed = entry->second.unionWith(objs);
    if (changed) {
        ++_staticEpoch;
        if (const ObjSet *readers = _staticReaders.find(key)) {
            for (NodeId reader : *readers)
                enqueue(reader);
        }
    }
    return changed;
}

CtxId
PointsToAnalysis::Engine::selectCtx(bool is_virtual, CtxId caller,
                                    ObjId recv, SiteId site,
                                    int action_id)
{
    // Each context is memoised by the ids it is a function of; a memo
    // hit skips only a lookup that would find the same interned id.
    const int k = _opts.ctx.k;
    auto with_action = [&](CtxId base) {
        auto [ctx, inserted] =
            _withAction.tryEmplace(pack(base, action_id + 1), kEmptyCtx);
        if (inserted)
            *ctx = _r->contexts.withAction(base, action_id);
        return *ctx;
    };
    auto obj_ctx = [&]() {
        auto [ctx, inserted] =
            _objCtx.tryEmplace(pack(recv + 1, action_id + 1), kEmptyCtx);
        if (inserted) {
            std::vector<SiteId> elems;
            if (recv >= 0) {
                const HeapObject &o = _r->objects.get(recv);
                elems.push_back(o.site); // kNoSite for non-site objects
                for (SiteId e : _r->contexts.get(o.heapCtx).elems)
                    elems.push_back(e);
            }
            *ctx = _r->contexts.make(action_id, std::move(elems), k);
        }
        return *ctx;
    };
    auto cfa_ctx = [&]() {
        auto [pushed, inserted] =
            _pushedCtx.tryEmplace(pack(caller, site), kEmptyCtx);
        if (inserted)
            *pushed = _r->contexts.pushElem(caller, site, k);
        return with_action(*pushed);
    };

    switch (_opts.ctx.policy) {
      case ContextPolicy::Insensitive:
        return _r->contexts.make(-1, {}, 0);
      case ContextPolicy::KCfa:
        return cfa_ctx();
      case ContextPolicy::KObj:
        return is_virtual ? obj_ctx() : with_action(caller);
      case ContextPolicy::Hybrid:
      case ContextPolicy::ActionSensitive:
        return is_virtual ? obj_ctx() : cfa_ctx();
    }
    panic("unreachable context policy");
}

int
PointsToAnalysis::Engine::spawnAction(ActionKind kind, int creator,
                                      SiteId site, const std::string &cls,
                                      const std::string &cb)
{
    // Fold repost chains: an ancestor action created at the same site
    // with the same entry is the same static action (e.g. a Runnable
    // that postDelayed()s itself, paper Fig. 8).
    int cur = creator;
    while (cur >= 0) {
        const Action &a = _r->actions.get(cur);
        if (a.creationSite == site && a.entryClass == cls &&
            a.callbackName == cb) {
            return cur;
        }
        cur = a.creator;
    }
    if (_r->actions.size() >= kMaxActions) {
        if (!_warnedActionCap) {
            warn("action cap (", kMaxActions,
                 ") reached; folding further actions");
            _warnedActionCap = true;
        }
        for (const Action &a : _r->actions.all()) {
            if (a.creationSite == site && a.entryClass == cls &&
                a.callbackName == cb) {
                return a.id;
            }
        }
        return _r->rootAction;
    }
    return _r->actions.create(kind, creator, site, cls, cb);
}

NodeId
PointsToAnalysis::Engine::spawnEntry(int action_id, const Method *entry,
                                     ObjId this_obj, NodeId creator_node,
                                     SiteId site)
{
    CtxId caller_ctx = _r->cg.node(creator_node).ctx;
    CtxId cc = selectCtx(this_obj >= 0, caller_ctx, this_obj, site,
                         asMode() ? action_id : -1);
    NodeId n2 = internNode(entry, cc);
    Action &a = _r->actions.get(action_id);
    if (a.entryNode < 0)
        a.entryNode = n2;
    if (addActionToNode(n2, action_id))
        enqueue(n2);
    _r->cg.addSpawn({creator_node, site, action_id});
    if (this_obj >= 0 && !entry->isStatic())
        addObj(n2, entry->thisReg(), this_obj);
    return n2;
}

bool
PointsToAnalysis::Engine::addActionToNode(NodeId n, int action)
{
    bool added = _r->cg.addAction(n, action);
    if (added)
        enqueue(n);
    return added;
}

void
PointsToAnalysis::Engine::mergeFieldConst(ObjId obj, FieldId key,
                                          ConstVal v)
{
    if (v.state == ConstVal::State::Bottom)
        return;
    ConstVal &cur = *_fieldConst.tryEmplace(pack(obj, key)).first;
    if (cur.state == ConstVal::State::Bottom) {
        cur = v;
        ++_fieldEpoch;
        ++_constEpoch;
    } else if (cur.state == ConstVal::State::Const &&
               (v.state != ConstVal::State::Const ||
                v.value != cur.value)) {
        cur.state = ConstVal::State::Top;
        ++_fieldEpoch;
        ++_constEpoch;
    }
}

ConstVal
PointsToAnalysis::Engine::fieldConstOf(ObjId obj, FieldId key) const
{
    const ConstVal *v = _fieldConst.find(pack(obj, key));
    return v ? *v : ConstVal{};
}

std::unique_ptr<PointsToResult>
PointsToAnalysis::Engine::run()
{
    _r = std::make_unique<PointsToResult>(_app.module(),
                                          _opts.sharedCha);
    _r->options = _opts;
    _r->mainLooperObj =
        _r->objects.singleton(framework::names::looper, kMainLooper);
    _threadTargetKey = internFixed("java.lang.Thread.$target");
    _messageWhatKey = internFixed("android.os.Message.what");

    SIERRA_ASSERT(_plan.mainMethod, "entry plan without a main method");
    _r->rootAction = _r->actions.create(
        ActionKind::HarnessRoot, -1, kNoSite,
        _plan.mainMethod->owner()->name(), _plan.mainMethod->name());
    CtxId root_ctx =
        _r->contexts.make(asMode() ? _r->rootAction : -1, {}, 0);
    _r->rootNode = internNode(_plan.mainMethod, root_ctx);
    _r->actions.get(_r->rootAction).entryNode = _r->rootNode;
    addActionToNode(_r->rootNode, _r->rootAction);

    SIERRA_TRACE_SPAN(span, "pta", "pta.solve",
                      util::trace::arg("entry",
                                       _plan.mainMethod->name()));
    while (!_worklist.empty()) {
        NodeId n = _worklist.front();
        _worklist.pop_front();
        _queued[n] = false;
        ++_r->stats.worklistIterations;
        processNode(n);
    }
    return std::move(_r);
}

void
PointsToAnalysis::Engine::processNode(NodeId n)
{
    const Method *m = _r->cg.node(n).method;
    if (!m->hasBody())
        return;
    // Terminates: every pass that reports a change grew a points-to set
    // or raised a constant up a finite lattice (docs/INTERNALS.md §2).
    const NodeRegs regs{_r->regPts[n].data(), _r->regConst[n].data(),
                        static_cast<int>(_r->regPts[n].size())};
    bool changed = true;
    while (changed) {
        changed = false;
        ++_r->stats.localPasses;
        for (int i = 0; i < m->numInstrs(); ++i) {
            const Instruction &instr = m->instr(i);
            uint64_t sig = instrSignature(n, regs, instr);
            // Index _instrSig afresh on every access: processInstr can
            // intern new nodes, reallocating it.
            uint64_t &last = _instrSig[_sigStart[n] + static_cast<size_t>(i)];
            if (sig == last) {
                ++_r->stats.deltaSkips;
                continue;
            }
            last = sig;
            ++_r->stats.instrVisits;
            changed |= processInstr(n, m, i);
        }
    }
}

bool
PointsToAnalysis::Engine::processInstr(NodeId n, const Method *m,
                                       int idx)
{
    const Instruction &instr = m->instr(idx);
    auto pts = [&](int reg) -> const ObjSet & {
        return _r->pointsTo(n, reg);
    };
    // Interned eagerly on purpose: downstream stages (access
    // extraction, locksets) intern the same (method, instr) sites and
    // the numeric id order — visit order here — is part of the
    // byte-identical-report contract.
    SiteId site = _r->sites.intern(m, idx);

    switch (instr.op) {
      case Opcode::ConstInt:
        return mergeConst(
            n, instr.dst,
            {ConstVal::State::Const, instr.intValue});
      case Opcode::ConstStr:
        return addObj(n, instr.dst,
                      _r->objects.syntheticObject("java.lang.Str", site));
      case Opcode::ConstNull:
      case Opcode::Nop:
      case Opcode::Throw:
      case Opcode::Goto:
      case Opcode::If:
      case Opcode::IfZ:
      case Opcode::ReturnVoid:
      case Opcode::MonitorEnter:
      case Opcode::MonitorExit:
        return false;
      case Opcode::Move: {
        bool c = addObjs(n, instr.dst, pts(instr.srcs[0]));
        c |= mergeConst(n, instr.dst, _r->constOf(n, instr.srcs[0]));
        return c;
      }
      case Opcode::BinOp:
      case Opcode::UnOp:
        // Conservative: arithmetic results are non-constant references
        // never flow here, so only poison the const lattice.
        return mergeConst(n, instr.dst,
                          {ConstVal::State::Top, 0});
      case Opcode::New:
      case Opcode::NewArray: {
        // The site fixes the class, so (site, heap context) is the
        // object's identity. The heap context is the allocating node's
        // context: every context string is already at most k long.
        CtxId heap = _r->cg.node(n).ctx;
        auto [obj, inserted] = _allocObj.tryEmplace(pack(site, heap), -1);
        if (inserted) {
            *obj =
                instr.op == Opcode::New
                    ? _r->objects.siteObject(instr.typeName, site, heap)
                    : _r->objects.siteObject(
                          (instr.typeName.empty() ? "int"
                                                  : instr.typeName) +
                              "[]",
                          site, heap);
        }
        return addObj(n, instr.dst, *obj);
      }
      case Opcode::GetField: {
        bool changed = false;
        // dst may alias the base register; never mutate the set being
        // iterated (bitset growth would invalidate the end sentinel).
        auto read = [&](const auto &bases) {
            for (ObjId o : bases) {
                FieldId key = _r->fieldKey(o, instr.field).id;
                readField(n, o, key, instr.dst, changed);
                changed |= mergeConst(n, instr.dst, fieldConstOf(o, key));
            }
        };
        if (instr.dst == instr.srcs[0])
            read(Snapshot(*this, pts(instr.srcs[0])));
        else
            read(pts(instr.srcs[0]));
        return changed;
      }
      case Opcode::PutField: {
        for (ObjId o : pts(instr.srcs[0])) {
            FieldId key = _r->fieldKey(o, instr.field).id;
            addFieldObjs(o, key, pts(instr.srcs[1]));
            mergeFieldConst(o, key, _r->constOf(n, instr.srcs[1]));
        }
        return false;
      }
      case Opcode::GetStatic: {
        FieldId key = _r->staticKey(instr.field).id;
        _staticReaders.tryEmplace(key, ObjSet(&_r->arena)).first->insert(n);
        auto it = _r->staticPts.find(key);
        if (it == _r->staticPts.end())
            return false;
        return addObjs(n, instr.dst, it->second);
      }
      case Opcode::PutStatic:
        addStaticObjs(_r->staticKey(instr.field).id, pts(instr.srcs[0]));
        return false;
      case Opcode::ArrayGet: {
        bool changed = false;
        ConstVal idx = _r->constOf(n, instr.srcs[1]);
        bool sensitive = _opts.indexSensitiveArrays;
        // Same aliasing guard as GetField: dst can be the array register.
        auto read = [&](const auto &arrays) {
            for (ObjId o : arrays) {
                readField(n, o, _r->wildcardKey(o).id, instr.dst, changed);
                if (sensitive && idx.isConst()) {
                    readField(n, o, elemIdOf(o, idx.value, false),
                              instr.dst, changed);
                } else if (sensitive) {
                    // Unknown index: read every known exact element too
                    // (per-object element index replaces the old string
                    // prefix scan over fieldPts).
                    auto eit = _arrayElemKeys.find(o);
                    if (eit != _arrayElemKeys.end()) {
                        for (FieldId e : eit->second)
                            readField(n, o, e, instr.dst, changed);
                    }
                }
            }
        };
        if (instr.dst == instr.srcs[0])
            read(Snapshot(*this, pts(instr.srcs[0])));
        else
            read(pts(instr.srcs[0]));
        return changed;
      }
      case Opcode::ArrayPut: {
        ConstVal idx = _r->constOf(n, instr.srcs[1]);
        for (ObjId o : pts(instr.srcs[0])) {
            FieldId key = _opts.indexSensitiveArrays && idx.isConst()
                              ? elemIdOf(o, idx.value, true)
                              : _r->wildcardKey(o).id;
            addFieldObjs(o, key, pts(instr.srcs[2]));
        }
        return false;
      }
      case Opcode::Return:
        addReturn(n, pts(instr.srcs[0]));
        return false;
      case Opcode::Invoke:
        return processInvoke(n, m, idx);
    }
    return false;
}

PointsToAnalysis::Engine::InstrFacts
PointsToAnalysis::Engine::invokeFacts(NodeId n, const Method *m, int idx)
{
    InstrFacts &f = factsOf(n, idx);
    if (f.invokeResolved)
        return f;
    f.invokeResolved = true;
    const Instruction &instr = m->instr(idx);
    f.event = _plan.siteAt(m, idx);
    if (f.event) {
        f.nameId = nameIdOf(instr.method.methodName);
        return f;
    }
    f.api = _apis.classify(instr.method);
    if (f.api != ApiKind::None)
        return f;
    switch (instr.invokeKind) {
      case InvokeKind::Static:
        f.directTarget = _r->cha.resolveStatic(instr.method.className,
                                               instr.method.methodName);
        break;
      case InvokeKind::Special:
        f.directTarget = _r->cha.resolveVirtual(instr.method.className,
                                                instr.method.methodName);
        break;
      case InvokeKind::Virtual:
      case InvokeKind::Interface:
        f.nameId = nameIdOf(instr.method.methodName);
        break;
    }
    return f;
}

const Method *
PointsToAnalysis::Engine::dispatch(ObjId o, int name_id)
{
    auto [target, inserted] = _dispatch.tryEmplace(
        pack(_r->objects.get(o).classId, name_id));
    if (inserted)
        *target = _r->cha.resolveVirtual(classOf(o), *_names[name_id]);
    return *target;
}

bool
PointsToAnalysis::Engine::processInvoke(NodeId n, const Method *m,
                                        int idx)
{
    const InstrFacts f = invokeFacts(n, m, idx);
    if (f.event)
        return handleEventSite(n, m, idx, f);
    if (f.api != ApiKind::None)
        return handleIntrinsic(n, m, idx, f.api);
    return normalCall(n, m, idx, f);
}

bool
PointsToAnalysis::Engine::bindArgs(NodeId caller,
                                   const Instruction &instr,
                                   const Method *target, NodeId callee,
                                   bool has_this)
{
    bool changed = false;
    size_t arg_base = has_this ? 1 : 0;
    if (has_this && !target->isStatic() && !instr.srcs.empty()) {
        changed |= addObjs(callee, target->thisReg(),
                           _r->pointsTo(caller, instr.srcs[0]));
    }
    for (int p = 0; p < target->numParams(); ++p) {
        size_t src_idx = arg_base + static_cast<size_t>(p);
        if (src_idx >= instr.srcs.size())
            break;
        int src_reg = instr.srcs[src_idx];
        changed |= addObjs(callee, target->paramReg(p),
                           _r->pointsTo(caller, src_reg));
        changed |= mergeConst(callee, target->paramReg(p),
                              _r->constOf(caller, src_reg));
    }
    return changed;
}

bool
PointsToAnalysis::Engine::handleEventSite(NodeId n, const Method *m,
                                          int idx, const InstrFacts &f)
{
    const EntryEventSite &ev = *f.event;
    const Instruction &instr = m->instr(idx);
    SiteId site = _r->sites.intern(m, idx);

    int act = spawnAction(ev.kind, _r->rootAction, site, ev.targetClass,
                          ev.callbackName);
    {
        Action &a = _r->actions.get(act);
        a.affinity = ThreadAffinity::MainLooper;
        a.widgetId = ev.widgetId;
        a.looperObj = _r->mainLooperObj;
    }

    // Snapshot: spawnEntry binds receivers, which may grow this set.
    for (ObjId o : Snapshot(*this, _r->pointsTo(n, instr.srcs[0]))) {
        const Method *target = dispatch(o, f.nameId);
        if (!target)
            continue;
        // Even a bodyless (framework default) callback is a real action
        // node in the SHBG; only spawn a CG node when there is a body.
        if (!target->hasBody()) {
            _r->cg.addSpawn({n, site, act});
            continue;
        }
        NodeId n2 = spawnEntry(act, target, o, n, site);
        bindArgs(n, instr, target, n2, true);
    }
    return false;
}

bool
PointsToAnalysis::Engine::handleIntrinsic(NodeId n, const Method *m,
                                          int idx, ApiKind kind)
{
    const Instruction &instr = m->instr(idx);
    SiteId site = _r->sites.intern(m, idx);
    // Copies throughout: intrinsics intern nodes/actions while iterating,
    // which may reallocate the backing vectors.
    auto pts = [&](size_t i) -> ObjSet {
        if (i >= instr.srcs.size())
            return ObjSet{};
        return copyOf(_r->pointsTo(n, instr.srcs[i]));
    };
    const ObjSet creators = copyOf(_r->cg.actionsOf(n));

    auto looper_of_handler = [&](ObjId h) {
        auto it = _r->handlerLooper.find(h);
        return it == _r->handlerLooper.end() ? _r->mainLooperObj
                                             : it->second;
    };
    auto set_looper = [&](Action &a, ObjId looper) {
        a.looperObj = looper;
        a.affinity = looper == _r->mainLooperObj
                         ? ThreadAffinity::MainLooper
                         : ThreadAffinity::CustomLooper;
    };
    auto spawn_runnable = [&](ActionKind akind, ObjId runnable,
                              ObjId looper, ThreadAffinity affinity) {
        const Method *run = dispatch(runnable, kRun);
        if (!run || !run->hasBody())
            return;
        for (int creator : creators) {
            int act = spawnAction(akind, creator, site,
                                  classOf(runnable), "run");
            Action &a = _r->actions.get(act);
            a.affinity = affinity;
            if (affinity != ThreadAffinity::Background)
                set_looper(a, looper);
            spawnEntry(act, run, runnable, n, site);
        }
    };

    switch (kind) {
      case ApiKind::HandlerPost: {
        for (ObjId h : pts(0)) {
            ObjId looper = looper_of_handler(h);
            for (ObjId r : pts(1)) {
                spawn_runnable(ActionKind::PostedRunnable, r, looper,
                               looper == _r->mainLooperObj
                                   ? ThreadAffinity::MainLooper
                                   : ThreadAffinity::CustomLooper);
            }
        }
        return false;
      }
      case ApiKind::ViewPost:
      case ApiKind::RunOnUiThread: {
        for (ObjId r : pts(1)) {
            spawn_runnable(ActionKind::PostedRunnable, r,
                           _r->mainLooperObj,
                           ThreadAffinity::MainLooper);
        }
        return false;
      }
      case ApiKind::HandlerSendMessage: {
        for (ObjId h : pts(0)) {
            const Method *target = dispatch(h, kHandleMessage);
            if (!target || !target->hasBody())
                continue;
            ObjId looper = looper_of_handler(h);
            // Constant message "what" (on-demand constant propagation,
            // paper Section 5).
            ConstVal what;
            bool empty_message =
                instr.method.methodName == "sendEmptyMessage";
            if (empty_message) {
                what = _r->constOf(n, instr.srcs.size() > 1
                                          ? instr.srcs[1]
                                          : -1);
            } else {
                for (ObjId msg : pts(1)) {
                    ConstVal w = fieldConstOf(msg, _messageWhatKey);
                    if (what.state == ConstVal::State::Bottom)
                        what = w;
                    else if (!(what.isConst() && w.isConst() &&
                               what.value == w.value))
                        what.state = ConstVal::State::Top;
                }
            }
            for (int creator : creators) {
                int act = spawnAction(ActionKind::PostedMessage, creator,
                                      site, classOf(h), "handleMessage");
                Action &a = _r->actions.get(act);
                set_looper(a, looper);
                if (what.isConst())
                    a.messageWhat = static_cast<int>(what.value);
                NodeId n2 = spawnEntry(act, target, h, n, site);
                if (target->numParams() >= 1) {
                    if (empty_message) {
                        ObjId msg = _r->objects.syntheticObject(
                            framework::names::message, site);
                        if (what.isConst()) {
                            mergeFieldConst(msg, _messageWhatKey, what);
                        }
                        addObj(n2, target->paramReg(0), msg);
                    } else {
                        addObjs(n2, target->paramReg(0), pts(1));
                    }
                }
            }
        }
        return false;
      }
      case ApiKind::AsyncTaskExecute: {
        for (ObjId t : pts(0)) {
            const std::string &cls = classOf(t);
            struct Phase {
                const char *cb;
                int nameId;
                ActionKind kind;
                ThreadAffinity affinity;
            };
            static const Phase phases[] = {
                {"onPreExecute", kOnPreExecute, ActionKind::AsyncPre,
                 ThreadAffinity::MainLooper},
                {"doInBackground", kDoInBackground,
                 ActionKind::AsyncBackground, ThreadAffinity::Background},
                {"onPostExecute", kOnPostExecute, ActionKind::AsyncPost,
                 ThreadAffinity::MainLooper},
            };
            NodeId bg_node = -1;
            for (const auto &phase : phases) {
                const Method *target = dispatch(t, phase.nameId);
                if (!target || !target->hasBody())
                    continue;
                for (int creator : creators) {
                    int act = spawnAction(phase.kind, creator, site, cls,
                                          phase.cb);
                    Action &a = _r->actions.get(act);
                    a.affinity = phase.affinity;
                    if (phase.affinity == ThreadAffinity::MainLooper)
                        a.looperObj = _r->mainLooperObj;
                    NodeId n2 = spawnEntry(act, target, t, n, site);
                    if (phase.kind == ActionKind::AsyncBackground) {
                        bg_node = n2;
                    } else if (phase.kind == ActionKind::AsyncPost &&
                               bg_node >= 0 &&
                               target->numParams() >= 1) {
                        // doInBackground's result flows into
                        // onPostExecute's parameter.
                        addReturnFlow(bg_node, n2, target->paramReg(0));
                    }
                }
            }
        }
        return false;
      }
      case ApiKind::ThreadStart: {
        for (ObjId t : pts(0)) {
            const Method *run = dispatch(t, kRun);
            if (run && run->hasBody()) {
                spawn_runnable(ActionKind::ThreadRun, t, -1,
                               ThreadAffinity::Background);
                continue;
            }
            // Plain java.lang.Thread wrapping a Runnable.
            FieldId key = _threadTargetKey;
            _fieldReaders.tryEmplace(pack(t, key), ObjSet(&_r->arena))
                .first->insert(n);
            ObjSet **stored = _fieldPtsOf.find(pack(t, key));
            if (!stored)
                continue;
            const ObjSet targets = copyOf(**stored);
            for (ObjId r : targets) {
                spawn_runnable(ActionKind::ThreadRun, r, -1,
                               ThreadAffinity::Background);
            }
        }
        return false;
      }
      case ApiKind::ExecutorExecute: {
        for (ObjId r : pts(1)) {
            spawn_runnable(ActionKind::ExecutorRun, r, -1,
                           ThreadAffinity::Background);
        }
        return false;
      }
      case ApiKind::ThreadInit: {
        if (instr.srcs.size() >= 2) {
            for (ObjId t : pts(0)) {
                addFieldObjs(t, _threadTargetKey, pts(1));
            }
        }
        return false;
      }
      case ApiKind::HandlerInit: {
        for (ObjId h : pts(0)) {
            ObjId looper = _r->mainLooperObj;
            const ObjSet loopers = pts(1);
            if (instr.srcs.size() >= 2 && !loopers.empty())
                looper = *loopers.begin();
            auto [it, inserted] = _r->handlerLooper.emplace(h, looper);
            if (inserted || it->second != looper) {
                it->second = looper;
                ++_looperEpoch;
            }
        }
        return false;
      }
      case ApiKind::RegisterReceiver: {
        for (ObjId r : pts(1)) {
            const Method *target = dispatch(r, kOnReceive);
            if (!target || !target->hasBody())
                continue;
            for (int creator : creators) {
                int act = spawnAction(ActionKind::Receive, creator, site,
                                      classOf(r), "onReceive");
                Action &a = _r->actions.get(act);
                a.affinity = ThreadAffinity::MainLooper;
                a.looperObj = _r->mainLooperObj;
                NodeId n2 = spawnEntry(act, target, r, n, site);
                if (target->numParams() >= 1)
                    addObjs(n2, target->paramReg(0), pts(0));
                if (target->numParams() >= 2) {
                    addObj(n2, target->paramReg(1),
                           _r->objects.singleton(
                               framework::names::intent,
                               kSystemIntent));
                }
            }
        }
        return false;
      }
      case ApiKind::BindService: {
        for (ObjId c : pts(2)) {
            const Method *target = dispatch(c, kOnServiceConnected);
            if (!target || !target->hasBody())
                continue;
            for (int creator : creators) {
                int act = spawnAction(ActionKind::ServiceConnected,
                                      creator, site, classOf(c),
                                      "onServiceConnected");
                Action &a = _r->actions.get(act);
                a.affinity = ThreadAffinity::MainLooper;
                a.looperObj = _r->mainLooperObj;
                NodeId n2 = spawnEntry(act, target, c, n, site);
                if (target->numParams() >= 1) {
                    addObj(n2, target->paramReg(0),
                           _r->objects.syntheticObject(
                               "android.os.IBinder", site));
                }
            }
        }
        return false;
      }
      case ApiKind::StartService: {
        for (const auto &svc : _app.manifest().services) {
            for (const char *cb : {"onCreate", "onStartCommand"}) {
                const Method *target =
                    _r->cha.resolveVirtual(svc.className, cb);
                if (!target || !target->hasBody())
                    continue;
                for (int creator : creators) {
                    int act = spawnAction(ActionKind::ServiceCreate,
                                          creator, site, svc.className,
                                          cb);
                    Action &a = _r->actions.get(act);
                    a.affinity = ThreadAffinity::MainLooper;
                    a.looperObj = _r->mainLooperObj;
                    ObjId self = _r->objects.singleton(svc.className,
                                                       kSystemIntent);
                    NodeId n2 = spawnEntry(act, target, self, n, site);
                    if (target->numParams() >= 1) {
                        addObj(n2, target->paramReg(0),
                               _r->objects.syntheticObject(
                                   framework::names::intent, site));
                    }
                }
            }
        }
        return false;
      }
      case ApiKind::FindViewById: {
        ConstVal id = instr.srcs.size() > 1
                          ? _r->constOf(n, instr.srcs[1])
                          : ConstVal{};
        if (id.isConst()) {
            // Look the id up across the app's layouts.
            const framework::Widget *widget = nullptr;
            for (const auto &[activity, layout] : _app.layouts()) {
                widget = layout.byId(static_cast<int>(id.value));
                if (widget)
                    break;
            }
            std::string klass =
                widget ? widget->widgetClass : framework::names::view;
            return addObj(n, instr.dst,
                          _r->objects.inflatedView(
                              klass, static_cast<int>(id.value)));
        }
        return addObj(n, instr.dst,
                      _r->objects.syntheticObject(
                          framework::names::view, site));
      }
      case ApiKind::SetListener: {
        std::string cb = framework::KnownApis::listenerCallback(
            instr.method.methodName);
        int widget_id = -1;
        for (ObjId v : pts(0)) {
            const HeapObject &vo = _r->objects.get(v);
            if (vo.kind == ObjKind::InflatedView) {
                widget_id = vo.viewId;
                break;
            }
        }
        for (ObjId l : pts(1)) {
            const Method *target =
                _r->cha.resolveVirtual(classOf(l), cb);
            if (!target || !target->hasBody())
                continue;
            for (int creator : creators) {
                int act = spawnAction(ActionKind::Gui, creator, site,
                                      classOf(l), cb);
                Action &a = _r->actions.get(act);
                a.affinity = ThreadAffinity::MainLooper;
                a.looperObj = _r->mainLooperObj;
                if (a.widgetId < 0)
                    a.widgetId = widget_id;
                NodeId n2 = spawnEntry(act, target, l, n, site);
                if (target->numParams() >= 1)
                    addObjs(n2, target->paramReg(0), pts(0));
            }
        }
        return false;
      }
      case ApiKind::MessageObtain: {
        if (instr.dst < 0)
            return false;
        return addObj(n, instr.dst,
                      _r->objects.syntheticObject(
                          framework::names::message, site));
      }
      case ApiKind::HandlerThreadGetLooper: {
        // One abstract looper per HandlerThread object; handlers bound
        // to it deliver to that thread's queue (CustomLooper affinity).
        if (instr.dst < 0)
            return false;
        bool changed = false;
        for (ObjId t : pts(0)) {
            changed |= addObj(
                n, instr.dst,
                _r->objects.singleton(framework::names::looper,
                                      kHandlerThreadLooperBase + t));
        }
        return changed;
      }
      case ApiKind::LooperMain:
      case ApiKind::LooperMy: {
        // myLooper() is approximated by the main looper.
        if (instr.dst < 0)
            return false;
        return addObj(n, instr.dst, _r->mainLooperObj);
      }
      case ApiKind::HandlerRemove:
      case ApiKind::SetContentView:
      case ApiKind::UnregisterReceiver:
      case ApiKind::SendBroadcast:
      case ApiKind::StartActivity:
      case ApiKind::IntentSetClass:
      case ApiKind::PendingIntentGetActivity:
      case ApiKind::PendingIntentGetService:
      case ApiKind::PendingIntentGetBroadcast:
      case ApiKind::PendingIntentSend:
      case ApiKind::ObjectInit:
      case ApiKind::NullCheck:
      case ApiKind::None:
        return false;
    }
    return false;
}

bool
PointsToAnalysis::Engine::normalCall(NodeId n, const Method *m, int idx,
                                     const InstrFacts &f)
{
    const Instruction &instr = m->instr(idx);
    SiteId site = _r->sites.intern(m, idx);
    CtxId caller_ctx = _r->cg.node(n).ctx;
    int caller_action =
        asMode() ? _r->contexts.get(caller_ctx).actionId : -1;
    bool changed = false;

    auto connect = [&](const Method *target, CtxId cc, bool has_this) {
        if (!target->hasBody())
            return;
        NodeId n2 = internNode(target, cc);
        _r->cg.addEdge(n, site, n2);
        if (_r->cg.addActionsOf(n2, n))
            enqueue(n2);
        bindArgs(n, instr, target, n2, has_this);
        if (instr.dst >= 0 && target->returnType().isReference())
            addReturnFlow(n2, n, instr.dst);
    };

    switch (instr.invokeKind) {
      case InvokeKind::Static: {
        const Method *target = f.directTarget;
        if (!target)
            return false;
        CtxId cc = selectCtx(false, caller_ctx, -1, site, caller_action);
        connect(target, cc, false);
        return changed;
      }
      case InvokeKind::Special: {
        const Method *target = f.directTarget;
        if (!target)
            return false;
        CtxId cc = selectCtx(false, caller_ctx, -1, site, caller_action);
        connect(target, cc, true);
        return changed;
      }
      case InvokeKind::Virtual:
      case InvokeKind::Interface: {
        if (instr.srcs.empty())
            return false;
        // Snapshot: binding a callee's receiver and return value may
        // grow this set.
        for (ObjId o : Snapshot(*this, _r->pointsTo(n, instr.srcs[0]))) {
            const Method *target = dispatch(o, f.nameId);
            if (!target || !target->hasBody())
                continue;
            CtxId cc =
                selectCtx(true, caller_ctx, o, site, caller_action);
            NodeId n2 = internNode(target, cc);
            _r->cg.addEdge(n, site, n2);
            if (_r->cg.addActionsOf(n2, n))
                enqueue(n2);
            // Precise per-receiver this-binding.
            if (!target->isStatic())
                addObj(n2, target->thisReg(), o);
            bool arg_changed = false;
            for (int p = 0; p < target->numParams(); ++p) {
                size_t src_idx = 1 + static_cast<size_t>(p);
                if (src_idx >= instr.srcs.size())
                    break;
                arg_changed |= addObjs(
                    n2, target->paramReg(p),
                    _r->pointsTo(n, instr.srcs[src_idx]));
                arg_changed |= mergeConst(
                    n2, target->paramReg(p),
                    _r->constOf(n, instr.srcs[src_idx]));
            }
            (void)arg_changed;
            if (instr.dst >= 0 && target->returnType().isReference())
                addReturnFlow(n2, n, instr.dst);
        }
        return changed;
      }
    }
    return changed;
}

PointsToAnalysis::PointsToAnalysis(const framework::App &app,
                                   const EntryPlan &plan,
                                   PointsToOptions options)
    : _engine(std::make_unique<Engine>(app, plan, options))
{
}

PointsToAnalysis::~PointsToAnalysis() = default;

std::unique_ptr<PointsToResult>
PointsToAnalysis::run()
{
    return _engine->run();
}

} // namespace sierra::analysis
