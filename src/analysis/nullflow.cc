#include "nullflow.hh"

#include "air/method.hh"

namespace sierra::analysis {

using air::CondKind;
using air::Instruction;
using air::InvokeKind;
using air::Opcode;
using framework::ApiKind;

const char *
nullVerdictName(NullVerdict v)
{
    switch (v) {
      case NullVerdict::Unknown: return "UNKNOWN";
      case NullVerdict::Guarded: return "GUARDED";
      case NullVerdict::Harmful: return "HARMFUL";
    }
    return "UNKNOWN";
}

bool
nullVerdictFromName(std::string_view name, NullVerdict &out)
{
    if (name == "UNKNOWN") {
        out = NullVerdict::Unknown;
        return true;
    }
    if (name == "GUARDED") {
        out = NullVerdict::Guarded;
        return true;
    }
    if (name == "HARMFUL") {
        out = NullVerdict::Harmful;
        return true;
    }
    return false;
}

int
nullVerdictRank(NullVerdict v)
{
    switch (v) {
      case NullVerdict::Guarded: return 0;
      case NullVerdict::Unknown: return 1;
      case NullVerdict::Harmful: return 2;
    }
    return 1;
}

namespace {

bool
isRefField(const PointsToResult &r, const air::FieldRef &field)
{
    const air::Field *f =
        r.cha.resolveField(field.className, field.fieldName);
    return f && f->type.isReference();
}

bool
sameField(const air::FieldRef &a, const air::FieldRef &b)
{
    return a.className == b.className && a.fieldName == b.fieldName;
}

bool
isFieldLoad(const Instruction &in)
{
    return in.op == Opcode::GetField || in.op == Opcode::GetStatic;
}

/** The register a (static) null-check API call tests; -1 if the call
 *  shape is not recognized. */
int
nullCheckedReg(const Instruction &in)
{
    if (!in.isInvoke() || in.invokeKind != InvokeKind::Static ||
        in.srcs.empty())
        return -1;
    return in.srcs[0];
}

} // namespace

int
soleDefOf(const Cfg &cfg, int before_instr, int reg)
{
    const air::Method &m = cfg.method();
    for (int i = before_instr - 1; i >= 0; --i) {
        if (cfg.isJumpTarget(i + 1))
            return -1;
        const Instruction &in = m.instr(i);
        if (in.isBranch() || in.isTerminator())
            return -1;
        if (in.dst == reg) {
            if (in.op == Opcode::Move) {
                reg = in.srcs[0];
                continue;
            }
            return i;
        }
    }
    return -1;
}

bool
isListenerClear(const Cfg &cfg, int instr_idx)
{
    const air::Method &m = cfg.method();
    const Instruction &call = m.instr(instr_idx);
    if (!call.isInvoke() || call.srcs.size() < 2 ||
        framework::KnownApis::listenerCallback(call.method.methodName)
            .empty())
        return false;
    const int def = soleDefOf(cfg, instr_idx, call.srcs[1]);
    return def >= 0 && m.instr(def).op == Opcode::ConstNull;
}

NullFlowAnalysis::NullFlowAnalysis(
    const PointsToResult &result, const InterConstants *inter,
    const framework::KnownApis &apis,
    std::function<bool(int, int)> happensBefore)
    : _r(result), _inter(inter), _apis(apis),
      _happensBefore(std::move(happensBefore))
{
}

NullFlowAnalysis::~NullFlowAnalysis() = default;

bool
NullFlowAnalysis::storesProvenNull(NodeId node, const air::Method *m,
                                   int instr, int value_reg) const
{
    // Flow-sensitive interprocedural facts when the IFDS stage ran
    // (covers setter parameters proven null at every call site); the
    // flow-insensitive per-node constants otherwise (covers direct
    // constNull stores).
    if (_inter) {
        ConstVal v = _inter->before(m, instr, value_reg);
        return v.isConst() && v.value == 0;
    }
    ConstVal v = _r.constOf(node, value_reg);
    return v.isConst() && v.value == 0;
}

void
NullFlowAnalysis::buildStoreIndex()
{
    if (_indexBuilt)
        return;
    _indexBuilt = true;
    for (NodeId n = 0; n < _r.cg.numNodes(); ++n) {
        const air::Method *m = _r.cg.node(n).method;
        if (!m || !m->hasBody())
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
            if (!isRefField(_r, instr.field))
                continue;
            StoreSite site;
            site.method = m;
            site.instr = i;
            site.node = n;
            site.isNull = storesProvenNull(n, m, i, value_reg);
            ++_stats.storesIndexed;
            if (site.isNull)
                ++_stats.nullStores;
            std::vector<std::string> keys;
            if (instr.op == Opcode::PutStatic) {
                keys.push_back(_r.staticKey(instr.field).str());
            } else {
                for (ObjId o : _r.pointsTo(n, instr.srcs[0]))
                    keys.push_back(_r.fieldKey(o, instr.field).str());
            }
            for (const std::string &key : keys)
                _stores[key].push_back(site);
        }
    }
}

const DominatorTree &
NullFlowAnalysis::dominatorsOf(const air::Method &m)
{
    if (_domMethods.insert(&m).second)
        ++_stats.domTrees;
    return _r.dominators(m);
}

bool
NullFlowAnalysis::isGuardLoad(const air::Method &m, int read_instr,
                              std::string *chain)
{
    // A load whose value flows only into a null test cannot itself
    // crash -- it IS the guard. Forward scan until the register is
    // redefined; the first null test ends the scan (later uses of the
    // register are dominated by that test), any other use disqualifies.
    const Instruction &read = m.instr(read_instr);
    const int reg = read.dst;
    if (reg < 0)
        return false;
    const int n = m.numInstrs();
    const Cfg &cfg = dominatorsOf(m).cfg();
    for (int i = read_instr + 1; i < n; ++i) {
        // Another path joins in: the value may escape along it.
        if (cfg.isJumpTarget(i))
            return false;
        const Instruction &in = m.instr(i);
        bool uses = false;
        for (int s : in.srcs) {
            if (s == reg) {
                uses = true;
                break;
            }
        }
        if (uses) {
            const bool null_test =
                (in.op == Opcode::IfZ && in.srcs[0] == reg &&
                 (in.cond == CondKind::Eq || in.cond == CondKind::Ne)) ||
                (in.isInvoke() && nullCheckedReg(in) == reg &&
                 _apis.classify(in.method) == ApiKind::NullCheck);
            if (!null_test)
                return false;
            if (chain) {
                *chain = "guard " + m.qualifiedName() + ":" +
                         std::to_string(i) + " tests the loaded value";
            }
            return true;
        }
        if (in.dst == reg)
            return false; // overwritten before any use: stay Unknown
        if (in.isTerminator())
            return false;
    }
    return false;
}

bool
NullFlowAnalysis::dominatedByNullCheck(const air::Method &m,
                                       int read_instr,
                                       const air::FieldRef &field,
                                       std::string *chain)
{
    const DominatorTree &dom = dominatorsOf(m);
    const Cfg &cfg = dom.cfg();

    // Does the register tested at `use_instr` carry a load of the
    // sink's field (directly or through a returning null-check API)?
    auto testsField = [&](int use_instr, int reg) {
        int d = soleDefOf(cfg, use_instr, reg);
        if (d < 0)
            return false;
        const Instruction &def = m.instr(d);
        if (isFieldLoad(def) && sameField(def.field, field))
            return true;
        if (def.isInvoke() &&
            _apis.classify(def.method) == ApiKind::NullCheck) {
            int checked = nullCheckedReg(def);
            if (checked < 0)
                return false;
            int d2 = soleDefOf(cfg, d, checked);
            if (d2 < 0)
                return false;
            const Instruction &load = m.instr(d2);
            return isFieldLoad(load) && sameField(load.field, field);
        }
        return false;
    };

    for (int g = 0; g < m.numInstrs(); ++g) {
        if (g == read_instr)
            continue;
        const Instruction &in = m.instr(g);
        bool is_guard = false;
        if (in.op == Opcode::IfZ &&
            (in.cond == CondKind::Eq || in.cond == CondKind::Ne)) {
            is_guard = testsField(g, in.srcs[0]);
        } else if (in.op == Opcode::If &&
                   (in.cond == CondKind::Eq ||
                    in.cond == CondKind::Ne)) {
            // field == null / field != null with an explicit constNull.
            for (int side = 0; side < 2 && !is_guard; ++side) {
                int fld_reg = in.srcs[static_cast<size_t>(side)];
                int nul_reg = in.srcs[static_cast<size_t>(1 - side)];
                int dn = soleDefOf(cfg, g, nul_reg);
                if (dn < 0 || m.instr(dn).op != Opcode::ConstNull)
                    continue;
                is_guard = testsField(g, fld_reg);
            }
        } else if (in.isInvoke() &&
                   in.method.methodName == "requireNonNull" &&
                   _apis.classify(in.method) == ApiKind::NullCheck) {
            // Throwing check: reaching past it proves non-null.
            int checked = nullCheckedReg(in);
            if (checked >= 0) {
                int d = soleDefOf(cfg, g, checked);
                if (d >= 0) {
                    const Instruction &load = m.instr(d);
                    is_guard = isFieldLoad(load) &&
                               sameField(load.field, field);
                }
            }
        }
        if (is_guard && dom.instrDominates(g, read_instr)) {
            if (chain) {
                *chain = "guard " + m.qualifiedName() + ":" +
                         std::to_string(g) + " dominates the read";
            }
            return true;
        }
    }
    return false;
}

NullFlowVerdict
NullFlowAnalysis::classifyRead(NodeId read_node, int read_instr,
                               NodeId write_node, int write_instr,
                               const std::string &key)
{
    ++_stats.queries;
    const air::Method *rm = _r.cg.node(read_node).method;
    const air::Method *wm = _r.cg.node(write_node).method;
    if (!rm || !rm->hasBody() || !wm)
        return {};
    if (read_instr < 0 || read_instr >= rm->numInstrs())
        return {};
    const Instruction &read = rm->instr(read_instr);
    if (!isFieldLoad(read) || !isRefField(_r, read.field))
        return {};
    ++_stats.sinksExamined;

    std::string chain;
    if (isGuardLoad(*rm, read_instr, &chain) ||
        dominatedByNullCheck(*rm, read_instr, read.field, &chain)) {
        ++_stats.guarded;
        return {NullVerdict::Guarded, std::move(chain)};
    }

    buildStoreIndex();
    const StoreSite *null_src = nullptr;
    bool racing_write_null = false;
    bool racing_write_seen = false;
    auto it = _stores.find(key);
    if (it != _stores.end()) {
        for (const StoreSite &s : it->second) {
            if (s.method == wm && s.instr == write_instr) {
                racing_write_seen = true;
                racing_write_null = racing_write_null || s.isNull;
                continue;
            }
            if (s.isNull) {
                if (!null_src)
                    null_src = &s;
                continue;
            }
            // Another non-null source: harmless to lose the race --
            // unless the SHBG proves that store can only run after
            // the sink read, in which case it cannot initialize it.
            bool always_after = true;
            const auto &read_actions = _r.cg.actionsOf(read_node);
            const auto &store_actions = _r.cg.actionsOf(s.node);
            if (read_actions.size() == 0 || store_actions.size() == 0)
                always_after = false;
            for (int ra : read_actions) {
                for (int sa : store_actions) {
                    if (!_happensBefore(ra, sa)) {
                        always_after = false;
                        break;
                    }
                }
                if (!always_after)
                    break;
            }
            if (!always_after)
                return {};
        }
    }
    // The racing write must be the non-null source; a racing null
    // store means the read observes null no matter who wins.
    if (!racing_write_seen || racing_write_null)
        return {};

    std::string src =
        null_src ? null_src->method->qualifiedName() + ":" +
                       std::to_string(null_src->instr)
                 : "<uninitialized>";
    chain = "null-source " + src + " -> " + key + " -> read " +
            rm->qualifiedName() + ":" + std::to_string(read_instr);
    ++_stats.harmful;
    return {NullVerdict::Harmful, std::move(chain)};
}

} // namespace sierra::analysis
