#include "icc.hh"

#include <algorithm>
#include <map>
#include <set>

#include "air/klass.hh"
#include "air/logging.hh"
#include "air/method.hh"

namespace sierra::framework {

namespace {

/** Target payload a PendingIntent register (or field) carries. */
struct PendingInfo {
    std::string target;
    IccTargetKind kind{IccTargetKind::Activity};
};

} // namespace

/** Field-stored PendingIntents, collected module-wide in a first pass
 *  so a PendingIntent created in onCreate and fired from a later
 *  callback still resolves (RAICC's "atypical ICC"). A field written
 *  with two different targets is conflicted and dropped. */
struct IccModel::PendingFields {
    std::map<std::string, PendingInfo> byField; //!< FieldRef key
    std::set<std::string> conflicted;
};

const char *
iccTargetKindName(IccTargetKind k)
{
    switch (k) {
      case IccTargetKind::Activity: return "activity";
      case IccTargetKind::Service: return "service";
      case IccTargetKind::Broadcast: return "broadcast";
    }
    return "?";
}

std::string
IccSite::toString() const
{
    return strCat(pending ? "pending " : "", iccTargetKindName(targetKind),
                  " icc ", senderClass, " -> ",
                  resolved() ? targetClass : std::string("<implicit>"),
                  " at ", method ? method->qualifiedName() : "?", "@",
                  instrIdx);
}

IccModel::IccModel(const App &app) : _app(app)
{
    KnownApis apis(app.module());
    // Pass 1 collects field-stored PendingIntent targets; pass 2
    // resolves call sites with those field facts available.
    PendingFields fields;
    for (const air::Klass *k : app.module().classes()) {
        for (const auto &m : k->methods()) {
            if (m->hasBody())
                scanMethod(m, apis, fields, /*collect=*/true);
        }
    }
    for (const std::string &f : fields.conflicted)
        fields.byField.erase(f);
    for (const air::Klass *k : app.module().classes()) {
        for (const auto &m : k->methods()) {
            if (m->hasBody())
                scanMethod(m, apis, fields, /*collect=*/false);
        }
    }
    std::set<std::pair<std::string, std::string>> edges;
    for (const IccSite &s : _sites) {
        ++_stats.callSites;
        if (s.resolved())
            ++_stats.resolved;
        else
            ++_stats.unresolved;
        if (s.pending)
            ++_stats.pendingSites;
        if (s.resolved() && s.targetKind == IccTargetKind::Activity &&
            s.targetClass != s.senderClass)
            edges.insert({s.senderClass, s.targetClass});
    }
    _stats.activityEdges = static_cast<int64_t>(edges.size());
}

void
IccModel::scanMethod(const air::Method *m, const KnownApis &apis,
                     PendingFields &fields, bool collect)
{
    // Linear register scan; joins at merge points are ignored, which
    // only loses targets assigned on one branch — under-approximation
    // is fine, every resolved edge is real.
    std::map<int, std::string> str_of;    //!< reg -> string constant
    std::map<int, std::string> intent_of; //!< reg -> intent target ("" ok)
    std::map<int, PendingInfo> pending_of;

    auto forget = [&](int reg) {
        str_of.erase(reg);
        intent_of.erase(reg);
        pending_of.erase(reg);
    };
    auto strAt = [&](int reg) -> std::string {
        auto it = str_of.find(reg);
        return it == str_of.end() ? std::string() : it->second;
    };
    auto intentAt = [&](int reg) -> std::string {
        auto it = intent_of.find(reg);
        return it == intent_of.end() ? std::string() : it->second;
    };
    // A target is only "resolved" when the manifest declares a
    // matching component: the string could otherwise be any extra.
    auto manifestTarget = [&](const std::string &cls,
                              IccTargetKind kind) -> std::string {
        if (cls.empty())
            return {};
        const Manifest &mf = _app.manifest();
        switch (kind) {
          case IccTargetKind::Activity:
            return mf.hasActivity(cls) ? cls : std::string();
          case IccTargetKind::Service:
            for (const auto &s : mf.services) {
                if (s.className == cls)
                    return cls;
            }
            return {};
          case IccTargetKind::Broadcast:
            for (const auto &r : mf.receivers) {
                if (r.className == cls)
                    return cls;
            }
            return {};
        }
        return {};
    };
    auto record = [&](int idx, ApiKind kind, IccTargetKind tk,
                      const std::string &target, bool pending) {
        if (collect)
            return;
        IccSite s;
        s.method = m;
        s.instrIdx = idx;
        s.kind = kind;
        s.targetKind = tk;
        // Exact owner class: corpus class names use '$' as a plain
        // uniquifier, not an inner-class separator, so no stripping.
        s.senderClass = m->owner()->name();
        s.targetClass = manifestTarget(target, tk);
        s.pending = pending;
        _sites.push_back(std::move(s));
    };

    for (int i = 0; i < m->numInstrs(); ++i) {
        const air::Instruction &instr = m->instr(i);
        switch (instr.op) {
          case air::Opcode::ConstStr:
            forget(instr.dst);
            str_of[instr.dst] = instr.strValue;
            continue;
          case air::Opcode::Move: {
            int src = instr.srcs[0];
            bool same = src == instr.dst;
            if (!same) {
                forget(instr.dst);
                if (str_of.count(src))
                    str_of[instr.dst] = str_of[src];
                if (intent_of.count(src))
                    intent_of[instr.dst] = intent_of[src];
                if (pending_of.count(src))
                    pending_of[instr.dst] = pending_of[src];
            }
            continue;
          }
          case air::Opcode::New:
            forget(instr.dst);
            if (instr.typeName == names::intent)
                intent_of[instr.dst] = ""; // target not yet known
            continue;
          case air::Opcode::PutField:
            if (collect && pending_of.count(instr.srcs[1])) {
                const std::string key = instr.field.toString();
                auto it = fields.byField.find(key);
                const PendingInfo &info = pending_of[instr.srcs[1]];
                if (it == fields.byField.end())
                    fields.byField[key] = info;
                else if (it->second.target != info.target ||
                         it->second.kind != info.kind)
                    fields.conflicted.insert(key);
            }
            continue;
          case air::Opcode::GetField: {
            forget(instr.dst);
            auto it = fields.byField.find(instr.field.toString());
            if (it != fields.byField.end())
                pending_of[instr.dst] = it->second;
            continue;
          }
          case air::Opcode::Invoke:
            break; // handled below
          default:
            if (instr.dst >= 0)
                forget(instr.dst);
            continue;
        }

        // Intent.<init>(str): the constructor is an invoke-special on
        // the framework class, so classify() maps it to ObjectInit —
        // match the receiver's tracked Intent directly instead.
        if (instr.invokeKind == air::InvokeKind::Special &&
            instr.method.methodName == "<init>" &&
            instr.srcs.size() >= 2 && intent_of.count(instr.srcs[0])) {
            intent_of[instr.srcs[0]] = strAt(instr.srcs[1]);
            continue;
        }

        ApiKind kind = apis.classify(instr.method);
        switch (kind) {
          case ApiKind::IntentSetClass: {
            std::string target = instr.srcs.size() >= 2
                                     ? strAt(instr.srcs[1])
                                     : std::string();
            intent_of[instr.srcs[0]] = target;
            if (instr.dst >= 0) { // returns this for chaining
                forget(instr.dst);
                intent_of[instr.dst] = target;
            }
            continue;
          }
          case ApiKind::StartActivity:
            record(i, kind, IccTargetKind::Activity,
                   instr.srcs.size() >= 2 ? intentAt(instr.srcs[1])
                                          : std::string(),
                   false);
            continue;
          case ApiKind::StartService:
            record(i, kind, IccTargetKind::Service,
                   instr.srcs.size() >= 2 ? intentAt(instr.srcs[1])
                                          : std::string(),
                   false);
            continue;
          case ApiKind::SendBroadcast:
            record(i, kind, IccTargetKind::Broadcast,
                   instr.srcs.size() >= 2 ? intentAt(instr.srcs[1])
                                          : std::string(),
                   false);
            continue;
          case ApiKind::PendingIntentGetActivity:
          case ApiKind::PendingIntentGetService:
          case ApiKind::PendingIntentGetBroadcast: {
            IccTargetKind tk =
                kind == ApiKind::PendingIntentGetActivity
                    ? IccTargetKind::Activity
                    : kind == ApiKind::PendingIntentGetService
                          ? IccTargetKind::Service
                          : IccTargetKind::Broadcast;
            if (instr.dst >= 0) {
                forget(instr.dst);
                pending_of[instr.dst] = {
                    instr.srcs.empty() ? std::string()
                                       : intentAt(instr.srcs[0]),
                    tk};
            }
            continue;
          }
          case ApiKind::PendingIntentSend: {
            PendingInfo info;
            if (!instr.srcs.empty() &&
                pending_of.count(instr.srcs[0]))
                info = pending_of[instr.srcs[0]];
            record(i, kind, info.kind, info.target, true);
            continue;
          }
          default:
            if (instr.dst >= 0)
                forget(instr.dst);
            continue;
        }
    }
}

std::vector<std::string>
IccModel::activityTargetsOf(const std::string &activity) const
{
    std::set<std::string> targets;
    for (const IccSite &s : _sites) {
        if (s.resolved() && s.targetKind == IccTargetKind::Activity &&
            s.senderClass == activity && s.targetClass != activity)
            targets.insert(s.targetClass);
    }
    return {targets.begin(), targets.end()};
}

} // namespace sierra::framework
