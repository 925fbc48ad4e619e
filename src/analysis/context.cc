#include "context.hh"

#include <algorithm>

#include "air/logging.hh"

namespace sierra::analysis {

const char *
contextPolicyName(ContextPolicy p)
{
    switch (p) {
      case ContextPolicy::Insensitive: return "insensitive";
      case ContextPolicy::KCfa: return "k-cfa";
      case ContextPolicy::KObj: return "k-obj";
      case ContextPolicy::Hybrid: return "hybrid";
      case ContextPolicy::ActionSensitive: return "action-sensitive";
    }
    panic("unreachable context policy");
}

CtxId
ContextTable::intern(int action_id, std::span<const SiteId> elems)
{
    uint64_t h = util::hashMix(0, static_cast<uint64_t>(action_id));
    for (SiteId e : elems)
        h = util::hashMix(h, static_cast<uint64_t>(e));
    int found = _index.find(h, [&](int id) {
        const ContextData &d = _contexts[static_cast<size_t>(id)];
        return d.actionId == action_id &&
               std::equal(d.elems.begin(), d.elems.end(), elems.begin(),
                          elems.end());
    });
    if (found >= 0)
        return found;
    CtxId id = static_cast<CtxId>(_contexts.size());
    _contexts.push_back({action_id, {elems.begin(), elems.end()}});
    _index.insert(h, id);
    return id;
}

CtxId
ContextTable::pushElem(CtxId base, SiteId elem, int k)
{
    const ContextData &b = get(base);
    _scratch.clear();
    if (k > 0)
        _scratch.push_back(elem);
    for (SiteId e : b.elems) {
        if (static_cast<int>(_scratch.size()) >= k)
            break;
        _scratch.push_back(e);
    }
    return intern(b.actionId, _scratch);
}

CtxId
ContextTable::make(int action_id, const std::vector<SiteId> &elems, int k)
{
    const size_t n = std::min(elems.size(), static_cast<size_t>(std::max(k, 0)));
    return intern(action_id, std::span<const SiteId>(elems.data(), n));
}

CtxId
ContextTable::withAction(CtxId base, int action_id)
{
    if (get(base).actionId == action_id)
        return base;
    // Copy the string out: interning may grow the table under `base`.
    _scratch = get(base).elems;
    return intern(action_id, _scratch);
}

std::string
ContextTable::toString(CtxId id, const SiteTable &sites) const
{
    const ContextData &d = get(id);
    std::string out = "[";
    if (d.actionId >= 0)
        out += "act" + std::to_string(d.actionId);
    for (size_t i = 0; i < d.elems.size(); ++i) {
        if (i || d.actionId >= 0)
            out += "; ";
        out += sites.toString(d.elems[i]);
    }
    out += "]";
    return out;
}

} // namespace sierra::analysis
