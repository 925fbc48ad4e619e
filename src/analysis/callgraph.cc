#include "callgraph.hh"

#include <algorithm>

namespace sierra::analysis {

NodeId
CallGraph::internNode(const air::Method *method, CtxId ctx)
{
    auto [slot, inserted] = _index.tryEmplace(
        {method, ctx}, static_cast<NodeId>(_nodes.size()));
    if (!inserted)
        return *slot;
    NodeId id = *slot;
    _nodes.push_back({method, ctx});
    _edges.emplace_back(_arena);
    _reverse.emplace_back();
    _actionsOf.emplace_back(_arena);
    auto [midx, new_method] = _methodIndex.tryEmplace(
        method, static_cast<int>(_methods.size()));
    if (new_method)
        _methods.push_back(method);
    _methodOfNode.push_back(*midx);
    return id;
}

NodeId
CallGraph::findNode(const air::Method *method, CtxId ctx) const
{
    const NodeId *id = _index.find({method, ctx});
    return id ? *id : -1;
}

bool
CallGraph::addEdge(NodeId caller, SiteId site, NodeId callee)
{
    auto &edges = _edges[caller];
    for (const auto &e : edges) {
        if (e.site == site && e.callee == callee)
            return false;
    }
    edges.push_back({site, callee});
    auto &rev = _reverse[callee];
    if (std::find(rev.begin(), rev.end(), caller) == rev.end())
        rev.push_back(caller);
    return true;
}

int
CallGraph::methodIndex(const air::Method *m) const
{
    const int *idx = _methodIndex.find(m);
    return idx ? *idx : -1;
}

} // namespace sierra::analysis
