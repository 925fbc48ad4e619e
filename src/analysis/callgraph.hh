/**
 * @file
 * Context-sensitive call graph.
 */

#ifndef SIERRA_ANALYSIS_CALLGRAPH_HH
#define SIERRA_ANALYSIS_CALLGRAPH_HH

#include <vector>

#include "context.hh"
#include "sites.hh"
#include "util/arena.hh"
#include "util/bitset.hh"
#include "util/flat_map.hh"

namespace sierra::analysis {

/** Call-graph node id. */
using NodeId = int;

/** One call-graph node: a method under a context. */
struct CGNodeData {
    const air::Method *method{nullptr};
    CtxId ctx{kEmptyCtx};
};

/** One resolved call edge. */
struct CGEdge {
    SiteId site{kNoSite}; //!< the invoke instruction
    NodeId callee{-1};
};

/** An action-spawn edge: a post/execute/start site creating an action. */
struct SpawnEdge {
    NodeId creator{-1};
    SiteId site{kNoSite};
    int actionId{-1};
};

/**
 * The on-the-fly call graph filled in by the pointer analysis.
 *
 * Also records, per node, the set of actions whose handling can execute
 * the node (used to attribute memory accesses to actions).
 */
class CallGraph
{
  public:
    /** Attach the arena that owns edge arrays and action-set spill
     *  storage (PointsToResult wires its own arena in; standalone
     *  call graphs in tests fall back to the heap). */
    void setArena(util::Arena *arena) { _arena = arena; }

    /** Intern a (method, context) node. */
    NodeId internNode(const air::Method *method, CtxId ctx);

    /** Look up an existing node; -1 if absent. */
    NodeId findNode(const air::Method *method, CtxId ctx) const;

    const CGNodeData &node(NodeId id) const { return _nodes[id]; }
    int numNodes() const { return static_cast<int>(_nodes.size()); }

    /** Add a call edge; returns true if it was new. */
    bool addEdge(NodeId caller, SiteId site, NodeId callee);

    const util::ArenaVector<CGEdge> &edgesOf(NodeId id) const
    {
        return _edges[id];
    }
    const std::vector<NodeId> &callersOf(NodeId id) const
    {
        return _reverse[id];
    }

    /** Record an action-spawn edge (idempotent). */
    void
    addSpawn(SpawnEdge e)
    {
        const uint64_t at = static_cast<uint64_t>(e.creator) << 32 |
                            static_cast<uint32_t>(e.site);
        if (_spawnIndex.tryEmplace({at, e.actionId}).second)
            _spawns.push_back(e);
    }
    const std::vector<SpawnEdge> &spawns() const { return _spawns; }

    /** Actions that can execute this node (dense bitset; ascending
     *  iteration like the std::set it replaced). */
    const util::ObjBitset &actionsOf(NodeId id) const
    {
        return _actionsOf[id];
    }
    /** Add an action to a node's action set; true if it was new. */
    bool addAction(NodeId id, int action)
    {
        return _actionsOf[id].insert(action);
    }
    /** Add every action of `from` to `id`'s set; true if any was new. */
    bool addActionsOf(NodeId id, NodeId from)
    {
        return _actionsOf[id].unionWith(_actionsOf[from]);
    }

    /** Dense index of a node's method. The harness's methods are
     *  numbered in the order their first node was interned; per-method
     *  facts (the points-to engine's resolved instructions, the IFDS
     *  facts) are kept by it, so a per-node lookup is a vector read. */
    int methodIndex(NodeId id) const { return _methodOfNode[id]; }
    /** Dense index of `m`, or -1 when no node runs it. */
    int methodIndex(const air::Method *m) const;
    int numMethods() const { return static_cast<int>(_methods.size()); }
    const air::Method *methodAt(int idx) const { return _methods[idx]; }

  private:
    struct KeyHash {
        size_t
        operator()(const std::pair<const air::Method *, CtxId> &p) const
        {
            return std::hash<const void *>()(p.first) * 31 +
                   std::hash<int>()(p.second);
        }
    };

    util::Arena *_arena{nullptr};
    std::vector<CGNodeData> _nodes;
    std::vector<util::ArenaVector<CGEdge>> _edges;
    std::vector<std::vector<NodeId>> _reverse;
    std::vector<util::ObjBitset> _actionsOf;
    std::vector<SpawnEdge> _spawns;
    struct SpawnKeyHash {
        size_t
        operator()(const std::pair<uint64_t, int> &k) const
        {
            return std::hash<uint64_t>()(k.first) * 31 +
                   std::hash<int>()(k.second);
        }
    };
    //! ((creator, site), action) of every spawn edge
    util::FlatMap<std::pair<uint64_t, int>, char, SpawnKeyHash> _spawnIndex;
    util::FlatMap<std::pair<const air::Method *, CtxId>, NodeId, KeyHash>
        _index;
    std::vector<int> _methodOfNode;
    std::vector<const air::Method *> _methods;
    util::FlatMap<const air::Method *, int> _methodIndex;
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_CALLGRAPH_HH
