/**
 * @file
 * Context abstractions for the pointer analysis (paper Section 3.3).
 *
 * A context is an optional action id plus a bounded string of site
 * elements. The action id component implements the paper's novel
 * "action-sensitivity"; the site string implements k-obj / k-cfa /
 * hybrid, selectable per analysis run for the ablation in Table 3
 * (racy pairs with vs. without action sensitivity).
 */

#ifndef SIERRA_ANALYSIS_CONTEXT_HH
#define SIERRA_ANALYSIS_CONTEXT_HH

#include <span>
#include <string>
#include <vector>

#include "sites.hh"
#include "util/flat_map.hh"

namespace sierra::analysis {

/** Interned context id; 0 is the empty (root) context. */
using CtxId = int;
inline constexpr CtxId kEmptyCtx = 0;

/** Which context abstraction the pointer analysis uses. */
enum class ContextPolicy {
    Insensitive,     //!< one context for everything
    KCfa,            //!< last-k call sites
    KObj,            //!< last-k allocation sites of the receiver
    Hybrid,          //!< k-obj for dispatch, k-cfa for static calls
    ActionSensitive, //!< hybrid + the enclosing action id (the paper's)
};

const char *contextPolicyName(ContextPolicy p);

/** Context-selection options. */
struct ContextOptions {
    ContextPolicy policy{ContextPolicy::ActionSensitive};
    //! context string depth; an allocation's heap context is the
    //! allocating node's context, so it has the same depth
    int k{1};
};

/** The immutable payload of a context. */
struct ContextData {
    int actionId{-1};           //!< -1 outside action-sensitive mode
    std::vector<SiteId> elems;  //!< most-recent-first context string

    bool operator==(const ContextData &o) const
    {
        return actionId == o.actionId && elems == o.elems;
    }
};

/** Interning table for contexts. */
class ContextTable
{
  public:
    ContextTable() { intern(ContextData{}); } // id 0 = empty

    CtxId
    intern(const ContextData &data)
    {
        return intern(data.actionId, data.elems);
    }
    const ContextData &get(CtxId id) const { return _contexts[id]; }

    /** Push an element onto the front of a context string, truncating to
     *  k; preserves the action id. */
    CtxId pushElem(CtxId base, SiteId elem, int k);

    /** A context whose string is `elems` truncated to k, with the given
     *  action id. */
    CtxId make(int action_id, const std::vector<SiteId> &elems, int k);

    /** Same context data but with a different action id. */
    CtxId withAction(CtxId base, int action_id);

    std::string toString(CtxId id, const SiteTable &sites) const;

    size_t size() const { return _contexts.size(); }

  private:
    /** The id of (action_id, elems), interned when new; a lookup that
     *  finds it allocates nothing. */
    CtxId intern(int action_id, std::span<const SiteId> elems);

    std::vector<ContextData> _contexts;
    util::IdIndex _index;
    std::vector<SiteId> _scratch; //!< context string of pushElem, withAction
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_CONTEXT_HH
