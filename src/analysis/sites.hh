/**
 * @file
 * Interned program-point identities (sites).
 *
 * A site is a (method, instruction index) pair: allocation sites, call
 * sites and access sites all share this identity space, which lets
 * contexts mix k-obj and k-cfa elements uniformly.
 */

#ifndef SIERRA_ANALYSIS_SITES_HH
#define SIERRA_ANALYSIS_SITES_HH

#include <string>
#include <vector>

#include "air/method.hh"
#include "util/flat_map.hh"

namespace sierra::analysis {

/** Interned site id; 0 is reserved for "no site". */
using SiteId = int;
inline constexpr SiteId kNoSite = 0;

/** Bidirectional (method, instr) <-> SiteId mapping. */
class SiteTable
{
  public:
    SiteTable() { _sites.push_back({nullptr, -1}); } // kNoSite

    SiteId
    intern(const air::Method *method, int instr_idx)
    {
        auto [slot, inserted] = _methodSlot.tryEmplace(
            method, static_cast<int>(_byMethod.size()));
        if (inserted)
            _byMethod.emplace_back(
                static_cast<size_t>(method->numInstrs()), kNoSite);
        SiteId &id = _byMethod[static_cast<size_t>(*slot)]
                              [static_cast<size_t>(instr_idx)];
        if (id == kNoSite) {
            id = static_cast<SiteId>(_sites.size());
            _sites.push_back({method, instr_idx});
        }
        return id;
    }

    /** Look up an existing site without creating it; kNoSite if absent. */
    SiteId
    find(const air::Method *method, int instr_idx) const
    {
        const int *slot = _methodSlot.find(method);
        return slot ? _byMethod[static_cast<size_t>(*slot)]
                               [static_cast<size_t>(instr_idx)]
                    : kNoSite;
    }

    const air::Method *methodOf(SiteId id) const
    {
        return _sites[id].first;
    }
    int instrOf(SiteId id) const { return _sites[id].second; }

    std::string
    toString(SiteId id) const
    {
        if (id == kNoSite)
            return "<none>";
        return _sites[id].first->qualifiedName() + "@" +
               std::to_string(_sites[id].second);
    }

    size_t size() const { return _sites.size(); }

  private:
    std::vector<std::pair<const air::Method *, int>> _sites;
    //! per method with a site: its row of site ids by instruction
    //! (kNoSite = not interned), so a lookup hashes only the method
    util::FlatMap<const air::Method *, int> _methodSlot;
    std::vector<std::vector<SiteId>> _byMethod;
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_SITES_HH
