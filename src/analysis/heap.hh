/**
 * @file
 * Abstract heap objects for the pointer analysis.
 */

#ifndef SIERRA_ANALYSIS_HEAP_HH
#define SIERRA_ANALYSIS_HEAP_HH

#include <string>
#include <string_view>
#include <vector>

#include "context.hh"
#include "sites.hh"
#include "util/flat_map.hh"

namespace sierra::analysis {

/** Interned abstract object id; ids start at 0. */
using ObjId = int;

/** Flavors of abstract heap objects. */
enum class ObjKind {
    Site,         //!< allocation-site object under a heap context
    InflatedView, //!< view inflated from layout XML, keyed by view id
                  //!< (the paper's InflatedViewContext, Section 3.3)
    Singleton,    //!< framework singleton, e.g. the main Looper
    Synthetic,    //!< per-action payloads (messages, intents)
};

/** One abstract heap object. */
struct HeapObject {
    ObjKind kind{ObjKind::Site};
    std::string klassName; //!< dynamic type used for dispatch
    SiteId site{kNoSite};  //!< allocation site (Site/Synthetic kinds)
    CtxId heapCtx{kEmptyCtx};
    int viewId{-1};        //!< InflatedView key
    int singletonKey{-1};  //!< Singleton key
    //! dense id of klassName in its table (a function of klassName,
    //! so not part of the object's identity)
    int classId{-1};

    bool operator==(const HeapObject &o) const
    {
        return kind == o.kind && klassName == o.klassName &&
               site == o.site && heapCtx == o.heapCtx &&
               viewId == o.viewId && singletonKey == o.singletonKey;
    }
};

/** Well-known singleton keys. */
enum SingletonKey {
    kMainLooper = 1,
    kSystemIntent = 2, //!< the intent delivered to broadcast receivers
    //! base for per-HandlerThread loopers: key = base + thread ObjId
    kHandlerThreadLooperBase = 1000,
};

/** Interning table for abstract objects. */
class ObjectTable
{
  public:
    ObjId
    intern(const HeapObject &obj)
    {
        return intern(obj.kind, obj.klassName, obj.site, obj.heapCtx,
                      obj.viewId, obj.singletonKey);
    }
    const HeapObject &get(ObjId id) const { return _objects[id]; }

    ObjId
    siteObject(std::string_view klass, SiteId site, CtxId heap_ctx)
    {
        return intern(ObjKind::Site, klass, site, heap_ctx, -1, -1);
    }

    ObjId
    inflatedView(std::string_view klass, int view_id)
    {
        return intern(ObjKind::InflatedView, klass, kNoSite, kEmptyCtx,
                      view_id, -1);
    }

    ObjId
    singleton(std::string_view klass, int key)
    {
        return intern(ObjKind::Singleton, klass, kNoSite, kEmptyCtx, -1,
                      key);
    }

    ObjId
    syntheticObject(std::string_view klass, SiteId site)
    {
        return intern(ObjKind::Synthetic, klass, site, kEmptyCtx, -1, -1);
    }

    std::string toString(ObjId id, const SiteTable &sites) const;

    size_t size() const { return _objects.size(); }

  private:
    /** The object with these fields, interned when new; a lookup that
     *  finds it allocates nothing. */
    ObjId intern(ObjKind kind, std::string_view klass, SiteId site,
                 CtxId heap_ctx, int view_id, int singleton_key);

    std::vector<HeapObject> _objects;
    util::IdIndex _index;
    std::vector<std::string> _classNames;
    util::IdIndex _classIndex;
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_HEAP_HH
