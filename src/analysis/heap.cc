#include "heap.hh"

#include "air/logging.hh"

namespace sierra::analysis {

ObjId
ObjectTable::intern(ObjKind kind, std::string_view klass, SiteId site,
                    CtxId heap_ctx, int view_id, int singleton_key)
{
    uint64_t h = util::hashMix(0, static_cast<uint64_t>(kind));
    h = util::hashMix(h, std::hash<std::string_view>()(klass));
    h = util::hashMix(h, static_cast<uint64_t>(site));
    h = util::hashMix(h, static_cast<uint64_t>(heap_ctx));
    h = util::hashMix(h, static_cast<uint64_t>(view_id));
    h = util::hashMix(h, static_cast<uint64_t>(singleton_key));
    int found = _index.find(h, [&](int id) {
        const HeapObject &o = _objects[static_cast<size_t>(id)];
        return o.kind == kind && o.klassName == klass && o.site == site &&
               o.heapCtx == heap_ctx && o.viewId == view_id &&
               o.singletonKey == singleton_key;
    });
    if (found >= 0)
        return found;
    const uint64_t ch = std::hash<std::string_view>()(klass);
    int class_id = _classIndex.find(ch, [&](int c) {
        return _classNames[static_cast<size_t>(c)] == klass;
    });
    if (class_id < 0) {
        class_id = static_cast<int>(_classNames.size());
        _classNames.emplace_back(klass);
        _classIndex.insert(ch, class_id);
    }
    ObjId id = static_cast<ObjId>(_objects.size());
    _objects.push_back({kind, std::string(klass), site, heap_ctx, view_id,
                        singleton_key, class_id});
    _index.insert(h, id);
    return id;
}

std::string
ObjectTable::toString(ObjId id, const SiteTable &sites) const
{
    const HeapObject &o = get(id);
    switch (o.kind) {
      case ObjKind::Site:
        return strCat(o.klassName, "@", sites.toString(o.site));
      case ObjKind::InflatedView:
        return strCat(o.klassName, "#view", o.viewId);
      case ObjKind::Singleton:
        return strCat(o.klassName, "#singleton", o.singletonKey);
      case ObjKind::Synthetic:
        return strCat(o.klassName, "#synthetic@", sites.toString(o.site));
    }
    panic("unreachable obj kind");
}

} // namespace sierra::analysis
