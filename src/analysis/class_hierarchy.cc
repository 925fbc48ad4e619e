#include "class_hierarchy.hh"

#include <algorithm>

namespace sierra::analysis {

ClassHierarchy::ClassHierarchy(const air::Module &module) : _module(module)
{
    const air::NameTable &names = module.names();
    const size_t num_names = names.size();
    const auto &classes = module.classes();
    _classIndex.assign(num_names, -1);
    for (size_t i = 0; i < classes.size(); ++i)
        _classIndex[classes[i]->name().id()] = static_cast<int>(i);

    // For every class, the set of transitive supertypes: a worklist
    // over the super chain and interfaces, deduplicated by a per-class
    // stamp on the name ids.
    std::vector<uint32_t> stamp(num_names, 0);
    std::vector<const air::Klass *> work;
    _superStart.reserve(classes.size() + 1);
    for (size_t ci = 0; ci < classes.size(); ++ci) {
        const uint32_t mark = static_cast<uint32_t>(ci) + 1;
        const size_t start = _superIds.size();
        _superStart.push_back(static_cast<uint32_t>(start));
        auto visit = [&](air::Name n) {
            if (n.empty() || stamp[n.id()] == mark)
                return;
            stamp[n.id()] = mark;
            _superIds.push_back(n.id());
            // An unknown supertype keeps its name, so subtype tests
            // against it still succeed.
            if (_classIndex[n.id()] >= 0)
                work.push_back(classes[_classIndex[n.id()]]);
        };
        visit(classes[ci]->name());
        while (!work.empty()) {
            const air::Klass *cur = work.back();
            work.pop_back();
            visit(cur->superName());
            for (air::Name iface : cur->interfaces())
                visit(iface);
        }
        std::sort(_superIds.begin() + static_cast<ptrdiff_t>(start),
                  _superIds.end());
    }
    _superStart.push_back(static_cast<uint32_t>(_superIds.size()));

    // Invert into concrete-subtype lists (counting sort over the name
    // ids), preserving module order for determinism.
    _subStart.assign(num_names + 1, 0);
    for (size_t ci = 0; ci < classes.size(); ++ci) {
        if (classes[ci]->isInterface())
            continue;
        for (uint32_t s = _superStart[ci]; s < _superStart[ci + 1]; ++s)
            ++_subStart[_superIds[s] + 1];
    }
    for (size_t i = 0; i < num_names; ++i)
        _subStart[i + 1] += _subStart[i];
    _subtypes.resize(_subStart[num_names]);
    std::vector<uint32_t> fill(_subStart.begin(), _subStart.end() - 1);
    for (size_t ci = 0; ci < classes.size(); ++ci) {
        if (classes[ci]->isInterface())
            continue;
        for (uint32_t s = _superStart[ci]; s < _superStart[ci + 1]; ++s)
            _subtypes[fill[_superIds[s]]++] = classes[ci];
    }
}

bool
ClassHierarchy::isSubtypeOf(std::string_view sub,
                            std::string_view super) const
{
    if (sub == super)
        return true;
    const air::NameTable &names = _module.names();
    const uint32_t sub_id = names.idOf(sub);
    const uint32_t super_id = names.idOf(super);
    if (sub_id >= _classIndex.size() || _classIndex[sub_id] < 0 ||
        super_id == air::Name::kNoId)
        return false;
    const size_t ci = static_cast<size_t>(_classIndex[sub_id]);
    return std::binary_search(_superIds.begin() + _superStart[ci],
                              _superIds.begin() + _superStart[ci + 1],
                              super_id);
}

template <typename C, typename M>
air::Method *
ClassHierarchy::dispatch(C class_name, M method_name) const
{
    const air::Klass *k = _module.getClass(class_name);
    while (k) {
        if (air::Method *m = k->findMethod(method_name))
            return m;
        if (k->superName().empty())
            return nullptr;
        k = _module.getClass(k->superName());
    }
    return nullptr;
}

air::Method *
ClassHierarchy::resolveVirtual(air::Name class_name,
                               air::Name method_name) const
{
    return dispatch(class_name, method_name);
}

air::Method *
ClassHierarchy::resolveVirtual(std::string_view class_name,
                               std::string_view method_name) const
{
    return dispatch(class_name, method_name);
}

air::Method *
ClassHierarchy::resolveVirtual(std::string_view class_name,
                               air::Name method_name) const
{
    return dispatch(class_name, method_name);
}

std::span<const air::Klass *const>
ClassHierarchy::concreteSubtypesById(uint32_t id) const
{
    if (id >= _subStart.size() - 1)
        return {};
    return {_subtypes.data() + _subStart[id],
            _subStart[id + 1] - _subStart[id]};
}

template <typename N>
const air::Klass *
ClassHierarchy::declaringClass(N class_name, N field_name) const
{
    const air::Klass *k = _module.getClass(class_name);
    while (k) {
        if (k->findField(field_name))
            return k;
        if (k->superName().empty())
            return nullptr;
        k = _module.getClass(k->superName());
    }
    return nullptr;
}

const air::Field *
ClassHierarchy::resolveField(air::Name class_name,
                             air::Name field_name) const
{
    const air::Klass *k = declaringClass(class_name, field_name);
    return k ? k->findField(field_name) : nullptr;
}

const air::Field *
ClassHierarchy::resolveField(std::string_view class_name,
                             std::string_view field_name) const
{
    const air::Klass *k = declaringClass(class_name, field_name);
    return k ? k->findField(field_name) : nullptr;
}

air::Name
ClassHierarchy::declaringClassOfField(air::Name class_name,
                                      air::Name field_name) const
{
    const air::Klass *k = declaringClass(class_name, field_name);
    return k ? k->name() : air::Name();
}

air::Name
ClassHierarchy::declaringClassOfField(std::string_view class_name,
                                      std::string_view field_name) const
{
    const air::Klass *k = declaringClass(class_name, field_name);
    return k ? k->name() : air::Name();
}

} // namespace sierra::analysis
