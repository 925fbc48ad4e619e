#include "class_hierarchy.hh"

#include <algorithm>
#include <unordered_set>

#include "air/logging.hh"

namespace sierra::analysis {

const std::vector<const air::Klass *> ClassHierarchy::_empty;

ClassHierarchy::ClassHierarchy(const air::Module &module) : _module(module)
{
    // Compute, for every class, the set of transitive supertypes.
    for (const air::Klass *k : module.classes()) {
        std::vector<std::string> supers;
        std::unordered_set<std::string> seen;
        // Worklist over the super chain and interfaces.
        std::vector<const air::Klass *> work{k};
        std::vector<std::string> unresolved;
        while (!work.empty()) {
            const air::Klass *cur = work.back();
            work.pop_back();
            if (!seen.insert(cur->name()).second)
                continue;
            supers.push_back(cur->name());
            auto push_name = [&](const std::string &n) {
                if (n.empty() || seen.count(n))
                    return;
                const air::Klass *s = module.getClass(n);
                if (s) {
                    work.push_back(s);
                } else if (seen.insert(n).second) {
                    // Unknown supertype: keep the name itself so subtype
                    // tests against it still succeed.
                    supers.push_back(n);
                }
            };
            push_name(cur->superName());
            for (const auto &iface : cur->interfaces())
                push_name(iface);
        }
        _supers[k->name()] = std::move(supers);
    }

    // Invert into concrete-subtype lists, preserving module order for
    // determinism.
    for (const air::Klass *k : module.classes()) {
        if (k->isInterface())
            continue;
        for (const auto &super : _supers[k->name()])
            _concreteSubtypes[super].push_back(k);
    }
}

bool
ClassHierarchy::isSubtypeOf(const std::string &sub,
                            const std::string &super) const
{
    if (sub == super)
        return true;
    auto it = _supers.find(sub);
    if (it == _supers.end())
        return false;
    return std::find(it->second.begin(), it->second.end(), super) !=
           it->second.end();
}

air::Method *
ClassHierarchy::resolveVirtual(const std::string &class_name,
                               const std::string &method_name) const
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
ClassHierarchy::resolveStatic(const std::string &class_name,
                              const std::string &method_name) const
{
    return resolveVirtual(class_name, method_name);
}

const std::vector<const air::Klass *> &
ClassHierarchy::concreteSubtypes(const std::string &name) const
{
    auto it = _concreteSubtypes.find(name);
    return it == _concreteSubtypes.end() ? _empty : it->second;
}

const air::Field *
ClassHierarchy::resolveField(const std::string &class_name,
                             const std::string &field_name) const
{
    const air::Klass *k = _module.getClass(class_name);
    while (k) {
        if (const air::Field *f = k->findField(field_name))
            return f;
        if (k->superName().empty())
            return nullptr;
        k = _module.getClass(k->superName());
    }
    return nullptr;
}

std::string
ClassHierarchy::declaringClassOfField(const std::string &class_name,
                                      const std::string &field_name) const
{
    const std::string *decl =
        findDeclaringClassOfField(class_name, field_name);
    return decl ? *decl : std::string();
}

const std::string *
ClassHierarchy::findDeclaringClassOfField(const std::string &class_name,
                                          const std::string &field_name) const
{
    const air::Klass *k = _module.getClass(class_name);
    while (k) {
        if (k->findField(field_name))
            return &k->name();
        if (k->superName().empty())
            return nullptr;
        k = _module.getClass(k->superName());
    }
    return nullptr;
}

} // namespace sierra::analysis
