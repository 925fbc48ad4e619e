/**
 * @file
 * Class hierarchy analysis: subtype tests and virtual dispatch.
 */

#ifndef SIERRA_ANALYSIS_CLASS_HIERARCHY_HH
#define SIERRA_ANALYSIS_CLASS_HIERARCHY_HH

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "air/module.hh"

namespace sierra::analysis {

/**
 * Precomputed hierarchy facts over one module.
 *
 * Both class extension and interface implementation feed the subtype
 * relation; dispatch resolution walks the superclass chain only (AIR
 * interfaces carry no default methods).
 *
 * Every table is dense over the module's name ids and copies no
 * string: a query by handle indexes directly, a query by string looks
 * the name up in the module's table once. Names interned after
 * construction are unknown to the hierarchy (the module is complete by
 * the time an analysis builds one).
 */
class ClassHierarchy
{
  public:
    explicit ClassHierarchy(const air::Module &module);

    const air::Module &module() const { return _module; }

    /** True if `sub` equals or transitively derives from/implements
     *  `super`. Unknown classes are only subtypes of themselves. */
    bool isSubtypeOf(std::string_view sub, std::string_view super) const;

    /**
     * Resolve a virtual dispatch of `method_name` on a receiver of
     * dynamic class `class_name`: the first body up the super chain.
     * @return null when no declaration is found.
     */
    air::Method *resolveVirtual(air::Name class_name,
                                air::Name method_name) const;
    air::Method *resolveVirtual(std::string_view class_name,
                                std::string_view method_name) const;
    air::Method *resolveVirtual(std::string_view class_name,
                                air::Name method_name) const;

    /** Resolve a static call: declaration on the class or a super. */
    air::Method *
    resolveStatic(air::Name class_name, air::Name method_name) const
    {
        return resolveVirtual(class_name, method_name);
    }
    air::Method *
    resolveStatic(std::string_view class_name,
                  std::string_view method_name) const
    {
        return resolveVirtual(class_name, method_name);
    }

    /** All concrete (non-interface) classes that are subtypes of the
     *  given class/interface, including itself when concrete, in
     *  module order. */
    std::span<const air::Klass *const>
    concreteSubtypes(air::Name name) const
    {
        return concreteSubtypesById(_module.names().idOf(name));
    }
    std::span<const air::Klass *const>
    concreteSubtypes(std::string_view name) const
    {
        return concreteSubtypesById(_module.names().idOf(name));
    }

    /** Find a field on the class or a super class; null if absent. */
    const air::Field *resolveField(air::Name class_name,
                                   air::Name field_name) const;
    const air::Field *resolveField(std::string_view class_name,
                                   std::string_view field_name) const;

    /** The class (walking supers) that declares the given field; the
     *  empty name when unresolved. Used to canonicalize field
     *  locations. */
    air::Name declaringClassOfField(air::Name class_name,
                                    air::Name field_name) const;
    air::Name declaringClassOfField(std::string_view class_name,
                                    std::string_view field_name) const;

  private:
    std::span<const air::Klass *const> concreteSubtypesById(uint32_t id) const;

    template <typename N>
    const air::Klass *declaringClass(N class_name, N field_name) const;
    template <typename C, typename M>
    air::Method *dispatch(C class_name, M method_name) const;

    const air::Module &_module;
    //! name id -> index of its class in module order, or -1
    std::vector<int> _classIndex;
    //! class index -> [start, end) in _superIds: every transitive
    //! supertype name id (classes and interfaces, known or not), self
    //! included, sorted
    std::vector<uint32_t> _superStart;
    std::vector<uint32_t> _superIds;
    //! name id -> [start, end) in _subtypes
    std::vector<uint32_t> _subStart;
    std::vector<const air::Klass *> _subtypes;
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_CLASS_HIERARCHY_HH
