/**
 * @file
 * Class hierarchy analysis: subtype tests and virtual dispatch.
 */

#ifndef SIERRA_ANALYSIS_CLASS_HIERARCHY_HH
#define SIERRA_ANALYSIS_CLASS_HIERARCHY_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "air/module.hh"

namespace sierra::analysis {

/**
 * Precomputed hierarchy facts over one module.
 *
 * Both class extension and interface implementation feed the subtype
 * relation; dispatch resolution walks the superclass chain only (AIR
 * interfaces carry no default methods).
 */
class ClassHierarchy
{
  public:
    explicit ClassHierarchy(const air::Module &module);

    const air::Module &module() const { return _module; }

    /** True if `sub` equals or transitively derives from/implements
     *  `super`. Unknown classes are only subtypes of themselves. */
    bool isSubtypeOf(const std::string &sub,
                     const std::string &super) const;

    /**
     * Resolve a virtual dispatch of `method_name` on a receiver of
     * dynamic class `class_name`: the first body up the super chain.
     * @return null when no declaration is found.
     */
    air::Method *resolveVirtual(const std::string &class_name,
                                const std::string &method_name) const;

    /** Resolve a static call: declaration on the class or a super. */
    air::Method *resolveStatic(const std::string &class_name,
                               const std::string &method_name) const;

    /** All concrete (non-interface) classes that are subtypes of the
     *  given class/interface, including itself when concrete. */
    const std::vector<const air::Klass *> &
    concreteSubtypes(const std::string &name) const;

    /** Find a field on the class or a super class; null if absent. */
    const air::Field *resolveField(const std::string &class_name,
                                   const std::string &field_name) const;

    /** The class (walking supers) that declares the given field; empty
     *  string when unresolved. Used to canonicalize field locations. */
    std::string declaringClassOfField(const std::string &class_name,
                                      const std::string &field_name) const;
    /** The name of that declaring class without a copy; null when
     *  unresolved. */
    const std::string *
    findDeclaringClassOfField(const std::string &class_name,
                              const std::string &field_name) const;

  private:
    const air::Module &_module;
    //! class -> all transitive supertypes (classes + interfaces), incl. self
    std::unordered_map<std::string, std::vector<std::string>> _supers;
    //! type -> concrete subtypes
    mutable std::unordered_map<std::string,
                               std::vector<const air::Klass *>>
        _concreteSubtypes;
    static const std::vector<const air::Klass *> _empty;
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_CLASS_HIERARCHY_HH
