/**
 * @file
 * AIR class definitions.
 */

#ifndef SIERRA_AIR_KLASS_HH
#define SIERRA_AIR_KLASS_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "method.hh"
#include "name.hh"
#include "type.hh"

namespace sierra::air {

/** An instance or static field declaration. */
struct Field {
    Name name;
    Type type;
    bool isStatic{false};
};

/** A field to declare (Klass::addField interns its name). */
struct FieldDecl {
    std::string_view name;
    Type type;
    bool isStatic{false};
};

class Module;

/**
 * An AIR class: name, super class, interfaces, fields and methods.
 *
 * Named Klass to sidestep the keyword; instances are owned by a Module,
 * whose name table interns every name the class declares and whose
 * arena holds the class, its lists, its methods and their bodies.
 */
class Klass
{
  public:
    Klass(Module &module, Name name, Name super_name);
    ~Klass();
    Klass(const Klass &) = delete;
    Klass &operator=(const Klass &) = delete;

    Module &module() const { return *_module; }

    Name name() const { return _name; }
    Name superName() const { return _superName; }
    void setSuperName(std::string_view s);

    const util::ArenaVector<Name> &interfaces() const
    {
        return _interfaces;
    }
    void addInterface(std::string_view iface);
    void addInterface(Name iface);

    bool isInterface() const { return _isInterface; }
    void setInterface(bool v) { _isInterface = v; }
    /** True for classes synthesized by the harness generator. */
    bool isSynthetic() const { return _isSynthetic; }
    void setSynthetic(bool v) { _isSynthetic = v; }
    /** True for Android framework model classes (android.* etc.). */
    bool isFramework() const { return _isFramework; }

    const util::ArenaVector<Field> &fields() const { return _fields; }
    void addField(FieldDecl f);
    /** Find a field declared directly on this class; null if absent. */
    const Field *findField(Name name) const;
    const Field *findField(std::string_view name) const;

    /** Create and register a method; returns a stable pointer. */
    Method *addMethod(std::string_view name, std::vector<Type> param_types,
                      Type return_type, bool is_static);
    Method *addMethod(Name name, std::vector<Type> param_types,
                      Type return_type, bool is_static);

    /** Find a method declared directly on this class; null if absent.
     *  One probe of the module's (class, method) index. */
    Method *findMethod(Name name) const;
    Method *findMethod(std::string_view name) const;

    const util::ArenaVector<Method *> &methods() const { return _methods; }

  private:
    Module *_module;
    Name _name;
    Name _superName;
    bool _isFramework;
    bool _isInterface{false};
    bool _isSynthetic{false};
    // Lists and methods live in the module arena; ~Klass runs the
    // method destructors.
    util::ArenaVector<Name> _interfaces;
    util::ArenaVector<Field> _fields;
    util::ArenaVector<Method *> _methods;
};

} // namespace sierra::air

#endif // SIERRA_AIR_KLASS_HH
