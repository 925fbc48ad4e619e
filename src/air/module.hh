/**
 * @file
 * AIR module: the unit of analysis, holding all classes of one app plus
 * the framework model classes.
 */

#ifndef SIERRA_AIR_MODULE_HH
#define SIERRA_AIR_MODULE_HH

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "klass.hh"
#include "name.hh"
#include "util/arena.hh"
#include "util/flat_map.hh"

namespace sierra::air {

/**
 * A closed world of classes.
 *
 * Iteration order over classes is insertion order, which keeps every
 * downstream analysis deterministic. The module owns the name table
 * every AIR name of its classes is interned in, and the arena that
 * backs method bodies and instruction register lists.
 */
class Module
{
  public:
    Module() = default;
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;
    ~Module();

    /** The module's names. Interning is for the module's builders
     *  (parser, MethodBuilder, framework model, harness generator),
     *  before any analysis reads the module. */
    NameTable &names() { return _names; }
    const NameTable &names() const { return _names; }
    Name intern(std::string_view s) { return _names.intern(s); }
    FieldRef
    fieldRef(std::string_view class_name, std::string_view field_name)
    {
        return {intern(class_name), intern(field_name)};
    }
    MethodRef
    methodRef(std::string_view class_name, std::string_view method_name,
              int num_args = 0)
    {
        return {intern(class_name), intern(method_name), num_args};
    }
    /** A copy of `regs` in the module arena, for Instruction::srcs. */
    RegList regs(const int *data, size_t n);
    RegList
    regs(std::initializer_list<int> list)
    {
        return regs(list.begin(), list.size());
    }

    /** Create and register a class; fatal() on duplicates. */
    Klass *addClass(std::string_view name, std::string_view super_name = {});
    Klass *addClass(Name name, Name super_name);

    /** Look up a class by name; null if absent. A handle this module
     *  interned is one index, with no hashing. */
    Klass *getClass(Name name) const { return classById(_names.idOf(name)); }
    Klass *
    getClass(std::string_view name) const
    {
        return classById(_names.idOf(name));
    }

    /** Look up a class by name; fatal() if absent. */
    Klass *requireClass(std::string_view name) const;

    /** Resolve "ClassName.method"; null if either part is absent. */
    Method *findMethod(std::string_view class_name,
                       std::string_view method_name) const;

    const std::vector<Klass *> &classes() const { return _order; }
    size_t numClasses() const { return _order.size(); }

    /**
     * Approximate "bytecode size" of the module in bytes: the length of
     * its textual serialization. Used as the Table 2 dex-size analogue.
     */
    size_t codeSize() const;

    /** Arena backing all method bodies (for the `air.arena_bytes`
     *  metric). */
    const util::Arena &arena() const { return _arena; }

  private:
    friend class Klass;

    Klass *
    classById(uint32_t id) const
    {
        return id < _classById.size() ? _classById[id] : nullptr;
    }
    /** The method named `method_id` declared on the class named
     *  `class_id` (both ids in this module's table); null if none. */
    Method *methodById(uint32_t class_id, uint32_t method_id) const;
    /** Record a method in the (class, method) index. */
    void indexMethod(Name class_name, Method *method);

    // The arena is declared first so it is destroyed last: it holds
    // the classes and methods themselves, which ~Module destroys.
    util::Arena _arena;
    NameTable _names;
    //! classes in insertion order; they live in the arena, and
    //! ~Module runs their destructors
    std::vector<Klass *> _order;
    //! class-name id -> class (null for names that are no class)
    std::vector<Klass *> _classById;
    //! (class-name id << 32 | method-name id) -> method
    util::FlatMap<uint64_t, Method *> _methods;
};

} // namespace sierra::air

#endif // SIERRA_AIR_MODULE_HH
