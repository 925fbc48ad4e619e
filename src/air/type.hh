/**
 * @file
 * AIR type system.
 *
 * AIR (Android-like IR) uses a deliberately small type lattice: the
 * analyses in this library care about reference identity (for points-to),
 * integers/booleans (for symbolic guards) and strings (for message
 * payloads), which is exactly what the SIERRA paper's analyses consume.
 */

#ifndef SIERRA_AIR_TYPE_HH
#define SIERRA_AIR_TYPE_HH

#include <string>
#include <string_view>

namespace sierra::air {

/** Coarse type kinds used by AIR values and fields. */
enum class TypeKind {
    Void,
    Int,
    Bool,
    Str,
    Object, //!< a class reference; Type::name holds the class name
    Array,  //!< an array; Type::name holds the element class name ("" = int)
};

/**
 * A value type in the AIR type system.
 *
 * Types are small value objects; object types carry their class name.
 */
class Type
{
  public:
    Type() : _kind(TypeKind::Void) {}
    Type(TypeKind kind, std::string name = "")
        : _kind(kind), _name(std::move(name)) {}

    static Type voidTy() { return Type(TypeKind::Void); }
    static Type intTy() { return Type(TypeKind::Int); }
    static Type boolTy() { return Type(TypeKind::Bool); }
    static Type strTy() { return Type(TypeKind::Str); }
    static Type object(std::string class_name)
    {
        return Type(TypeKind::Object, std::move(class_name));
    }
    static Type array(std::string elem_class)
    {
        return Type(TypeKind::Array, std::move(elem_class));
    }

    TypeKind kind() const { return _kind; }
    /** Class name for Object types, element class for Array types. */
    const std::string &name() const { return _name; }

    bool isVoid() const { return _kind == TypeKind::Void; }
    bool isPrimitive() const
    {
        return _kind == TypeKind::Int || _kind == TypeKind::Bool;
    }
    bool isReference() const
    {
        return _kind == TypeKind::Object || _kind == TypeKind::Array ||
               _kind == TypeKind::Str;
    }

    bool operator==(const Type &other) const
    {
        return _kind == other._kind && _name == other._name;
    }
    bool operator!=(const Type &other) const { return !(*this == other); }

    /** Render the type in AIR textual syntax, e.g. "int" or "Foo[]". */
    std::string toString() const;

    /** Parse a type from AIR textual syntax; fatal() on bad input. */
    static Type parse(std::string_view text);

  private:
    TypeKind _kind;
    std::string _name;
};

} // namespace sierra::air

#endif // SIERRA_AIR_TYPE_HH
