#include "type.hh"

#include "logging.hh"

namespace sierra::air {

std::string
Type::toString() const
{
    switch (_kind) {
      case TypeKind::Void: return "void";
      case TypeKind::Int: return "int";
      case TypeKind::Bool: return "bool";
      case TypeKind::Str: return "str";
      case TypeKind::Object: return _name;
      case TypeKind::Array:
        return (_name.empty() ? std::string("int") : _name) + "[]";
    }
    panic("unreachable type kind");
}

Type
Type::parse(std::string_view text)
{
    if (text == "void")
        return voidTy();
    if (text == "int")
        return intTy();
    if (text == "bool")
        return boolTy();
    if (text == "str")
        return strTy();
    if (text.size() > 2 && text.substr(text.size() - 2) == "[]") {
        std::string_view elem = text.substr(0, text.size() - 2);
        return array(elem == "int" ? std::string() : std::string(elem));
    }
    if (text.empty())
        fatal("cannot parse empty type");
    return object(std::string(text));
}

} // namespace sierra::air
