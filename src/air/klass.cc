#include "klass.hh"

#include "logging.hh"
#include "module.hh"

namespace sierra::air {

std::string
Method::qualifiedName() const
{
    return dotted(_owner->name(), _name);
}

MethodRef
Method::ref() const
{
    MethodRef r;
    r.className = _owner->name();
    r.methodName = _name;
    r.numArgs = numParams() + (_isStatic ? 0 : 1);
    return r;
}

Klass::Klass(Module &module, Name name, Name super_name)
    : _module(&module), _name(name), _superName(super_name),
      _isFramework(name.view().starts_with("android.") ||
                   name.view().starts_with("java.")),
      _interfaces(&module._arena), _fields(&module._arena),
      _methods(&module._arena)
{
}

Klass::~Klass()
{
    for (Method *m : _methods)
        m->~Method();
}

void
Klass::setSuperName(std::string_view s)
{
    _superName = _module->intern(s);
}

void
Klass::addInterface(std::string_view iface)
{
    _interfaces.push_back(_module->intern(iface));
}

void
Klass::addInterface(Name iface)
{
    _interfaces.push_back(_module->names().intern(iface));
}

void
Klass::addField(FieldDecl f)
{
    _fields.push_back({_module->intern(f.name), std::move(f.type),
                       f.isStatic});
}

const Field *
Klass::findField(Name name) const
{
    for (const auto &f : _fields) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

const Field *
Klass::findField(std::string_view name) const
{
    for (const auto &f : _fields) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

Method *
Klass::addMethod(std::string_view name, std::vector<Type> param_types,
                 Type return_type, bool is_static)
{
    return addMethod(_module->intern(name), std::move(param_types),
                     std::move(return_type), is_static);
}

Method *
Klass::addMethod(Name name, std::vector<Type> param_types,
                 Type return_type, bool is_static)
{
    Name n = _module->names().intern(name);
    if (findMethod(n))
        fatal("duplicate method ", _name, ".", name);
    util::Arena &arena = _module->_arena;
    Method *m = new (arena.allocate(sizeof(Method), alignof(Method)))
        Method(this, n, std::move(param_types), std::move(return_type),
               is_static, &arena);
    _module->indexMethod(_name, m);
    _methods.push_back(m);
    return m;
}

Method *
Klass::findMethod(Name name) const
{
    return _module->methodById(_name.id(), _module->names().idOf(name));
}

Method *
Klass::findMethod(std::string_view name) const
{
    return _module->methodById(_name.id(), _module->names().idOf(name));
}

} // namespace sierra::air
