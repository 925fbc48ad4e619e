#include "module.hh"

#include <cstring>

#include "logging.hh"
#include "printer.hh"

namespace sierra::air {

namespace {

uint64_t
packIds(uint32_t class_id, uint32_t method_id)
{
    return (static_cast<uint64_t>(class_id) << 32) | method_id;
}

} // namespace

Module::~Module()
{
    for (Klass *k : _order)
        k->~Klass();
}

RegList
Module::regs(const int *data, size_t n)
{
    if (n == 0)
        return {};
    int *copy = _arena.allocArray<int>(n);
    std::memcpy(copy, data, n * sizeof(int));
    return {copy, static_cast<uint32_t>(n)};
}

Klass *
Module::addClass(std::string_view name, std::string_view super_name)
{
    return addClass(intern(name), intern(super_name));
}

Klass *
Module::addClass(Name name, Name super_name)
{
    Name n = _names.intern(name);
    if (getClass(n))
        fatal("duplicate class ", n);
    Klass *k = new (_arena.allocate(sizeof(Klass), alignof(Klass)))
        Klass(*this, n, _names.intern(super_name));
    if (_classById.size() <= n.id())
        _classById.resize(n.id() + 1, nullptr);
    _classById[n.id()] = k;
    _order.push_back(k);
    return k;
}

Klass *
Module::requireClass(std::string_view name) const
{
    Klass *k = getClass(name);
    if (!k)
        fatal("unknown class ", name);
    return k;
}

Method *
Module::methodById(uint32_t class_id, uint32_t method_id) const
{
    if (method_id == Name::kNoId)
        return nullptr;
    Method *const *m = _methods.find(packIds(class_id, method_id));
    return m ? *m : nullptr;
}

void
Module::indexMethod(Name class_name, Method *method)
{
    _methods.tryEmplace(packIds(class_name.id(), method->name().id()),
                        method);
}

Method *
Module::findMethod(std::string_view class_name,
                   std::string_view method_name) const
{
    return methodById(_names.idOf(class_name), _names.idOf(method_name));
}

size_t
Module::codeSize() const
{
    return printModule(*this).size();
}

} // namespace sierra::air
