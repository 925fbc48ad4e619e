#include "name.hh"

namespace sierra::air {

constinit const NameEntry Name::kEmpty{std::string(), hashNameBytes({}),
                                       Name::kNoId, nullptr};

std::string
dotted(Name a, Name b)
{
    std::string out;
    out.reserve(a.size() + 1 + b.size());
    out += a.view();
    out += '.';
    out += b.view();
    return out;
}

uint32_t
NameTable::find(std::string_view s, uint64_t hash) const
{
    int id = _index.find(hash, [&](int cand) {
        return at(static_cast<uint32_t>(cand)).view() == s;
    });
    return id < 0 ? Name::kNoId : static_cast<uint32_t>(id);
}

uint32_t
NameTable::idOf(std::string_view s) const
{
    return s.empty() ? Name::kNoId : find(s, hashNameBytes(s));
}

Name
NameTable::add(std::string_view s, uint64_t hash)
{
    const uint32_t id = _size++;
    if ((id & kChunkMask) == 0)
        _chunks.push_back(std::make_unique<NameEntry[]>(kChunkMask + 1));
    NameEntry &e = _chunks[id >> kChunkBits][id & kChunkMask];
    e.text.assign(s);
    e.hash = hash;
    e.id = id;
    e.table = this;
    _index.insert(hash, static_cast<int>(id));
    return Name(&e);
}

Name
NameTable::intern(std::string_view s)
{
    if (s.empty())
        return Name();
    const uint64_t hash = hashNameBytes(s);
    const uint32_t id = find(s, hash);
    return id != Name::kNoId ? at(id) : add(s, hash);
}

Name
NameTable::intern(Name n)
{
    if (n.table() == this || n.empty())
        return n;
    const uint32_t id = find(n.view(), n.hash());
    return id != Name::kNoId ? at(id) : add(n.view(), n.hash());
}

} // namespace sierra::air
