#include "store.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "air/klass.hh"
#include "air/method.hh"
#include "framework/app.hh"
#include "framework/known_api.hh"

namespace sierra::analysis::store {

namespace fs = std::filesystem;

uint64_t
fnv64(std::string_view bytes, uint64_t seed)
{
    uint64_t h = seed;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

uint64_t
mixHash(uint64_t acc, uint64_t value)
{
    // Order-dependent: hash the value's bytes into the accumulator.
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    return fnv64(std::string_view(buf, 8), acc);
}

std::string
hashHex(uint64_t value)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

bool
parseHashHex(std::string_view hex, uint64_t &out)
{
    if (hex.size() != 16)
        return false;
    uint64_t value = 0;
    for (char c : hex) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        value = (value << 4) | static_cast<uint64_t>(digit);
    }
    out = value;
    return true;
}

namespace {

/** The bytes `Type::toString` returns, as two views (base, suffix), so
 *  hashing a type builds no string. */
std::pair<std::string_view, std::string_view>
typeText(const air::Type &type)
{
    switch (type.kind()) {
      case air::TypeKind::Void: return {"void", {}};
      case air::TypeKind::Int: return {"int", {}};
      case air::TypeKind::Bool: return {"bool", {}};
      case air::TypeKind::Str: return {"str", {}};
      case air::TypeKind::Object: return {type.name(), {}};
      case air::TypeKind::Array:
        return {type.name().empty() ? std::string_view("int")
                                    : std::string_view(type.name()),
                "[]"};
    }
    return {};
}

/** fnv64 over `type.toString()`, continuing from `h`. */
uint64_t
fnvType(const air::Type &type, uint64_t h)
{
    auto [base, suffix] = typeText(type);
    return fnv64(suffix, fnv64(base, h));
}

} // namespace

uint64_t
classSliceHash(const air::Klass &klass)
{
    // fnv64 of the text
    //   "class|interface NAME extends SUPER\n"
    //   "implements IFACE\n"...  "field [static ]NAME: TYPE\n"...
    // fed piece by piece (FNV-1a is a left fold over the bytes, so the
    // value equals hashing the concatenation).
    uint64_t h = fnv64(klass.isInterface() ? "interface " : "class ");
    h = fnv64(klass.name(), h);
    h = fnv64(" extends ", h);
    h = fnv64(klass.superName(), h);
    h = fnv64("\n", h);
    for (const std::string &iface : klass.interfaces()) {
        h = fnv64("implements ", h);
        h = fnv64(iface, h);
        h = fnv64("\n", h);
    }
    for (const air::Field &f : klass.fields()) {
        h = fnv64(f.isStatic ? "field static " : "field ", h);
        h = fnv64(f.name, h);
        h = fnv64(": ", h);
        h = fnvType(f.type, h);
        h = fnv64("\n", h);
    }
    return h;
}

namespace {

/**
 * Content hash of one method: signature plus every instruction's
 * semantic fields, mixed in order. Hashing the fields directly instead
 * of the printed text discriminates at least as finely (the text is a
 * function of the fields) at a fraction of the cost -- this runs for
 * every method on every submission, warm or cold.
 */
uint64_t
hashMethodBody(const air::Method &method)
{
    uint64_t h = fnv64(method.name());
    for (const air::Type &t : method.paramTypes())
        h = fnvType(t, h);
    h = fnvType(method.returnType(), h);
    h = mixHash(h, method.isStatic() ? 1 : 0);
    h = mixHash(h, static_cast<uint64_t>(method.numRegisters()));
    h = mixHash(h, static_cast<uint64_t>(method.numInstrs()));
    for (int i = 0; i < method.numInstrs(); ++i) {
        const air::Instruction &ins = method.instr(i);
        h = mixHash(h, static_cast<uint64_t>(ins.op));
        h = mixHash(h, static_cast<uint64_t>(ins.dst));
        for (int src : ins.srcs)
            h = mixHash(h, static_cast<uint64_t>(src));
        h = mixHash(h, static_cast<uint64_t>(ins.intValue));
        if (!ins.strValue.empty())
            h = fnv64(ins.strValue, h);
        if (!ins.typeName.empty())
            h = fnv64(ins.typeName, h);
        h = fnv64(ins.field.className, h);
        h = fnv64(ins.field.fieldName, h);
        h = fnv64(ins.method.className, h);
        h = fnv64(ins.method.methodName, h);
        h = mixHash(h, static_cast<uint64_t>(ins.method.numArgs));
        h = mixHash(h, static_cast<uint64_t>(ins.invokeKind));
        h = mixHash(h, static_cast<uint64_t>(ins.cond));
        h = mixHash(h, static_cast<uint64_t>(ins.binop));
        h = mixHash(h, static_cast<uint64_t>(ins.unop));
        h = mixHash(h, static_cast<uint64_t>(ins.target));
    }
    return h;
}

uint64_t
envHashWithSlice(const air::Method &method, uint64_t slice_hash)
{
    uint64_t h = hashMethodBody(method);
    h = mixHash(h, slice_hash);
    h = mixHash(h, static_cast<uint64_t>(
                       framework::kKnownApiTableVersion));
    h = mixHash(h, static_cast<uint64_t>(kStoreSchemaVersion));
    return h;
}

} // namespace

uint64_t
methodEnvHash(const air::Method &method)
{
    return envHashWithSlice(
        method, method.owner() ? classSliceHash(*method.owner()) : 0);
}

// ---------------------------------------------------------------------
// MethodHashTable
// ---------------------------------------------------------------------

MethodHashTable::MethodHashTable(const framework::App &app)
{
    for (const air::Klass *klass : app.module().classes()) {
        if (klass->isFramework())
            continue;
        // One slice hash per class, not per method: the slice is the
        // same for every member.
        const uint64_t slice = classSliceHash(*klass);
        for (const auto &m : klass->methods()) {
            if (m->hasBody())
                _entries.push_back({m->qualifiedName(),
                                    envHashWithSlice(*m, slice), m.get()});
        }
    }
    // Qualified names are unique: a module has one class per name and
    // a class one method per name.
    std::sort(_entries.begin(), _entries.end(),
              [](const MethodHashEntry &a, const MethodHashEntry &b) {
                  return a.name < b.name;
              });
    _byMethod.reserve(_entries.size());
    for (size_t i = 0; i < _entries.size(); ++i)
        _byMethod.emplace_back(_entries[i].method,
                               static_cast<uint32_t>(i));
    std::sort(_byMethod.begin(), _byMethod.end());
}

const MethodHashEntry *
MethodHashTable::find(std::string_view name) const
{
    auto it = std::lower_bound(
        _entries.begin(), _entries.end(), name,
        [](const MethodHashEntry &e, std::string_view n) {
            return std::string_view(e.name) < n;
        });
    if (it == _entries.end() || it->name != name)
        return nullptr;
    return &*it;
}

const MethodHashEntry *
MethodHashTable::find(const air::Method *method) const
{
    auto it = std::lower_bound(
        _byMethod.begin(), _byMethod.end(), method,
        [](const std::pair<const air::Method *, uint32_t> &e,
           const air::Method *m) { return std::less<>()(e.first, m); });
    if (it == _byMethod.end() || it->first != method)
        return nullptr;
    return &_entries[it->second];
}

// ---------------------------------------------------------------------
// Shape hash
// ---------------------------------------------------------------------

namespace {

/** Feeds a shape into one running hash: every string length-prefixed
 *  and every list count-prefixed, so no two shapes share a stream. */
class ShapeHasher
{
  public:
    void num(uint64_t v) { _h = mixHash(_h, v); }
    void
    str(std::string_view s)
    {
        num(s.size());
        _h = fnv64(s, _h);
    }
    /** A type as the printer renders it. */
    void
    type(const air::Type &t)
    {
        auto [base, suffix] = typeText(t);
        num(base.size() + suffix.size());
        _h = fnv64(suffix, fnv64(base, _h));
    }
    template <typename List, typename Fn>
    void
    list(const List &items, Fn &&each)
    {
        num(items.size());
        for (const auto &item : items)
            each(item);
    }
    uint64_t value() const { return _h; }

  private:
    uint64_t _h{fnv64("sierra-shape")};
};

/** A class the body-less bundle print includes. */
bool
inShape(const air::Klass &klass)
{
    return !klass.isFramework() && !klass.isSynthetic();
}

void
hashClassShape(ShapeHasher &s, const air::Klass &klass)
{
    s.num(klass.isInterface());
    s.str(klass.name());
    s.str(klass.superName());
    s.list(klass.interfaces(), [&](const std::string &i) { s.str(i); });
    s.list(klass.fields(), [&](const air::Field &f) {
        s.num(f.isStatic);
        s.str(f.name);
        s.type(f.type);
    });
    s.list(klass.methods(), [&](const std::unique_ptr<air::Method> &m) {
        s.num(m->isStatic());
        s.num(m->isAbstract());
        s.str(m->name());
        s.list(m->paramTypes(), [&](const air::Type &t) { s.type(t); });
        s.type(m->returnType());
        // The printer gives a method "regs=N { }" exactly when it
        // prints a body block.
        const bool block = !m->isAbstract() && m->hasBody();
        s.num(block);
        if (block)
            s.num(static_cast<uint64_t>(m->numRegisters()));
    });
}

} // namespace

uint64_t
shapeHash(const framework::App &app)
{
    // The fields printAppText(app, false) prints, in its order: the
    // header (name, package, activities with the main mark, services,
    // receivers with their actions, layouts with their widgets), then
    // the app classes. A body edit keeps this hash stable.
    const framework::Manifest &mf = app.manifest();
    ShapeHasher s;
    s.str(app.name());
    s.str(mf.packageName);
    s.list(mf.activities, [&](const std::string &a) {
        s.str(a);
        s.num(a == mf.mainActivity);
    });
    s.list(mf.services,
           [&](const framework::ServiceSpec &sv) { s.str(sv.className); });
    s.list(mf.receivers, [&](const framework::ReceiverSpec &r) {
        s.str(r.className);
        s.list(r.actions, [&](const std::string &a) { s.str(a); });
    });
    s.list(app.layouts(), [&](const auto &entry) {
        s.str(entry.first);
        s.list(entry.second.widgets(), [&](const framework::Widget &w) {
            s.num(static_cast<uint64_t>(static_cast<int64_t>(w.id)));
            s.str(w.name);
            s.str(w.widgetClass);
            s.str(w.xmlOnClick);
            s.list(w.enabledAfter, [&](int dep) {
                s.num(static_cast<uint64_t>(static_cast<int64_t>(dep)));
            });
        });
    });
    const auto &classes = app.module().classes();
    s.num(static_cast<uint64_t>(
        std::count_if(classes.begin(), classes.end(),
                      [](const air::Klass *k) { return inShape(*k); })));
    for (const air::Klass *klass : classes) {
        if (inShape(*klass))
            hashClassShape(s, *klass);
    }
    uint64_t h = mixHash(s.value(), static_cast<uint64_t>(
                                        framework::kKnownApiTableVersion));
    h = mixHash(h, static_cast<uint64_t>(kStoreSchemaVersion));
    return h;
}

// ---------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------

std::string
Store::versionStamp()
{
    std::ostringstream os;
    os << "sierra-store schema " << kStoreSchemaVersion
       << " known-api " << framework::kKnownApiTableVersion << "\n";
    return os.str();
}

Store::Store(const std::string &dir) : _dir(dir)
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    const fs::path version_path = fs::path(_dir) / "VERSION";
    std::string on_disk;
    {
        std::ifstream in(version_path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        on_disk = ss.str();
    }
    if (!on_disk.empty() && on_disk != versionStamp()) {
        // Incompatible generation: discard rather than read blobs
        // written under another schema or known-API table version.
        for (const auto &entry : fs::directory_iterator(_dir, ec)) {
            if (entry.path().filename() != "VERSION")
                fs::remove_all(entry.path(), ec);
        }
    }
    std::ofstream out(version_path, std::ios::binary);
    out << versionStamp();
}

namespace {

/** A byte a key keeps as-is in its file name. */
bool
plainKeyByte(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-';
}

int
upperHexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

std::string
Store::encodeKey(std::string_view key)
{
    // The empty key would name the kind directory itself; a lone '%'
    // is a name no other key encodes to.
    if (key.empty())
        return "%";
    static const char digits[] = "0123456789ABCDEF";
    std::string out;
    out.reserve(key.size());
    for (char c : key) {
        if (plainKeyByte(c)) {
            out += c;
        } else {
            const auto byte = static_cast<unsigned char>(c);
            out += '%';
            out += digits[byte >> 4];
            out += digits[byte & 0xf];
        }
    }
    return out;
}

std::optional<std::string>
Store::decodeKey(std::string_view name)
{
    if (name == "%")
        return std::string();
    if (name.empty())
        return std::nullopt;
    std::string out;
    out.reserve(name.size());
    for (size_t i = 0; i < name.size(); ++i) {
        if (plainKeyByte(name[i])) {
            out += name[i];
            continue;
        }
        if (name[i] != '%' || i + 2 >= name.size())
            return std::nullopt;
        const int hi = upperHexDigit(name[i + 1]);
        const int lo = upperHexDigit(name[i + 2]);
        if (hi < 0 || lo < 0)
            return std::nullopt;
        const char c = static_cast<char>(hi * 16 + lo);
        if (plainKeyByte(c))
            return std::nullopt; // encodeKey never escapes it
        out += c;
        i += 2;
    }
    return out;
}

std::string
Store::pathFor(std::string_view kind, std::string_view key) const
{
    std::string path = _dir;
    path += '/';
    path += kind;
    path += '/';
    path += encodeKey(key);
    return path;
}

std::optional<std::string_view>
Store::get(std::string_view kind, std::string_view key)
{
    ++_stats.gets;
    auto kit = _blobs.find(kind);
    if (kit != _blobs.end()) {
        auto it = kit->second.find(key);
        if (it != kit->second.end()) {
            ++_stats.hits;
            return std::string_view(it->second);
        }
    }
    if (_dir.empty())
        return std::nullopt;
    std::ifstream in(pathFor(kind, key), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    ++_stats.hits;
    ++_stats.diskReads;
    if (kit == _blobs.end())
        kit = _blobs.try_emplace(std::string(kind)).first;
    std::string &slot =
        kit->second.insert_or_assign(std::string(key), ss.str())
            .first->second;
    return std::string_view(slot);
}

void
Store::put(std::string_view kind, std::string_view key,
           std::string_view blob)
{
    ++_stats.puts;
    _stats.bytesWritten += static_cast<int64_t>(blob.size());
    auto kit = _blobs.find(kind);
    if (kit == _blobs.end())
        kit = _blobs.try_emplace(std::string(kind)).first;
    auto it = kit->second.find(key);
    if (it == kit->second.end())
        it = kit->second.try_emplace(std::string(key)).first;
    it->second.assign(blob);
    if (_dir.empty())
        return;
    std::error_code ec;
    fs::create_directories(fs::path(_dir) / kind, ec);
    const std::string path = pathFor(kind, key);
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary);
    out << blob;
    out.close();
    if (!out) {
        // A short write (disk full, file-size limit) is never
        // committed: a later process would read the cut blob as a hit.
        // Drop it and any older blob of the key, so the disk has none;
        // the memory copy still answers this process.
        fs::remove(tmp, ec);
        fs::remove(path, ec);
        return;
    }
    fs::rename(tmp, path, ec);
}

std::vector<std::string>
Store::keys(std::string_view kind) const
{
    std::set<std::string> out;
    auto kit = _blobs.find(kind);
    if (kit != _blobs.end()) {
        for (const auto &[key, blob] : kit->second)
            out.insert(key);
    }
    if (!_dir.empty()) {
        std::error_code ec;
        for (const auto &entry :
             fs::directory_iterator(fs::path(_dir) / kind, ec)) {
            // Temporary files end in ".tmp"; no encoded key has a '.'.
            if (auto key = decodeKey(entry.path().filename().string()))
                out.insert(std::move(*key));
        }
    }
    return {out.begin(), out.end()};
}

} // namespace sierra::analysis::store
