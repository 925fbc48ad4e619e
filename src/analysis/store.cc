#include "store.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "air/klass.hh"
#include "air/method.hh"
#include "air/name.hh"
#include "framework/app.hh"
#include "framework/known_api.hh"

namespace sierra::analysis::store {

namespace fs = std::filesystem;

uint64_t
hashBytes(std::string_view bytes)
{
    return air::hashNameBytes(bytes);
}

uint64_t
mixHash(uint64_t acc, uint64_t value)
{
    // One multiply-xorshift step: a bijection of acc ^ value, so the
    // chain is order-dependent and cheap (no per-byte rounds).
    uint64_t h = (acc ^ value) * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 29);
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

/** A type as the printer renders it: its kind and, for object and
 *  array types, the (element) class name. */
uint64_t
typeHash(const air::Type &type)
{
    uint64_t h = mixHash(0, static_cast<uint64_t>(type.kind()));
    return type.name().empty() ? h : mixHash(h, hashBytes(type.name()));
}

} // namespace

uint64_t
classSliceHash(const air::Klass &klass)
{
    // The header and field lines the printer renders for the class:
    // kind, name, super, interfaces, then each field. Names contribute
    // their cached hashes; every list is count-prefixed.
    uint64_t h = mixHash(0, klass.isInterface() ? 2 : 1);
    h = mixHash(h, klass.name().hash());
    h = mixHash(h, klass.superName().hash());
    h = mixHash(h, klass.interfaces().size());
    for (air::Name iface : klass.interfaces())
        h = mixHash(h, iface.hash());
    h = mixHash(h, klass.fields().size());
    for (const air::Field &f : klass.fields()) {
        h = mixHash(h, f.isStatic ? 1 : 0);
        h = mixHash(h, f.name.hash());
        h = mixHash(h, typeHash(f.type));
    }
    return h;
}

namespace {

/** Two 32-bit values in one word. */
uint64_t
pack32(int64_t lo, int64_t hi)
{
    return static_cast<uint32_t>(lo) |
           (static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32);
}

/**
 * Content hash of one instruction: exactly the fields its printed form
 * shows (Instruction::toString), each name by its cached hash. The
 * opcode comes first and fixes the layout of what follows, so two
 * instructions hash alike only when they print alike (barring a 64-bit
 * collision).
 */
uint64_t
hashInstr(uint64_t h, const air::Instruction &ins)
{
    using air::Opcode;
    uint64_t kind = 0;
    switch (ins.op) {
      case Opcode::BinOp: kind = static_cast<uint64_t>(ins.binop); break;
      case Opcode::UnOp: kind = static_cast<uint64_t>(ins.unop); break;
      case Opcode::If:
      case Opcode::IfZ: kind = static_cast<uint64_t>(ins.cond); break;
      case Opcode::Invoke:
        kind = static_cast<uint64_t>(ins.invokeKind);
        break;
      default: break;
    }
    const uint64_t head = static_cast<uint64_t>(ins.op) | (kind << 8) |
                          (static_cast<uint64_t>(ins.srcs.size()) << 16);
    h = mixHash(h, pack32(static_cast<int64_t>(head), ins.dst));
    const size_t n = ins.srcs.size();
    for (size_t i = 0; i + 1 < n; i += 2)
        h = mixHash(h, pack32(ins.srcs[i], ins.srcs[i + 1]));
    if (n % 2)
        h = mixHash(h, pack32(ins.srcs[n - 1], 0));
    switch (ins.op) {
      case Opcode::ConstInt:
        return mixHash(h, static_cast<uint64_t>(ins.intValue));
      case Opcode::ConstStr: return mixHash(h, ins.strValue.hash());
      case Opcode::New:
      case Opcode::NewArray: return mixHash(h, ins.typeName.hash());
      case Opcode::GetField:
      case Opcode::PutField:
      case Opcode::GetStatic:
      case Opcode::PutStatic:
        return mixHash(mixHash(h, ins.field.className.hash()),
                       ins.field.fieldName.hash());
      case Opcode::Invoke:
        return mixHash(mixHash(h, ins.method.className.hash()),
                       ins.method.methodName.hash());
      case Opcode::If:
      case Opcode::IfZ:
      case Opcode::Goto:
        return mixHash(h, static_cast<uint64_t>(ins.target));
      default: return h;
    }
}

/**
 * Content hash of one method: its signature line (name, parameter and
 * return types, modifiers, register count) and every instruction, in
 * order. Hashing the fields directly instead of the printed text gives
 * the same partition at a fraction of the cost -- this runs for every
 * method on every submission, warm or cold.
 */
uint64_t
hashMethodBody(const air::Method &method)
{
    uint64_t h = mixHash(0, method.name().hash());
    h = mixHash(h, method.paramTypes().size());
    for (const air::Type &t : method.paramTypes())
        h = mixHash(h, typeHash(t));
    h = mixHash(h, typeHash(method.returnType()));
    h = mixHash(h, (method.isStatic() ? 1u : 0u) |
                       (method.isAbstract() ? 2u : 0u));
    h = mixHash(h, pack32(method.numRegisters(), method.numInstrs()));
    for (const air::Instruction &ins : method.instrs())
        h = hashInstr(h, ins);
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

namespace {

/** The index key of a qualified method name, from its two parts'
 *  hashes. */
uint64_t
qualifiedKey(uint64_t class_hash, uint64_t method_hash)
{
    return mixHash(class_hash, method_hash);
}

} // namespace

std::string
MethodHashEntry::name() const
{
    return method->qualifiedName();
}

MethodHashTable::MethodHashTable(const framework::App &app)
{
    for (const air::Klass *klass : app.module().classes()) {
        if (klass->isFramework())
            continue;
        // One slice hash per class, not per method: the slice is the
        // same for every member.
        const uint64_t slice = classSliceHash(*klass);
        for (const auto &m : klass->methods()) {
            if (!m->hasBody())
                continue;
            // Qualified names are unique: a module has one class per
            // name and a class one method per name.
            _index.insert(qualifiedKey(klass->name().hash(),
                                       m->name().hash()),
                          static_cast<int>(_entries.size()));
            _entries.push_back({m, envHashWithSlice(*m, slice)});
        }
    }
}

const MethodHashEntry *
MethodHashTable::find(std::string_view name) const
{
    // "Class.method": method names hold no '.', class names may.
    const size_t dot = name.rfind('.');
    if (dot == std::string_view::npos)
        return nullptr;
    const std::string_view klass = name.substr(0, dot);
    const std::string_view method = name.substr(dot + 1);
    const int row = _index.find(
        qualifiedKey(hashBytes(klass), hashBytes(method)), [&](int i) {
            const air::Method *m = _entries[static_cast<size_t>(i)].method;
            return m->name() == method && m->owner()->name() == klass;
        });
    return row < 0 ? nullptr : &_entries[static_cast<size_t>(row)];
}

const MethodHashEntry *
MethodHashTable::find(const air::Method *method) const
{
    const int row = _index.find(
        qualifiedKey(method->owner()->name().hash(), method->name().hash()),
        [&](int i) {
            return _entries[static_cast<size_t>(i)].method == method;
        });
    return row < 0 ? nullptr : &_entries[static_cast<size_t>(row)];
}

// ---------------------------------------------------------------------
// Shape hash
// ---------------------------------------------------------------------

namespace {

/** Feeds a shape into one running hash: every string and name by
 *  its 64-bit hash and every list count-prefixed, so no two shapes
 *  share a stream. */
class ShapeHasher
{
  public:
    void num(uint64_t v) { _h = mixHash(_h, v); }
    void str(std::string_view s) { num(hashBytes(s)); }
    void name(air::Name n) { num(n.hash()); }
    /** A type as the printer renders it. */
    void type(const air::Type &t) { num(typeHash(t)); }
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
    uint64_t _h{hashBytes("sierra-shape")};
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
    s.name(klass.name());
    s.name(klass.superName());
    s.list(klass.interfaces(), [&](air::Name i) { s.name(i); });
    s.list(klass.fields(), [&](const air::Field &f) {
        s.num(f.isStatic);
        s.name(f.name);
        s.type(f.type);
    });
    s.list(klass.methods(), [&](const air::Method *m) {
        s.num(m->isStatic());
        s.num(m->isAbstract());
        s.name(m->name());
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

std::string
Store::pathFor(uint64_t key) const
{
    // The blobs live under `harness/`, named by the key's 16 hex
    // digits: the layout every store generation of this schema uses.
    return _dir + "/harness/" + hashHex(key);
}

std::optional<std::string_view>
Store::get(uint64_t key)
{
    ++_stats.gets;
    auto it = _blobs.find(key);
    if (it != _blobs.end()) {
        ++_stats.hits;
        return std::string_view(it->second);
    }
    if (_dir.empty())
        return std::nullopt;
    std::ifstream in(pathFor(key), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    ++_stats.hits;
    ++_stats.diskReads;
    return std::string_view(_blobs.emplace(key, ss.str()).first->second);
}

void
Store::put(uint64_t key, std::string_view blob)
{
    ++_stats.puts;
    _stats.bytesWritten += static_cast<int64_t>(blob.size());
    _blobs[key].assign(blob);
    if (_dir.empty())
        return;
    std::error_code ec;
    fs::create_directories(fs::path(_dir) / "harness", ec);
    const std::string path = pathFor(key);
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

std::vector<uint64_t>
Store::keys() const
{
    std::vector<uint64_t> out;
    out.reserve(_blobs.size());
    for (const auto &[key, blob] : _blobs)
        out.push_back(key);
    if (!_dir.empty()) {
        std::error_code ec;
        for (const auto &entry :
             fs::directory_iterator(fs::path(_dir) / "harness", ec)) {
            // Temporary files end in ".tmp", so they never parse.
            uint64_t key;
            if (parseHashHex(entry.path().filename().string(), key))
                out.push_back(key);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace sierra::analysis::store
