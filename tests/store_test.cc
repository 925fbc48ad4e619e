/**
 * @file
 * The artifact store's contracts (docs/CACHING.md): content-hash keys
 * are pure functions of the input (stable across fresh builds, jobs
 * counts and processes), serializations round-trip byte-identically, a
 * version-stamp mismatch discards the on-disk generation, and a failed
 * disk write is never served.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/store.hh"
#include "corpus/named_apps.hh"
#include "framework/app_text.hh"
#include "sierra/detector.hh"

namespace sierra {
namespace {

namespace store = analysis::store;
namespace fs = std::filesystem;

struct TempDir {
    std::string path;
    TempDir()
    {
        path = (fs::temp_directory_path() /
                ("sierra_store_test_" +
                 std::to_string(::getpid()) + "_" +
                 std::to_string(counter())))
                   .string();
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    static int
    counter()
    {
        static int n = 0;
        return n++;
    }
};

/** An app's method-hash table as a name -> hash map. */
std::map<std::string, uint64_t>
hashMethods(const framework::App &app)
{
    std::map<std::string, uint64_t> out;
    const store::MethodHashTable table(app);
    for (const store::MethodHashEntry &row : table.entries())
        out[row.name()] = row.hash;
    return out;
}

TEST(Store, MethodHashesStableAcrossFreshBuilds)
{
    // Two independent builds of the same corpus app (fresh modules,
    // fresh arenas, different pointer values) must produce identical
    // per-method env hashes: keys depend only on content.
    corpus::BuiltApp a = corpus::buildNamedApp("OpenSudoku");
    corpus::BuiltApp b = corpus::buildNamedApp("OpenSudoku");
    SierraDetector da(*a.app), db(*b.app); // generate harnesses too
    EXPECT_EQ(hashMethods(*a.app), hashMethods(*b.app));
    EXPECT_EQ(store::shapeHash(*a.app), store::shapeHash(*b.app));
}

TEST(Store, MethodHashesStableAcrossParseRoundTrip)
{
    corpus::BuiltApp built = corpus::buildNamedApp("OpenSudoku");
    std::string text = framework::printAppText(*built.app);
    framework::AppTextResult reparsed = framework::parseAppText(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error;
    // Harness generation mutates the module; hash only app methods
    // here by not constructing detectors.
    EXPECT_EQ(hashMethods(*built.app),
              hashMethods(*reparsed.app));
}

TEST(Store, BodyEditChangesMethodHashButNotShape)
{
    corpus::BuiltApp a = corpus::buildNamedApp("OpenSudoku");
    corpus::BuiltApp b = corpus::buildNamedApp("OpenSudoku");

    // Append a no-op to the first app method with a body in b.
    const air::Method *edited = nullptr;
    for (air::Klass *klass : b.app->module().classes()) {
        if (klass->isFramework())
            continue;
        for (const auto &m : klass->methods()) {
            if (m->hasBody()) {
                m->instrs().push_back(air::Instruction{});
                edited = m;
                break;
            }
        }
        if (edited)
            break;
    }
    ASSERT_NE(edited, nullptr);

    auto ha = hashMethods(*a.app);
    auto hb = hashMethods(*b.app);
    EXPECT_NE(ha.at(edited->qualifiedName()),
              hb.at(edited->qualifiedName()));
    int differing = 0;
    for (const auto &[name, hash] : ha) {
        if (hb.at(name) != hash)
            ++differing;
    }
    EXPECT_EQ(differing, 1) << "a body edit must re-key only itself";
    // Instruction lines are stripped from the shape: it is unchanged.
    EXPECT_EQ(store::shapeHash(*a.app), store::shapeHash(*b.app));
}

TEST(Store, ClassSliceChangesRekeyMemberMethods)
{
    corpus::BuiltApp a = corpus::buildNamedApp("OpenSudoku");
    corpus::BuiltApp b = corpus::buildNamedApp("OpenSudoku");
    // Retype-by-addition: a new field changes the owner's class slice
    // and with it every member method's env hash.
    air::Klass *victim = nullptr;
    for (air::Klass *klass : b.app->module().classes()) {
        if (!klass->isFramework() && !klass->methods().empty()) {
            victim = klass;
            break;
        }
    }
    ASSERT_NE(victim, nullptr);
    uint64_t before = store::classSliceHash(*victim);
    victim->addField(air::FieldDecl{"__storeTestField",
                                air::Type::object("java.lang.Object"),
                                false});
    EXPECT_NE(store::classSliceHash(*victim), before);

    auto ha = hashMethods(*a.app);
    auto hb = hashMethods(*b.app);
    for (const auto &m : victim->methods()) {
        if (m->hasBody()) {
            EXPECT_NE(ha.at(m->qualifiedName()),
                      hb.at(m->qualifiedName()));
        }
    }
}

TEST(Store, HashHexRoundTrip)
{
    // The footprint rows of a stored artifact carry their method hashes
    // as hex; parseHashHex reads back exactly what hashHex writes.
    for (uint64_t v : {uint64_t{0x1234abcd5678ef00}, uint64_t{42}, uint64_t{0},
                       ~uint64_t{0}}) {
        const std::string hex = store::hashHex(v);
        EXPECT_EQ(hex.size(), 16u);
        uint64_t back = 1;
        ASSERT_TRUE(store::parseHashHex(hex, back)) << hex;
        EXPECT_EQ(back, v);
    }
    EXPECT_EQ(store::hashHex(42), "000000000000002a");
    // Anything hashHex never writes is rejected and leaves `out` alone.
    for (const char *bad : {"", "000000000000002", "000000000000002a0",
                            "000000000000002A", "00000000000000-1",
                            "0x0000000000002a"}) {
        uint64_t out = 7;
        EXPECT_FALSE(store::parseHashHex(bad, out)) << bad;
        EXPECT_EQ(out, 7u) << bad;
    }
}

TEST(Store, DiskStoreWarmStartsAcrossInstances)
{
    TempDir dir;
    {
        store::Store first(dir.path);
        first.put(2, "blob two");
        first.put(1, "blob one");
    }
    // A second instance (standing in for a second process) reads the
    // same artifacts back from disk.
    store::Store second(dir.path);
    auto blob = second.get(1);
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(*blob, "blob one");
    EXPECT_EQ(second.stats().diskReads, 1);
    EXPECT_EQ(second.keys(), (std::vector<uint64_t>{1, 2}));
}

TEST(Store, DiskKeysAreInjective)
{
    // The extremes, keys that differ in one low or high bit, and keys
    // whose hex forms differ only in a digit hashHex's lower-case
    // alphabet distinguishes from upper case.
    const std::vector<uint64_t> keys = {
        0,
        ~uint64_t{0},
        1,
        uint64_t{1} << 63,
        0x7fffffffffffffff,
        0xfffffffffffffffe,
        0x1234abcd5678ef00,
        0x1234abcd5678ef01,
        0x000000000000000a,
        0x00000000000000a0,
    };
    TempDir dir;
    {
        store::Store first(dir.path);
        for (size_t i = 0; i < keys.size(); ++i)
            first.put(keys[i], "blob " + std::to_string(i));
    }
    // A fresh store on the same directory reads every key back as its
    // own blob: no two keys share a file.
    store::Store second(dir.path);
    for (size_t i = 0; i < keys.size(); ++i) {
        auto blob = second.get(keys[i]);
        ASSERT_TRUE(blob.has_value()) << "key #" << i;
        EXPECT_EQ(*blob, "blob " + std::to_string(i)) << "key #" << i;
    }
    EXPECT_EQ(second.stats().diskReads,
              static_cast<int64_t>(keys.size()));
    std::vector<uint64_t> sorted(keys);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(second.keys(), sorted);

    // Every file sits in `harness/`, one per key, named by the key's
    // 16 lower-case hex digits.
    std::set<std::string> names;
    for (const auto &entry :
         fs::recursive_directory_iterator(dir.path)) {
        if (!entry.is_regular_file() ||
            entry.path().filename() == "VERSION")
            continue;
        EXPECT_EQ(entry.path().parent_path(),
                  fs::path(dir.path) / "harness")
            << entry.path();
        const std::string name = entry.path().filename().string();
        uint64_t key;
        EXPECT_TRUE(store::parseHashHex(name, key)) << name;
        names.insert(name);
    }
    std::set<std::string> want;
    for (uint64_t key : keys)
        want.insert(store::hashHex(key));
    EXPECT_EQ(names, want);

    // A write in progress and a stray file name no key.
    const fs::path harness = fs::path(dir.path) / "harness";
    std::ofstream(harness / (store::hashHex(5) + ".tmp")) << "cut";
    std::ofstream(harness / "notakey") << "stray";
    EXPECT_EQ(store::Store(dir.path).keys(), sorted);
}

TEST(Store, FailedDiskWriteIsNeverServed)
{
    // A child process puts a blob larger than its file-size limit.
    // With SIGXFSZ ignored, write() fails with EFBIG after the first
    // 4096 bytes instead of killing the child. The cut blob must not
    // be committed: a fresh store on the directory (a later process)
    // would otherwise read it back as a hit -- a harness artifact cut
    // at a line boundary still parses, with rows missing.
    const uint64_t kKey = 0x2a;
    TempDir dir;
    {
        store::Store first(dir.path);
        first.put(kKey, "an older blob of the key\n");
    }
    std::string blob;
    for (int i = 0; blob.size() < 28000; ++i)
        blob += "race\trow " + std::to_string(i) + "\n";

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::signal(SIGXFSZ, SIG_IGN);
        const struct rlimit limit{4096, 4096};
        if (::setrlimit(RLIMIT_FSIZE, &limit) != 0)
            ::_exit(2);
        store::Store child(dir.path);
        child.put(kKey, blob);
        // The memory copy still answers the writing process.
        auto got = child.get(kKey);
        ::_exit(got && *got == blob ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: the writer lost its memory copy; 2: setrlimit failed";

    // Neither the cut blob nor the older one it was to replace is on
    // disk, and no temporary file is left behind.
    store::Store fresh(dir.path);
    EXPECT_FALSE(fresh.get(kKey).has_value());
    EXPECT_TRUE(fresh.keys().empty());
    EXPECT_FALSE(fs::exists(fs::path(dir.path) / "harness" /
                            (store::hashHex(kKey) + ".tmp")));
}

TEST(Store, VersionMismatchDiscardsGeneration)
{
    TempDir dir;
    {
        store::Store first(dir.path);
        first.put(7, "old generation");
    }
    {
        // Corrupt the stamp as an older binary would have left it.
        std::ofstream out(fs::path(dir.path) / "VERSION");
        out << "sierra-store schema 0 known-api 0\n";
    }
    store::Store second(dir.path);
    EXPECT_FALSE(second.get(7).has_value());
    // The stamp is rewritten to the current version.
    std::ifstream in(fs::path(dir.path) / "VERSION");
    std::string stamp((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(stamp, store::Store::versionStamp());
}

TEST(Store, ArtifactSerializationRoundTrips)
{
    HarnessArtifact art;
    art.activity = "MainActivity";
    art.actions = 7;
    art.hbEdges = 21;
    art.accessesTotal = 5;
    art.accessesDropped = 1;
    art.locksetRefuted = 2;
    art.enablementRefuted = 1;
    art.races.push_back({"A.m", 3, "B.n", 4, "C.f",
                         "race with\ttab and\nnewline", 9, false,
                         analysis::NullVerdict::Harmful,
                         "null-source A.m:1 -> C.f -> read\tB.n:4"});
    analysis::UseAfterDestroyFinding uad;
    uad.fieldKey = "C.f";
    uad.teardownAction = "onDestroy";
    uad.useAction = "post#1";
    uad.writeMethod = "C.onDestroy";
    uad.readMethod = "C.run";
    uad.writeInstr = 2;
    uad.readInstr = 5;
    art.useAfterDestroy.push_back(uad);
    analysis::DeadlockFinding dl;
    dl.edges.push_back({"lockA", "lockB", "C.m", 1, "post#2"});
    dl.edges.push_back({"lockB", "lockA", "C.n", 3, "post#3"});
    art.deadlocks.push_back(dl);
    art.footprint.emplace_back("A.m", 0xdeadbeefcafef00dULL);
    art.footprint.emplace_back("B.n", 1);

    std::string blob = serializeArtifact(art);
    auto back = parseArtifact(blob);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(serializeArtifact(*back), blob);
    EXPECT_EQ(back->activity, art.activity);
    EXPECT_EQ(back->races.size(), 1u);
    EXPECT_EQ(back->races[0].description,
              "race with\ttab and\nnewline");
    EXPECT_EQ(back->footprint, art.footprint);
    EXPECT_TRUE(back->useAfterDestroy[0] == uad);
    EXPECT_TRUE(back->deadlocks[0] == dl);

    EXPECT_FALSE(parseArtifact("not an artifact").has_value());
    EXPECT_FALSE(parseArtifact("").has_value());
}

} // namespace
} // namespace sierra
