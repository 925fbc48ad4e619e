/**
 * @file
 * Differential test of the view-based harness-artifact decoder against
 * a reference: a copy of the `std::istringstream` decoder it replaced.
 * On every blob the corpus and heavy-shape generated apps put in the
 * store, and on the parser_sweeps.hh mutations and truncations of those
 * blobs, both must accept and reject the same inputs and return the
 * same values.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/store.hh"
#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "parser_sweeps.hh"
#include "serve/incremental.hh"
#include "sierra/artifact.hh"

namespace sierra {
namespace ref {

// ---------------------------------------------------------------------
// The reference: the decoders as they were before the view rewrite.
// ---------------------------------------------------------------------

constexpr const char *kMagic = "harness-artifact v2";

std::string
unesc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        ++i;
        switch (s[i]) {
          case 't': out += '\t'; break;
          case 'n': out += '\n'; break;
          default: out += s[i];
        }
    }
    return out;
}

std::vector<std::string>
fields(const std::string &line)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

bool
parseInt(const std::string &s, int64_t &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

bool
parseHex64(const std::string &hex, uint64_t &out)
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

std::optional<HarnessArtifact>
parseArtifact(const std::string &blob)
{
    std::istringstream in(blob);
    std::string line;
    if (!std::getline(in, line) || line != kMagic)
        return std::nullopt;

    HarnessArtifact a;
    bool saw_activity = false, saw_counts = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> f = fields(line);
        const std::string &tag = f[0];
        if (tag == "activity" && f.size() == 2) {
            a.activity = unesc(f[1]);
            saw_activity = true;
        } else if (tag == "counts" && f.size() == 7) {
            int64_t v[6];
            for (int i = 0; i < 6; ++i) {
                if (!parseInt(f[i + 1], v[i]))
                    return std::nullopt;
            }
            a.actions = static_cast<int>(v[0]);
            a.hbEdges = v[1];
            a.accessesTotal = static_cast<int>(v[2]);
            a.accessesDropped = static_cast<int>(v[3]);
            a.locksetRefuted = static_cast<int>(v[4]);
            a.enablementRefuted = static_cast<int>(v[5]);
            saw_counts = true;
        } else if (tag == "race" && f.size() == 11) {
            ArtifactRace r;
            int64_t i1, i2, prio, refuted;
            if (!parseInt(f[2], i1) || !parseInt(f[4], i2) ||
                !parseInt(f[6], prio) || !parseInt(f[7], refuted))
                return std::nullopt;
            if (!analysis::nullVerdictFromName(f[8], r.severity))
                return std::nullopt;
            r.m1 = unesc(f[1]);
            r.i1 = static_cast<int>(i1);
            r.m2 = unesc(f[3]);
            r.i2 = static_cast<int>(i2);
            r.key = unesc(f[5]);
            r.priority = static_cast<int>(prio);
            r.refuted = refuted != 0;
            r.severityChain = unesc(f[9]);
            r.description = unesc(f[10]);
            a.races.push_back(std::move(r));
        } else if (tag == "uad" && f.size() == 8) {
            analysis::UseAfterDestroyFinding u;
            int64_t wi, ri;
            if (!parseInt(f[6], wi) || !parseInt(f[7], ri))
                return std::nullopt;
            u.fieldKey = unesc(f[1]);
            u.teardownAction = unesc(f[2]);
            u.useAction = unesc(f[3]);
            u.writeMethod = unesc(f[4]);
            u.readMethod = unesc(f[5]);
            u.writeInstr = static_cast<int>(wi);
            u.readInstr = static_cast<int>(ri);
            a.useAfterDestroy.push_back(std::move(u));
        } else if (tag == "dl" && f.size() >= 2) {
            int64_t n;
            if (!parseInt(f[1], n) || n < 0 ||
                f.size() != static_cast<size_t>(2 + n * 5))
                return std::nullopt;
            analysis::DeadlockFinding d;
            for (int64_t i = 0; i < n; ++i) {
                size_t base = 2 + static_cast<size_t>(i) * 5;
                analysis::DeadlockEdge e;
                int64_t instr;
                if (!parseInt(f[base + 3], instr))
                    return std::nullopt;
                e.heldLock = unesc(f[base]);
                e.acquiredLock = unesc(f[base + 1]);
                e.method = unesc(f[base + 2]);
                e.instrIdx = static_cast<int>(instr);
                e.actionLabel = unesc(f[base + 4]);
                d.edges.push_back(std::move(e));
            }
            a.deadlocks.push_back(std::move(d));
        } else if (tag == "fp" && f.size() == 3) {
            uint64_t hash;
            if (!parseHex64(f[2], hash))
                return std::nullopt;
            a.footprint.emplace_back(unesc(f[1]), hash);
        } else {
            return std::nullopt;
        }
    }
    if (!saw_activity || !saw_counts)
        return std::nullopt;
    return a;
}

} // namespace ref

namespace {

namespace store = analysis::store;

void
expectSameHashHex(const std::string &hex)
{
    uint64_t want = 0, got = 0;
    const bool want_ok = ref::parseHex64(hex, want);
    EXPECT_EQ(store::parseHashHex(hex, got), want_ok) << "'" << hex << "'";
    if (want_ok) {
        EXPECT_EQ(got, want) << "'" << hex << "'";
    }
}

void
expectSameArtifact(const std::string &blob, const std::string &what)
{
    const std::optional<HarnessArtifact> want = ref::parseArtifact(blob);
    const std::optional<HarnessArtifact> got = parseArtifact(blob);
    ASSERT_EQ(got.has_value(), want.has_value()) << what;
    // The serialization writes every field of an artifact.
    if (got) {
        EXPECT_EQ(serializeArtifact(*got), serializeArtifact(*want)) << what;
    }
}

/** Stored blobs. */
using Blobs = std::vector<std::string>;

/** What the corpus and 20 heavy-shape apps put into a store: their
 *  harness artifacts. */
const Blobs &
corpusBlobs()
{
    static const Blobs blobs = [] {
        std::vector<corpus::BuiltApp> apps;
        for (const auto &spec : corpus::namedAppSpecs())
            apps.push_back(corpus::buildNamedApp(spec));
        for (int i = 0; i < corpus::kFdroidAppCount; ++i)
            apps.push_back(corpus::buildFdroidApp(i));
        for (uint32_t i = 0; i < 20; ++i) {
            corpus::SyntheticSpec spec;
            spec.seed = 0x4EA7u * 1000003u + i;
            spec.activities = 3;
            spec.minPatternsPerActivity = 12;
            spec.maxPatternsPerActivity = 12;
            apps.push_back(corpus::generateSyntheticApp(
                "Heavy" + std::to_string(i), spec));
        }
        store::Store st;
        serve::IncrementalAnalyzer analyzer(st);
        SierraOptions options;
        options.jobs = 1;
        for (corpus::BuiltApp &built : apps)
            analyzer.analyze(*built.app, options);
        Blobs out;
        for (uint64_t key : st.keys())
            out.emplace_back(*st.get(key));
        return out;
    }();
    return blobs;
}

/** The longest blob, and the longest one containing `row`. */
std::vector<std::string>
sweepBases(const Blobs &blobs, const std::string &row = "")
{
    std::vector<std::string> out;
    const std::string *longest = nullptr, *with_row = nullptr;
    for (const std::string &b : blobs) {
        if (!longest || b.size() > longest->size())
            longest = &b;
        if (!row.empty() && b.find(row) != std::string::npos &&
            (!with_row || b.size() > with_row->size()))
            with_row = &b;
    }
    if (longest)
        out.push_back(*longest);
    if (with_row && with_row != longest)
        out.push_back(*with_row);
    return out;
}

/** The sweep inputs of one base blob: parser_sweeps.hh mutations, with
 *  the bytes the blob formats give meaning to, and truncations. */
std::vector<std::string>
sweepInputs(const std::string &base, uint32_t seed)
{
    std::vector<std::string> out =
        test::mutatedInputs(base, seed, 300, "\t\n\\ x0-+9a.");
    for (std::string &prefix : test::prefixInputs(base, 120))
        out.push_back(std::move(prefix));
    return out;
}

TEST(StoreDecoderDiff, CorpusBlobs)
{
    const Blobs &blobs = corpusBlobs();
    const size_t apps = corpus::namedAppSpecs().size() +
                        corpus::kFdroidAppCount + 20;
    ASSERT_GE(blobs.size(), apps);
    int accepted = 0;
    for (size_t i = 0; i < blobs.size(); ++i) {
        expectSameArtifact(blobs[i], "harness #" + std::to_string(i));
        accepted += parseArtifact(blobs[i]).has_value() ? 1 : 0;
    }
    EXPECT_EQ(accepted, static_cast<int>(blobs.size()))
        << "every stored artifact decodes";
}

TEST(StoreDecoderDiff, MutatedAndTruncatedBlobs)
{
    const Blobs &blobs = corpusBlobs();
    uint32_t seed = 0x57080;
    int rejected = 0, inputs = 0;
    // The longest artifact, plus the longest with each optional row
    // kind, so the sweep reaches every row decoder.
    std::vector<std::string> bases = sweepBases(blobs);
    for (const char *row : {"\nuad\t", "\ndl\t"}) {
        std::vector<std::string> more = sweepBases(blobs, row);
        if (more.size() > 1)
            bases.push_back(more[1]);
    }
    for (const std::string &base : bases) {
        for (const std::string &input : sweepInputs(base, seed++)) {
            expectSameArtifact(input,
                               "harness sweep #" + std::to_string(inputs++));
            rejected += parseArtifact(input).has_value() ? 0 : 1;
        }
    }
    // The sweep reaches the rejection paths, not only the happy one.
    EXPECT_GT(rejected, 100);
}

TEST(StoreDecoderDiff, HandWrittenEdgeCases)
{
    const std::string head = std::string(ref::kMagic) +
                             "\nactivity\tA\ncounts\t1\t2\t3\t4\t5\t6\n";
    const std::string artifacts[] = {
        "",
        ref::kMagic,
        head,
        head + "\n\n",
        std::string(ref::kMagic) + "\r\nactivity\tA\ncounts\t1\t2\t3\t4\t5\t6\n",
        head + "fp\tA.m\t00000000000000ff",
        head + "fp\tA.m\t00000000000000FF\n",
        head + "fp\tA.m\t00000000000000f\n",
        head + "race\tA.m\t 1\tB.n\t2\tk\t+3\t0\tHARMFUL\tc\\\\d\td\\te\n",
        head + "race\tA.m\t1\tB.n\t2\tk\t3\t0\tharmful\tc\td\n",
        head + "race\tA.m\t1\tB.n\t2\tk\t3\t-0\tUNKNOWN\t\t\n",
        head + "race\tA.m\t\v1\tB.n\t2\tk\t3\t1\tGUARDED\tx\\\ty\n",
        head + "uad\tf\tt\tu\tw\tr\t1 \t2\n",
        head + "uad\tf\tt\tu\tw\tr\t+-1\t2\n",
        head + "uad\tf\tt\tu\tw\tr\t99999999999999999999\t2\n",
        head + "uad\tf\tt\tu\tw\tr\t-9223372036854775808\t2\n",
        head + "dl\t0\n",
        head + "dl\t1\th\ta\tm\t3\tl\n",
        head + "dl\t2\th\ta\tm\t3\tl\n",
        head + "dl\t1\th\ta\tm\t3\tl\tx\n",
        head + "dl\t0\tx\n",
        head + "dl\t-1\n",
        head + "counts\t1\t2\t3\t4\t5\n",
        head + "bogus\n",
        std::string(ref::kMagic) + "\nactivity\tA\n",
        std::string(ref::kMagic) + "\ncounts\t1\t2\t3\t4\t5\t6\n",
        std::string(ref::kMagic) + "\nactivity\tA\\\ncounts\t1\t2\t3\t4\t5\t6",
        std::string(ref::kMagic) + "\nactivity\tA\\n\\t\\x\ncounts\t0\t0\t0\t0\t0\t0\n",
        std::string(ref::kMagic) + "\nactivity\tA\ncounts\t1\t2\t3\t4\t5\t0x6\n",
        std::string(ref::kMagic) + "\nactivity\tA\ncounts\t1\t2\t3\t4\t5\t6" +
            std::string(1, '\0') + "\n",
    };
    for (const std::string &blob : artifacts)
        expectSameArtifact(blob, "artifact '" + blob + "'");

    // The footprint rows' hash field, through both hex decoders.
    for (const char *hex :
         {"", "0123456789abcdef", "0123456789ABCDEF", "0123456789abcde",
          "0123456789abcdef0", "000000000000000g", "-000000000000001",
          " 123456789abcdef", "ffffffffffffffff"})
        expectSameHashHex(hex);
}

} // namespace
} // namespace sierra
