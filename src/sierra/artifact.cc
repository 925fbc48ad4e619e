#include "artifact.hh"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <tuple>

#include "air/klass.hh"
#include "air/logging.hh"
#include "air/method.hh"
#include "analysis/store.hh"
#include "detector.hh"

namespace sierra {

namespace {

// v2: race rows carry the nullflow severity verdict + chain. The
// version is part of the first line, so v1 blobs fail parseArtifact
// and the store recomputes them (never a silently missing severity).
constexpr const char *kMagic = "harness-artifact v2";

/** Escape a field so it can live inside a tab-separated line. */
std::string
esc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\t': out += "\\t"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
unesc(std::string_view s)
{
    if (s.find('\\') == std::string_view::npos)
        return std::string(s);
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

/** Split a line on raw tabs (escaped tabs survive as "\\t") into
 *  `out`, as views of the line. */
void
splitFields(std::string_view line, std::vector<std::string_view> &out)
{
    out.clear();
    size_t start = 0;
    while (true) {
        size_t tab = line.find('\t', start);
        if (tab == std::string_view::npos) {
            out.push_back(line.substr(start));
            return;
        }
        out.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

/** isspace() in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * A whole field as a base-10 int64, with std::strtoll's grammar:
 * optional leading whitespace, an optional sign, at least one digit,
 * nothing after the digits, and no overflow.
 */
bool
parseInt(std::string_view s, int64_t &out)
{
    size_t i = 0;
    while (i < s.size() && isSpace(s[i]))
        ++i;
    size_t first = i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-'))
        ++i;
    if (i >= s.size() || s[i] < '0' || s[i] > '9')
        return false;
    if (s[first] == '+')
        ++first; // from_chars takes a '-' but no '+'
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data() + first, end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

HarnessArtifact
makeArtifact(const HarnessAnalysis &ha,
             const analysis::store::MethodHashTable *hashes)
{
    HarnessArtifact art;
    art.activity = ha.activity;
    art.actions = ha.numActions();
    art.hbEdges = ha.hbEdges();
    art.accessesTotal = ha.accessesTotal;
    art.accessesDropped = ha.accessesDropped;
    art.locksetRefuted = ha.locksetRefuted;
    art.enablementRefuted = ha.enablementRefuted;
    art.useAfterDestroy = ha.useAfterDestroy;
    art.deadlocks = ha.deadlocks;

    // Race rows: the same site normalization the app-level dedup key
    // applies, with the description rendered now so a reused artifact
    // reproduces the cold report's text exactly.
    for (const race::RacyPair &p : ha.pairs) {
        const race::Access &x = ha.accesses[p.access1];
        const race::Access &y = ha.accesses[p.access2];
        ArtifactRace r;
        r.m1 = ha.pta->cg.node(x.node).method->qualifiedName();
        r.i1 = x.instrIdx;
        r.m2 = ha.pta->cg.node(y.node).method->qualifiedName();
        r.i2 = y.instrIdx;
        if (std::tie(r.m2, r.i2) < std::tie(r.m1, r.i1)) {
            std::swap(r.m1, r.m2);
            std::swap(r.i1, r.i2);
        }
        r.key = p.loc.key.str();
        r.description = p.toString(*ha.pta, ha.accesses);
        r.priority = p.priority;
        r.refuted = p.refuted;
        r.severity = p.severity;
        r.severityChain = p.severityChain;
        art.races.push_back(std::move(r));
    }

    // Footprint: every distinct non-framework method with a body that
    // appears in the harness's call graph (under any context). A body
    // edit to any of them re-keys its entry and invalidates the
    // artifact; methods outside the footprint cannot affect it. The
    // rows come from the app's method-hash table, which holds every
    // such method (the pipeline adds none after it is built); marking
    // them by row index lists each once, and the rows are then sorted
    // by name.
    if (!hashes)
        return art;
    const std::vector<analysis::store::MethodHashEntry> &rows =
        hashes->entries();
    std::vector<char> in_footprint(rows.size(), 0);
    const analysis::CallGraph &cg = ha.pta->cg;
    for (int n = 0; n < cg.numNodes(); ++n) {
        const air::Method *m = cg.node(n).method;
        if (!m || !m->hasBody() || m->owner()->isFramework())
            continue;
        const analysis::store::MethodHashEntry *row = hashes->find(m);
        if (!row)
            panic("method ", m->qualifiedName(),
                  " is missing from the app's method-hash table");
        in_footprint[row - rows.data()] = 1;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
        if (in_footprint[i])
            art.footprint.emplace_back(rows[i].name(), rows[i].hash);
    }
    std::sort(art.footprint.begin(), art.footprint.end());
    return art;
}

std::string
serializeArtifact(const HarnessArtifact &a)
{
    std::ostringstream os;
    os << kMagic << "\n";
    os << "activity\t" << esc(a.activity) << "\n";
    os << "counts\t" << a.actions << "\t" << a.hbEdges << "\t"
       << a.accessesTotal << "\t" << a.accessesDropped << "\t"
       << a.locksetRefuted << "\t" << a.enablementRefuted << "\n";
    for (const ArtifactRace &r : a.races) {
        os << "race\t" << esc(r.m1) << "\t" << r.i1 << "\t"
           << esc(r.m2) << "\t" << r.i2 << "\t" << esc(r.key) << "\t"
           << r.priority << "\t" << (r.refuted ? 1 : 0) << "\t"
           << analysis::nullVerdictName(r.severity) << "\t"
           << esc(r.severityChain) << "\t"
           << esc(r.description) << "\n";
    }
    for (const analysis::UseAfterDestroyFinding &f : a.useAfterDestroy) {
        os << "uad\t" << esc(f.fieldKey) << "\t"
           << esc(f.teardownAction) << "\t" << esc(f.useAction) << "\t"
           << esc(f.writeMethod) << "\t" << esc(f.readMethod) << "\t"
           << f.writeInstr << "\t" << f.readInstr << "\n";
    }
    for (const analysis::DeadlockFinding &f : a.deadlocks) {
        os << "dl\t" << f.edges.size();
        for (const analysis::DeadlockEdge &e : f.edges) {
            os << "\t" << esc(e.heldLock) << "\t"
               << esc(e.acquiredLock) << "\t" << esc(e.method) << "\t"
               << e.instrIdx << "\t" << esc(e.actionLabel);
        }
        os << "\n";
    }
    for (const auto &[method, hash] : a.footprint) {
        os << "fp\t" << esc(method) << "\t"
           << analysis::store::hashHex(hash) << "\n";
    }
    return os.str();
}

std::optional<HarnessArtifact>
parseArtifact(std::string_view blob)
{
    // As std::getline: an empty blob has no first line.
    if (blob.empty())
        return std::nullopt;
    const size_t first_nl = blob.find('\n');
    if (blob.substr(0, first_nl) != kMagic)
        return std::nullopt;

    HarnessArtifact a;
    bool saw_activity = false, saw_counts = false, ok = true;
    std::vector<std::string_view> f;
    auto parseLine = [&](std::string_view line) {
        if (line.empty())
            return true;
        splitFields(line, f);
        const std::string_view tag = f[0];
        if (tag == "activity" && f.size() == 2) {
            a.activity = unesc(f[1]);
            saw_activity = true;
        } else if (tag == "counts" && f.size() == 7) {
            int64_t v[6];
            for (int i = 0; i < 6; ++i) {
                if (!parseInt(f[i + 1], v[i]))
                    return false;
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
                return false;
            if (!analysis::nullVerdictFromName(f[8], r.severity))
                return false;
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
                return false;
            u.fieldKey = unesc(f[1]);
            u.teardownAction = unesc(f[2]);
            u.useAction = unesc(f[3]);
            u.writeMethod = unesc(f[4]);
            u.readMethod = unesc(f[5]);
            u.writeInstr = static_cast<int>(wi);
            u.readInstr = static_cast<int>(ri);
            a.useAfterDestroy.push_back(std::move(u));
        } else if (tag == "dl" && f.size() >= 2) {
            // n edges of 5 fields each after the tag and the count.
            int64_t n;
            if (!parseInt(f[1], n) || n < 0 ||
                (f.size() - 2) % 5 != 0 ||
                static_cast<uint64_t>(n) != (f.size() - 2) / 5)
                return false;
            analysis::DeadlockFinding d;
            for (int64_t i = 0; i < n; ++i) {
                size_t base = 2 + static_cast<size_t>(i) * 5;
                analysis::DeadlockEdge e;
                int64_t instr;
                if (!parseInt(f[base + 3], instr))
                    return false;
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
            if (!analysis::store::parseHashHex(f[2], hash))
                return false;
            a.footprint.emplace_back(unesc(f[1]), hash);
        } else {
            return false;
        }
        return true;
    };
    if (first_nl != std::string_view::npos) {
        analysis::store::forEachLine(
            blob.substr(first_nl + 1), [&](std::string_view line) {
                ok = ok && parseLine(line);
            });
    }
    if (!ok || !saw_activity || !saw_counts)
        return std::nullopt;
    return a;
}

} // namespace sierra
