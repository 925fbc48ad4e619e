/**
 * @file
 * Tests for the Chrome trace-event session (util/trace): the output is
 * strictly valid JSON, every duration span is balanced, every enabled
 * pipeline stage gets a span, and the event *set* (excluding the
 * jobs-dependent "worker" category) is identical at every jobs count.
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/named_apps.hh"
#include "sierra/detector.hh"
#include "util/trace.hh"

namespace sierra {
namespace {

namespace trace = util::trace;

/*
 * Minimal strict JSON parser — enough to validate the trace output
 * without third-party dependencies. Values are returned as a small
 * variant tree; any syntax error fails the parse (no recovery).
 */
struct JsonValue {
    enum Kind { Null, Bool, Number, String, Array, Object } kind{Null};
    bool boolean{false};
    double number{0};
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue *
    field(const std::string &name) const
    {
        auto it = object.find(name);
        return it == object.end() ? nullptr : &it->second;
    }
    std::string
    str(const std::string &name) const
    {
        const JsonValue *v = field(name);
        return v && v->kind == String ? v->string : "";
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _text(text) {}

    bool
    parse(JsonValue &out)
    {
        bool ok = value(out);
        skipWs();
        return ok && _pos == _text.size();
    }

  private:
    const std::string &_text;
    size_t _pos{0};

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }
    bool
    consume(char c)
    {
        skipWs();
        if (_pos >= _text.size() || _text[_pos] != c)
            return false;
        ++_pos;
        return true;
    }
    bool
    literal(const char *word, JsonValue &out, JsonValue::Kind kind,
            bool b)
    {
        size_t n = std::strlen(word);
        if (_text.compare(_pos, n, word) != 0)
            return false;
        _pos += n;
        out.kind = kind;
        out.boolean = b;
        return true;
    }
    bool
    stringValue(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (_pos < _text.size()) {
            char c = _text[_pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (_pos >= _text.size())
                    return false;
                char e = _text[_pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (_pos + 4 > _text.size())
                        return false;
                    out += '?'; // decoded value irrelevant to tests
                    _pos += 4;
                    break;
                  }
                  default: return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false; // control chars must be escaped
            } else {
                out += c;
            }
        }
        return false;
    }
    bool
    value(JsonValue &out)
    {
        skipWs();
        if (_pos >= _text.size())
            return false;
        char c = _text[_pos];
        if (c == 'n')
            return literal("null", out, JsonValue::Null, false);
        if (c == 't')
            return literal("true", out, JsonValue::Bool, true);
        if (c == 'f')
            return literal("false", out, JsonValue::Bool, false);
        if (c == '"') {
            out.kind = JsonValue::String;
            return stringValue(out.string);
        }
        if (c == '[') {
            ++_pos;
            out.kind = JsonValue::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                JsonValue elem;
                if (!value(elem))
                    return false;
                out.array.push_back(std::move(elem));
                if (consume(']'))
                    return true;
                if (!consume(','))
                    return false;
            }
        }
        if (c == '{') {
            ++_pos;
            out.kind = JsonValue::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                skipWs();
                std::string key;
                if (!stringValue(key))
                    return false;
                if (!consume(':'))
                    return false;
                JsonValue elem;
                if (!value(elem))
                    return false;
                out.object.emplace(std::move(key), std::move(elem));
                if (consume('}'))
                    return true;
                if (!consume(','))
                    return false;
            }
        }
        // Number.
        size_t start = _pos;
        if (c == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            return false;
        try {
            out.number = std::stod(_text.substr(start, _pos - start));
        } catch (...) {
            return false;
        }
        out.kind = JsonValue::Number;
        return true;
    }
};

/** RAII: guarantee the global session is stopped and empty afterwards
 *  so tests compose when the whole binary runs in one process. */
struct SessionGuard {
    ~SessionGuard()
    {
        trace::stop();
        trace::clear();
    }
};

/** Run the detector on a corpus app with tracing on; return the
 *  parsed trace events. */
std::vector<JsonValue>
traceAnalyze(const std::string &app_name, int jobs,
             SierraOptions options = {})
{
    corpus::BuiltApp built = corpus::buildNamedApp(app_name);
    SierraDetector detector(*built.app);
    options.jobs = jobs;
    trace::start();
    detector.analyze(options);
    trace::stop();
    std::string json = trace::toJson();
    trace::clear();

    JsonValue root;
    EXPECT_TRUE(JsonParser(json).parse(root)) << json.substr(0, 400);
    EXPECT_EQ(root.kind, JsonValue::Object);
    const JsonValue *events = root.field("traceEvents");
    EXPECT_NE(events, nullptr);
    EXPECT_EQ(events->kind, JsonValue::Array);
    return events ? events->array : std::vector<JsonValue>{};
}

TEST(Trace, DisabledByDefaultCollectsNothing)
{
    SessionGuard guard;
    trace::clear();
    ASSERT_FALSE(trace::enabled());
    trace::instant("test", "ignored");
    { SIERRA_TRACE_SPAN(span, "test", "ignored", std::string()); }
    EXPECT_EQ(trace::eventCount(), 0u);
}

TEST(Trace, SpanMacroSkipsArgEvaluationWhenDisabled)
{
    SessionGuard guard;
    ASSERT_FALSE(trace::enabled());
    int evaluations = 0;
    // Unused when SIERRA_TRACE_DISABLED compiles the call site out,
    // which evaluates no argument either, so the check holds in both
    // builds.
    [[maybe_unused]] auto expensive = [&]() {
        ++evaluations;
        return std::string("{}");
    };
    {
        SIERRA_TRACE_SPAN(span, "test", "lazy", expensive());
    }
    EXPECT_EQ(evaluations, 0);
}

// The next two tests (and InstantEventsPerRefutedPair below) assert
// that instrumentation points actually emit events, so they cannot
// run when -DSIERRA_DISABLE_TRACING=ON compiles the call sites out.
#ifndef SIERRA_TRACE_DISABLED

TEST(Trace, ValidJsonBalancedSpans)
{
    SessionGuard guard;
    std::vector<JsonValue> events = traceAnalyze("OpenSudoku", 1);
    ASSERT_FALSE(events.empty());

    // Every event has the mandatory fields; B/E nest per track.
    std::map<double, std::vector<std::string>> stacks;
    for (const JsonValue &e : events) {
        std::string ph = e.str("ph");
        ASSERT_FALSE(ph.empty());
        const JsonValue *tid = e.field("tid");
        ASSERT_NE(tid, nullptr);
        ASSERT_EQ(tid->kind, JsonValue::Number);
        if (ph == "M")
            continue;
        const JsonValue *ts = e.field("ts");
        ASSERT_NE(ts, nullptr);
        ASSERT_EQ(ts->kind, JsonValue::Number);
        ASSERT_GE(ts->number, 0.0);
        if (ph == "B") {
            stacks[tid->number].push_back(e.str("name"));
        } else if (ph == "E") {
            auto &stack = stacks[tid->number];
            ASSERT_FALSE(stack.empty())
                << "E without B: " << e.str("name");
            EXPECT_EQ(stack.back(), e.str("name"));
            stack.pop_back();
        } else {
            EXPECT_EQ(ph, "i") << "unexpected phase " << ph;
            EXPECT_EQ(e.str("s"), "t");
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

/** Names of the `stage` spans among the events. */
std::set<std::string>
stageSpanNames(const std::vector<JsonValue> &events)
{
    std::set<std::string> names;
    for (const JsonValue &e : events) {
        if (e.str("ph") == "B" && e.str("cat") == "stage")
            names.insert(e.str("name"));
    }
    return names;
}

TEST(Trace, EverySierraStageGetsASpan)
{
    SessionGuard guard;
    std::set<std::string> stage_names =
        stageSpanNames(traceAnalyze("OpenSudoku", 1));
    for (const char *expected :
         {"stage.cg_pa", "stage.hbg", "stage.dataflow",
          "stage.racy.extract", "stage.escape", "stage.racy.pairs",
          "stage.lockset", "stage.deadlock", "stage.enablement",
          "stage.ifds", "stage.refutation", "stage.nullflow"}) {
        EXPECT_TRUE(stage_names.count(expected))
            << "missing span for " << expected;
    }
}

TEST(Trace, DisabledStageEmitsNoSpan)
{
    // The one rule for disabled stages: no span at all (and a zero
    // StageTimes field); every other stage keeps its span.
    SessionGuard guard;
    for (const StageDesc &d : stageTable()) {
        if (!d.toggle)
            continue;
        SierraOptions off;
        off.*d.toggle = false;
        std::set<std::string> names =
            stageSpanNames(traceAnalyze("OpenSudoku", 1, off));
        for (const StageDesc &other : stageTable()) {
            for (const char *span : other.spans) {
                if (!span)
                    continue;
                EXPECT_EQ(names.count(span), other.id == d.id ? 0u : 1u)
                    << span << " under " << d.flag;
            }
        }
    }
}

#endif // SIERRA_TRACE_DISABLED

TEST(Trace, EventSetIsJobsDeterministicOutsideWorkerCategory)
{
    SessionGuard guard;
    auto signature = [](const std::vector<JsonValue> &events) {
        // Multiset of (ph, cat, name); "worker" spans and per-thread
        // metadata legitimately vary with the worker count.
        std::multiset<std::string> out;
        for (const JsonValue &e : events) {
            std::string ph = e.str("ph");
            std::string cat = e.str("cat");
            if (ph == "M" || cat == "worker")
                continue;
            out.insert(ph + "|" + cat + "|" + e.str("name"));
        }
        return out;
    };
    auto serial = signature(traceAnalyze("ConnectBot", 1));
    auto parallel = signature(traceAnalyze("ConnectBot", 4));
    EXPECT_EQ(serial, parallel);
}

#ifndef SIERRA_TRACE_DISABLED

TEST(Trace, InstantEventsPerRefutedPair)
{
    SessionGuard guard;
    // ConnectBot has both lockset and symbolic refutations.
    corpus::BuiltApp built = corpus::buildNamedApp("ConnectBot");
    SierraDetector detector(*built.app);
    SierraOptions options;
    options.jobs = 1;
    trace::start();
    AppReport report = detector.analyze(options);
    trace::stop();
    std::string json = trace::toJson();
    trace::clear();
    JsonValue root;
    ASSERT_TRUE(JsonParser(json).parse(root));

    int lockset = 0, symbolic = 0;
    for (const JsonValue &e : root.field("traceEvents")->array) {
        if (e.str("ph") != "i" || e.str("cat") != "refutation")
            continue;
        const JsonValue *args = e.field("args");
        ASSERT_NE(args, nullptr);
        std::string by = args->str("by");
        if (by == "lockset")
            ++lockset;
        else if (by == "symbolic")
            ++symbolic;
    }
    EXPECT_EQ(lockset, report.locksetRefuted);
    int symbolic_expected = 0;
    for (const HarnessAnalysis &ha : report.perHarness)
        symbolic_expected += ha.refutation.refuted;
    EXPECT_EQ(symbolic, symbolic_expected);
}

#endif // SIERRA_TRACE_DISABLED

TEST(Trace, WriteJsonProducesParseableFile)
{
    SessionGuard guard;
    trace::start();
    trace::instant("test", "marker");
    std::string path = ::testing::TempDir() + "sierra_trace_test.json";
    ASSERT_TRUE(trace::writeJson(path));
    EXPECT_FALSE(trace::enabled()); // writeJson stops the session

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    JsonValue root;
    ASSERT_TRUE(JsonParser(buffer.str()).parse(root));
    EXPECT_EQ(root.str("displayTimeUnit"), "ms");
    std::remove(path.c_str());
}

TEST(Trace, StopPreventsLaterRecording)
{
    SessionGuard guard;
    trace::start();
    trace::instant("test", "one");
    trace::stop();
    trace::instant("test", "two");
    EXPECT_EQ(trace::eventCount(), 1u);
    trace::clear();
    EXPECT_EQ(trace::eventCount(), 0u);
}

} // namespace
} // namespace sierra
