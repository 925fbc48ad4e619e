/**
 * @file
 * The daemon's wire behavior (docs/DAEMON_PROTOCOL.md): canonical JSON
 * round-trips, every documented error code, pre-cancellation, the
 * serveLoop lifecycle over plain streams, and warm analyze hits via
 * the session-owned store.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "corpus/named_apps.hh"
#include "framework/app_text.hh"
#include "serve/serve.hh"

namespace sierra::serve {
namespace {

int64_t
counterValue(const ServeSession &session, const std::string &name)
{
    for (const auto &[counter, value] : session.metrics().counters()) {
        if (counter == name)
            return value;
    }
    return 0;
}

Json
parseOk(const std::string &text)
{
    Json out;
    std::string error;
    EXPECT_TRUE(Json::parse(text, out, error)) << error << ": " << text;
    return out;
}

TEST(Protocol, DumpIsCanonical)
{
    Json obj = Json::object();
    obj.set("b", Json::integer(1));
    obj.set("a", Json::str("x"));
    Json arr = Json::array();
    arr.push(Json::boolean(true));
    arr.push(Json::null());
    arr.push(Json::integer(-7));
    obj.set("list", std::move(arr));
    // Insertion order, no whitespace -- NOT sorted keys.
    EXPECT_EQ(obj.dump(), R"({"b":1,"a":"x","list":[true,null,-7]})");

    Json esc = Json::object();
    esc.set("s", Json::str("tab\tquote\"back\\nl\nctl\x01"));
    EXPECT_EQ(esc.dump(),
              "{\"s\":\"tab\\tquote\\\"back\\\\nl\\nctl\\u0001\"}");
}

TEST(Protocol, ParseRoundTripsDump)
{
    const std::string text =
        R"({"id":3,"kind":"analyze","nested":{"deep":[1,2,{"x":null}]},"ok":false})";
    EXPECT_EQ(parseOk(text).dump(), text);
    // Whitespace-tolerant on input, canonical on output.
    EXPECT_EQ(parseOk(" { \"a\" : [ 1 , 2 ] } ").dump(),
              R"({"a":[1,2]})");
    // \u escapes decode (and re-encode raw when printable ASCII).
    EXPECT_EQ(parseOk(R"({"s":"A"})").dump(), R"({"s":"A"})");
}

TEST(Protocol, ParseRejectsMalformedInput)
{
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse("", out, error));
    EXPECT_FALSE(Json::parse("{", out, error));
    EXPECT_FALSE(Json::parse("{\"a\":}", out, error));
    EXPECT_FALSE(Json::parse("[1,]", out, error));
    EXPECT_FALSE(Json::parse("\"unterminated", out, error));
    EXPECT_FALSE(Json::parse("{} extra", out, error));
    EXPECT_FALSE(Json::parse("nul", out, error));
    // The protocol is integer-only: reals are a parse error, not a
    // silent truncation.
    EXPECT_FALSE(Json::parse("{\"x\":1.5}", out, error));
    EXPECT_FALSE(Json::parse("{\"x\":1e3}", out, error));
}

TEST(Serve, PingHelloAndShutdown)
{
    ServeSession session(ServeOptions{});
    EXPECT_EQ(session.handleLine(R"({"id":1,"kind":"ping"})"),
              R"({"id":1,"result":{"pong":true}})");
    EXPECT_EQ(
        session.handleLine(R"({"id":2,"kind":"hello"})"),
        R"({"id":2,"result":{"server":"sierra","schemaVersion":2,"store":"memory"}})");
    EXPECT_FALSE(session.done());
    EXPECT_EQ(session.handleLine(R"({"id":3,"kind":"shutdown"})"),
              R"({"id":3,"result":{"shutdown":true}})");
    EXPECT_TRUE(session.done());
}

TEST(Serve, ErrorCodes)
{
    ServeSession session(ServeOptions{});
    // bad-json: unparseable line; id unknowable, reported as 0.
    Json r = parseOk(session.handleLine("not json"));
    EXPECT_EQ(r.field("id")->asInt(), 0);
    EXPECT_EQ(r.field("error")->field("code")->asStr(), "bad-json");
    // bad-json: parseable but not an object.
    r = parseOk(session.handleLine("[1,2]"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(), "bad-json");
    // missing-field: no id.
    r = parseOk(session.handleLine(R"({"kind":"ping"})"));
    EXPECT_EQ(r.field("id")->asInt(), 0);
    EXPECT_EQ(r.field("error")->field("code")->asStr(),
              "missing-field");
    // missing-field: no kind (id echoes back).
    r = parseOk(session.handleLine(R"({"id":9})"));
    EXPECT_EQ(r.field("id")->asInt(), 9);
    EXPECT_EQ(r.field("error")->field("code")->asStr(),
              "missing-field");
    // missing-field: analyze without app.
    r = parseOk(session.handleLine(R"({"id":10,"kind":"analyze"})"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(),
              "missing-field");
    // unknown-kind.
    r = parseOk(session.handleLine(R"({"id":11,"kind":"frobnicate"})"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(),
              "unknown-kind");
    // parse-error: analyze with a malformed app bundle.
    r = parseOk(session.handleLine(
        R"({"id":12,"kind":"analyze","app":"not an app bundle"})"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(), "parse-error");
    EXPECT_NE(r.field("error")->field("message")->asStr().find("line"),
              std::string::npos);

    EXPECT_EQ(counterValue(session, "serve.errors"), 7);
}

TEST(Serve, PreCancellation)
{
    ServeSession session(ServeOptions{});
    // The loop is serial: cancel names a FUTURE id.
    EXPECT_EQ(
        session.handleLine(R"({"id":1,"kind":"cancel","target":5})"),
        R"({"id":1,"result":{"target":5}})");
    // Unrelated ids are unaffected.
    Json r = parseOk(session.handleLine(R"({"id":2,"kind":"ping"})"));
    EXPECT_NE(r.field("result"), nullptr);
    // The canceled id is rejected when it arrives...
    r = parseOk(session.handleLine(R"({"id":5,"kind":"ping"})"));
    EXPECT_EQ(r.field("error")->field("code")->asStr(), "canceled");
    // ...exactly once: the mark is consumed.
    r = parseOk(session.handleLine(R"({"id":5,"kind":"ping"})"));
    EXPECT_NE(r.field("result"), nullptr);
    EXPECT_EQ(counterValue(session, "serve.canceled"), 1);
}

TEST(Serve, AnalyzeWarmHitThroughSessionStore)
{
    corpus::BuiltApp built = corpus::buildNamedApp("OpenSudoku");
    const std::string app_text = framework::printAppText(*built.app);

    Json request = Json::object();
    request.set("id", Json::integer(1));
    request.set("kind", Json::str("analyze"));
    request.set("app", Json::str(app_text));

    ServeSession session(ServeOptions{});
    Json cold = parseOk(session.handleLine(request.dump()));
    const Json *cold_result = cold.field("result");
    ASSERT_NE(cold_result, nullptr);
    EXPECT_EQ(cold_result->field("app")->asStr(), "OpenSudoku");
    const Json *cold_store = cold_result->field("store");
    EXPECT_EQ(cold_store->field("harnessesReused")->asInt(), 0);
    EXPECT_GT(cold_store->field("harnessesComputed")->asInt(), 0);
    // The footprint decides reuse; no per-app diff is reported.
    for (const char *gone : {"firstSubmission", "methodsChanged",
                             "dirtyMethods", "shapeChanged"})
        EXPECT_EQ(cold_store->field(gone), nullptr) << gone;

    request.set("id", Json::integer(2));
    Json warm = parseOk(session.handleLine(request.dump()));
    const Json *warm_result = warm.field("result");
    ASSERT_NE(warm_result, nullptr);
    const Json *warm_store = warm_result->field("store");
    EXPECT_EQ(warm_store->field("harnessesComputed")->asInt(), 0);
    EXPECT_EQ(warm_store->field("harnessesReused")->asInt(),
              cold_store->field("harnessesComputed")->asInt());
    EXPECT_EQ(warm_store->field("methodsTotal")->asInt(),
              cold_store->field("methodsTotal")->asInt());
    // Warm == cold on the wire too: same report string, same counts.
    EXPECT_EQ(warm_result->field("report")->asStr(),
              cold_result->field("report")->asStr());
    EXPECT_EQ(warm_result->field("races")->asInt(),
              cold_result->field("races")->asInt());

    EXPECT_GT(counterValue(session, "store.harness_hits"), 0);
}

TEST(Serve, OutOfRangeNumbersAreParseErrorsNotCrashes)
{
    corpus::BuiltApp built = corpus::buildNamedApp("VuDroid");
    const std::string app_text = framework::printAppText(*built.app);
    auto analyze = [](int id, const std::string &text) {
        Json request = Json::object();
        request.set("id", Json::integer(id));
        request.set("kind", Json::str("analyze"));
        request.set("app", Json::str(text));
        return request.dump();
    };

    ServeSession session(ServeOptions{});
    const char *hostile[] = {
        "r0 = const 99999999999999999999",
        "r99999999999 = const 1",
        "goto @99999999999999999999",
        "goto @4294967296",
    };
    int id = 1;
    for (const char *instr : hostile) {
        std::string text = app_text +
                           "class Hostile {\n"
                           "    static method f(): void regs=1 {\n"
                           "        @0: " + instr + "\n"
                           "    }\n"
                           "}\n";
        Json r = parseOk(session.handleLine(analyze(id++, text)));
        ASSERT_NE(r.field("error"), nullptr) << instr;
        EXPECT_EQ(r.field("error")->field("code")->asStr(), "parse-error")
            << instr;
        EXPECT_NE(r.field("error")->field("message")->asStr().find(
                      "out of range"),
                  std::string::npos)
            << instr;
    }

    // The session survives and still answers a valid request.
    Json ok = parseOk(session.handleLine(analyze(id, app_text)));
    ASSERT_NE(ok.field("result"), nullptr);
    EXPECT_EQ(ok.field("result")->field("app")->asStr(), "VuDroid");
}

TEST(Serve, DeepNestingIsBadJsonNotACrash)
{
    // Nesting up to the limit parses; one level more is rejected
    // before recursing any deeper.
    auto nested = [](int depth) {
        return std::string(static_cast<size_t>(depth), '[') +
               std::string(static_cast<size_t>(depth), ']');
    };
    Json out;
    std::string error;
    EXPECT_TRUE(Json::parse(nested(Json::kMaxNesting), out, error))
        << error;
    EXPECT_FALSE(Json::parse(nested(Json::kMaxNesting + 1), out, error));
    EXPECT_EQ(error, "nesting deeper than 64 at offset 64");

    std::string objects = R"({"id":1,"kind":"ping","x":)";
    for (int i = 0; i < 50000; ++i)
        objects += R"({"a":)";
    ServeSession session(ServeOptions{});
    const std::string hostile[] = {std::string(50000, '['), objects};
    for (const std::string &line : hostile) {
        Json r = parseOk(session.handleLine(line));
        EXPECT_EQ(r.field("id")->asInt(), 0);
        EXPECT_EQ(r.field("error")->field("code")->asStr(), "bad-json");
        EXPECT_NE(r.field("error")->field("message")->asStr().find(
                      "nesting deeper than 64"),
                  std::string::npos);
    }

    // The session survives and still answers a valid request.
    EXPECT_EQ(session.handleLine(R"({"id":2,"kind":"ping"})"),
              R"({"id":2,"result":{"pong":true}})");
}

TEST(Serve, OutOfRangeIntegersAreBadJsonNotACrash)
{
    Json out;
    std::string error;
    ASSERT_TRUE(Json::parse("[9223372036854775807,-9223372036854775808]",
                            out, error))
        << error;
    EXPECT_EQ(out.items()[0].asInt(),
              std::numeric_limits<int64_t>::max());
    EXPECT_EQ(out.items()[1].asInt(),
              std::numeric_limits<int64_t>::min());

    ServeSession session(ServeOptions{});
    const char *hostile[] = {
        R"({"id":99999999999999999999,"kind":"stats"})",
        R"({"id":9223372036854775808,"kind":"stats"})",
        R"({"id":-9223372036854775809,"kind":"stats"})",
        R"({"id":1,"kind":"analyze","jobs":99999999999999999999})",
    };
    for (const char *line : hostile) {
        Json r = parseOk(session.handleLine(line));
        EXPECT_EQ(r.field("id")->asInt(), 0) << line;
        EXPECT_EQ(r.field("error")->field("code")->asStr(), "bad-json")
            << line;
        EXPECT_NE(r.field("error")->field("message")->asStr().find(
                      "integer out of range at offset"),
                  std::string::npos)
            << line;
    }
    Json r = parseOk(session.handleLine(hostile[0]));
    EXPECT_EQ(r.field("error")->field("message")->asStr(),
              "integer out of range at offset 6");

    // The session survives and still answers a valid request.
    EXPECT_EQ(session.handleLine(R"({"id":2,"kind":"ping"})"),
              R"({"id":2,"result":{"pong":true}})");
}

TEST(Serve, LoopRunsUntilShutdownAndIgnoresBlankLines)
{
    std::istringstream in("{\"id\":1,\"kind\":\"ping\"}\n"
                          "\n"
                          "{\"id\":2,\"kind\":\"stats\"}\n"
                          "{\"id\":3,\"kind\":\"shutdown\"}\n"
                          "{\"id\":4,\"kind\":\"ping\"}\n");
    std::ostringstream out;
    int handled = serveLoop(in, out, ServeOptions{});
    EXPECT_EQ(handled, 3) << "shutdown must stop the loop";

    std::istringstream lines(out.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        Json r = parseOk(line);
        EXPECT_NE(r.field("id"), nullptr);
        ++count;
    }
    EXPECT_EQ(count, 3);
}

TEST(Serve, StatsReportsCountersAndStoreTraffic)
{
    ServeSession session(ServeOptions{});
    session.handleLine(R"({"id":1,"kind":"ping"})");
    Json r = parseOk(session.handleLine(R"({"id":2,"kind":"stats"})"));
    const Json *result = r.field("result");
    ASSERT_NE(result, nullptr);
    // Counts include the stats request itself (incremented on entry).
    EXPECT_EQ(result->field("counters")->field("serve.requests")
                  ->asInt(),
              2);
    const Json *store = result->field("store");
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->field("puts")->asInt(), 0);
}

} // namespace
} // namespace sierra::serve
