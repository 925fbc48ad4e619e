/**
 * @file
 * Hostile-input sweeps of the jsonl protocol: ServeSession::handleLine
 * on deterministic random bytes, on mutated and truncated real
 * `analyze` requests (parser_sweeps.hh), and on deep nesting, long
 * digit runs and bad escapes. Every line must get one well-formed
 * response -- a result, or an error with one of the documented stable
 * codes (docs/DAEMON_PROTOCOL.md) -- with no crash and no hang, and
 * the same session must then answer a `ping`.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "corpus/named_apps.hh"
#include "framework/app_text.hh"
#include "parser_sweeps.hh"
#include "serve/serve.hh"

namespace sierra::serve {
namespace {

/** The documented error codes. */
const std::set<std::string> &
stableCodes()
{
    static const std::set<std::string> codes = {
        "bad-json", "missing-field", "unknown-kind", "parse-error",
        "canceled"};
    return codes;
}

/** Feeds lines to one session and checks every response. */
class Sweep
{
  public:
    /**
     * Send `line`; the response must be a JSON object with an integer
     * id and either a result or an error with a stable code. Returns
     * the error code, or "" for a result. A ping must then succeed.
     */
    std::string
    send(const std::string &line, const std::string &what)
    {
        const std::string code = check(_session.handleLine(line), what);
        // Ping ids count down from far above any id the sweeps use, so
        // no swept `cancel` can have marked one.
        const int64_t ping_id = _nextPing--;
        const std::string pong =
            "{\"id\":" + std::to_string(ping_id) +
            ",\"result\":{\"pong\":true}}";
        EXPECT_EQ(_session.handleLine("{\"id\":" + std::to_string(ping_id) +
                                      ",\"kind\":\"ping\"}"),
                  pong)
            << "after " << what;
        return code;
    }

  private:
    static std::string
    check(const std::string &response, const std::string &what)
    {
        Json r;
        std::string error;
        if (!Json::parse(response, r, error) || !r.isObject()) {
            ADD_FAILURE() << what << ": malformed response " << response;
            return "?";
        }
        const Json *id = r.field("id");
        EXPECT_TRUE(id && id->kind() == Json::Kind::Int) << what;
        const Json *result = r.field("result");
        const Json *err = r.field("error");
        if (result) {
            EXPECT_EQ(err, nullptr) << what;
            return "";
        }
        if (!err || !err->field("code") ||
            err->field("code")->kind() != Json::Kind::Str) {
            ADD_FAILURE() << what << ": no result and no error code in "
                          << response;
            return "?";
        }
        const std::string &code = err->field("code")->asStr();
        EXPECT_TRUE(stableCodes().count(code))
            << what << ": unknown error code " << code;
        const Json *message = err->field("message");
        EXPECT_TRUE(message && message->kind() == Json::Kind::Str) << what;
        return code;
    }

    ServeSession _session{ServeOptions{}};
    int64_t _nextPing{4'000'000'000'000'000'000};
};

/** A real analyze request for a small corpus app. */
std::string
analyzeRequest()
{
    corpus::BuiltApp built = corpus::buildNamedApp("VuDroid");
    Json request = Json::object();
    request.set("id", Json::integer(7));
    request.set("kind", Json::str("analyze"));
    request.set("app", Json::str(framework::printAppText(*built.app)));
    return request.dump();
}

TEST(ServeSweep, RandomBytesAreRejected)
{
    // Biased toward JSON's structural characters and the protocol's
    // words so the parser gets past the first byte; plus every byte
    // value, NUL and invalid UTF-8 included.
    static const std::string alphabet =
        "{}[]\":,\\ \t0123456789-+.eE truefalsenull"
        "\"id\"\"kind\"\"ping\"\"analyze\"\"app\"\\u00";
    std::mt19937 rng(0x75EB);
    Sweep sweep;
    for (int i = 0; i < 1500; ++i) {
        std::string line;
        const size_t len = rng() % 120;
        for (size_t j = 0; j < len; ++j) {
            line += (rng() % 4 == 0)
                        ? static_cast<char>(rng() % 256)
                        : alphabet[rng() % alphabet.size()];
        }
        const std::string code =
            sweep.send(line, "random line " + std::to_string(i));
        EXPECT_NE(code, "") << "random line " << i << " was answered: "
                            << line;
    }
}

TEST(ServeSweep, MutatedAndTruncatedAnalyzeRequests)
{
    const std::string request = analyzeRequest();
    Sweep sweep;
    // The unmutated request is answered.
    EXPECT_EQ(sweep.send(request, "the real request"), "");

    int i = 0, errors = 0;
    for (const std::string &line :
         test::mutatedInputs(request, 0x5E4E, 300, "{}[]\":,\\x0-")) {
        if (sweep.send(line, "mutated request " + std::to_string(i++)) != "")
            ++errors;
    }
    EXPECT_GT(errors, 50) << "the mutations must reach the error paths";

    // Every proper prefix is cut short: bad JSON.
    i = 0;
    for (const std::string &line : test::prefixInputs(request, 150)) {
        EXPECT_EQ(sweep.send(line, "truncated request " + std::to_string(i)),
                  "bad-json")
            << "prefix of " << line.size() << " bytes";
        ++i;
    }
}

TEST(ServeSweep, DeepNestingLongDigitsAndBadEscapes)
{
    std::vector<std::string> hostile;
    for (int depth : {Json::kMaxNesting + 1, 1000, 100000}) {
        hostile.push_back(std::string(static_cast<size_t>(depth), '['));
        hostile.push_back(std::string(static_cast<size_t>(depth), '[') +
                          std::string(static_cast<size_t>(depth), ']'));
        std::string objects = R"({"id":1,"kind":"ping","x":)";
        for (int i = 0; i < depth; ++i)
            objects += R"({"a":)";
        hostile.push_back(objects);
        std::string mixed;
        for (int i = 0; i < depth; ++i)
            mixed += (i % 2) ? R"({"k":)" : "[";
        hostile.push_back(mixed);
    }
    for (size_t digits : {19, 20, 40, 1000, 100000}) {
        const std::string run(digits, '9');
        hostile.push_back(R"({"id":)" + run + R"(,"kind":"ping"})");
        hostile.push_back(R"({"id":-)" + run + R"(,"kind":"ping"})");
        hostile.push_back(R"({"id":1,"kind":"analyze","jobs":)" + run +
                          "}");
        hostile.push_back("[" + run + "]");
        hostile.push_back(R"({"id":1.)" + run + R"(,"kind":"ping"})");
    }
    for (const char *escape :
         {R"(\x)", R"(\u)", R"(\u12)", R"(\u12G4)", R"(\uD800)",
          R"(\uDC00)", R"(\)", R"(\0)", R"(\')", R"(\U0041)"}) {
        hostile.push_back(std::string(R"({"id":1,"kind":"pi)") + escape +
                          R"(ng"})");
        hostile.push_back(std::string(R"({"id":1,"kind":"analyze","app":")") +
                          escape + "\"}");
        hostile.push_back(std::string(R"({")") + escape + R"(":1})");
    }
    Sweep sweep;
    int i = 0;
    for (const std::string &line : hostile) {
        const std::string what = "hostile line " + std::to_string(i++);
        const std::string code = sweep.send(line, what);
        EXPECT_NE(code, "") << what << ": " << line.substr(0, 80);
    }
}

} // namespace
} // namespace sierra::serve
