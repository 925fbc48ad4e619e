/**
 * @file
 * A long reverse-ordered chain of moves: the points-to engine's local
 * fixpoint over one node needs one pass per move, and it must run them
 * all. A method whose body reads `r1101 = r1100` at @0, ..., `r2 = r1`
 * at @1099 and only then `r1 = new Main` moves the object one register
 * per pass, so the node takes 1,102 local passes. The app is valid
 * AIR; analysing it gives a report, through the CLI and through the
 * serve daemon, which keeps answering afterwards.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cli.hh"
#include "framework/app_text.hh"
#include "serve/serve.hh"
#include "sierra/detector.hh"
#include "test_helpers.hh"

namespace sierra {
namespace {

constexpr int kMoves = 1100;

/** The move-chain app as bundle text. */
std::string
moveChainApp()
{
    std::ostringstream os;
    os << "app \"MoveChain\" {\n"
          "    package \"org.example.movechain\"\n"
          "    activity Main main\n"
          "}\n\n"
          "class Main extends android.app.Activity {\n"
          "    field held: Main\n"
          "    method <init>() : void regs=1 {\n"
          "        @0: return-void\n"
          "    }\n"
       << "    method onCreate() : void regs=" << kMoves + 2 << " {\n";
    for (int i = 0; i < kMoves; ++i) {
        os << "        @" << i << ": r" << kMoves + 1 - i << " = r"
           << kMoves - i << "\n";
    }
    os << "        @" << kMoves << ": r1 = new Main\n"
       << "        @" << kMoves + 1 << ": putfield r0.Main.held = r"
       << kMoves + 1 << "\n"
       << "        @" << kMoves + 2 << ": return-void\n"
       << "    }\n"
          "}\n";
    return os.str();
}

/** `s` as a JSON string literal. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out + "\"";
}

TEST(MoveChain, LastRegisterHoldsTheAllocation)
{
    framework::AppTextResult parsed = framework::parseAppText(moveChainApp());
    ASSERT_TRUE(parsed.ok()) << parsed.error << " line " << parsed.errorLine;
    SierraDetector detector(*parsed.app);
    AppReport report = detector.analyze(SierraOptions{});
    ASSERT_EQ(report.perHarness.size(), 1u);
    const analysis::PointsToResult &r = *report.perHarness[0].pta;
    int checked = 0;
    for (analysis::NodeId n = 0; n < r.cg.numNodes(); ++n) {
        const air::Method *m = r.cg.node(n).method;
        if (m->qualifiedName() != "Main.onCreate")
            continue;
        const analysis::ObjSet &pts = r.pointsTo(n, kMoves + 1);
        ASSERT_EQ(pts.size(), 1u);
        const analysis::HeapObject &o = r.objects.get(*pts.begin());
        EXPECT_EQ(o.kind, analysis::ObjKind::Site);
        EXPECT_EQ(o.klassName, "Main");
        EXPECT_EQ(r.sites.instrOf(o.site), kMoves);
        ++checked;
    }
    EXPECT_EQ(checked, 1);
    EXPECT_GT(r.stats.localPasses, kMoves);
}

TEST(MoveChain, CliAnalyzeGivesAReport)
{
    test::TempFile file(".air");
    {
        std::ofstream out(file.path());
        out << moveChainApp();
    }
    std::ostringstream out;
    std::ostringstream err;
    int code = cli::runCli({"analyze", file.path()}, out, err);
    EXPECT_EQ(code, 0) << err.str();
    EXPECT_NE(out.str().find("SIERRA report"), std::string::npos);
}

TEST(MoveChain, ServeAnswersTheAnalyzeAndThenAPing)
{
    serve::ServeSession session(serve::ServeOptions{});
    std::string reply = session.handleLine(
        "{\"id\":1,\"kind\":\"analyze\",\"app\":" +
        jsonString(moveChainApp()) + "}");
    EXPECT_EQ(reply.rfind("{\"id\":1,\"result\":", 0), 0u) << reply;
    EXPECT_EQ(session.handleLine(R"({"id":2,"kind":"ping"})"),
              R"({"id":2,"result":{"pong":true}})");
}

} // namespace
} // namespace sierra
