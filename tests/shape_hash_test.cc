/**
 * @file
 * The structural shape hash (docs/CACHING.md): it sees every element
 * the body-less bundle print shows, and nothing else. Table-driven
 * mutations of a hand-written bundle cover each shape element; body
 * edits and synthetic harness classes must leave it alone; and over the
 * whole corpus plus heavy-shape generated apps, two apps share a shape
 * hash exactly when their `printAppText(app, false)` outputs are equal.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "air/klass.hh"
#include "analysis/store.hh"
#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "framework/app_text.hh"
#include "sierra/detector.hh"

namespace sierra {
namespace {

namespace store = analysis::store;

/** A bundle with at least one of every shape element. */
const char *const kBundle = R"(app "Shapes" {
    package "org.shapes"
    activity MainAct main
    activity OtherAct
    service SyncService
    receiver NetReceiver action "net.UP"
    layout MainAct {
        widget 1001 "btnGo" android.widget.Button onclick onGo after 1002
        widget 1002 "list" android.widget.ListView
    }
}

class MainAct extends android.app.Activity implements java.lang.Runnable {
    field count: int
    method <init>() : void regs=1 {
        @0: return-void
    }
    method onGo(p0: android.view.View) : void regs=4 {
        @0: r2 = const 1
        @1: putfield r0.MainAct.count = r2
        @2: return-void
    }
    method run() : void regs=2 {
        @0: r1 = const 7
        @1: return-void
    }
}

class OtherAct extends android.app.Activity {
    method <init>() : void regs=1 {
        @0: return-void
    }
}

class SyncService extends android.app.Service {
    method <init>() : void regs=1 {
        @0: return-void
    }
}

class NetReceiver extends android.content.BroadcastReceiver {
    method onReceive(p0: android.content.Intent) : void regs=2 {
        @0: return-void
    }
}

class Spare extends java.lang.Object {
    field spare: int
    method unused(p0: int) : int regs=2 {
        @0: return r1
    }
}
)";

std::unique_ptr<framework::App>
parse(const std::string &text)
{
    framework::AppTextResult r = framework::parseAppText(text);
    EXPECT_TRUE(r.ok()) << r.error << " (line " << r.errorLine << ")";
    return std::move(r.app);
}

/** `text` with the first `from` replaced by `to`. */
std::string
edited(const std::string &text, const std::string &from,
       const std::string &to)
{
    size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << "no '" << from << "' in bundle";
    if (pos == std::string::npos)
        return text;
    return text.substr(0, pos) + to + text.substr(pos + from.size());
}

struct Mutation {
    const char *element;
    const char *from;
    const char *to;
};

/** One edit per shape element the body-less print shows. */
const std::vector<Mutation> &
shapeMutations()
{
    static const std::vector<Mutation> table = {
        {"package", R"(package "org.shapes")", R"(package "org.shapez")"},
        {"activity", "activity OtherAct", "activity Spare"},
        {"main activity", "activity MainAct main\n    activity OtherAct",
         "activity MainAct\n    activity OtherAct main"},
        {"service", "service SyncService", "service SyncService2"},
        {"receiver", "receiver NetReceiver", "receiver NetReceiver2"},
        {"receiver action", R"("net.UP")", R"("net.DOWN")"},
        {"widget id", "widget 1001", "widget 1003"},
        {"widget name", R"("btnGo")", R"("btnGone")"},
        {"widget class", "android.widget.Button",
         "android.widget.ImageButton"},
        {"widget onclick", "onclick onGo", "onclick run"},
        {"widget after", " after 1002", ""},
        {"class name", "class Spare ", "class Spare2 "},
        {"class super", "Spare extends java.lang.Object",
         "Spare extends java.lang.Thread"},
        {"class interface", " implements java.lang.Runnable", ""},
        {"field name", "field spare: int", "field spared: int"},
        {"field type", "field spare: int", "field spare: bool"},
        {"field static", "field spare: int", "static field spare: int"},
        {"method name", "method unused(", "method unused2("},
        {"method params", "unused(p0: int)", "unused(p0: int, p1: int)"},
        {"method param type", "unused(p0: int)", "unused(p0: str)"},
        {"method return", "unused(p0: int) : int", "unused(p0: int) : bool"},
        {"method static", "method unused(", "static method unused("},
        {"method regs", ": int regs=2", ": int regs=3"},
    };
    return table;
}

TEST(ShapeHash, EveryShapeElementChangesIt)
{
    auto base = parse(kBundle);
    ASSERT_TRUE(base);
    const uint64_t base_hash = store::shapeHash(*base);
    const std::string base_print = framework::printAppText(*base, false);
    for (const Mutation &m : shapeMutations()) {
        auto app = parse(edited(kBundle, m.from, m.to));
        ASSERT_TRUE(app) << m.element;
        // The edit is visible in the body-less print, so the hash must
        // see it too.
        EXPECT_NE(framework::printAppText(*app, false), base_print)
            << m.element;
        EXPECT_NE(store::shapeHash(*app), base_hash) << m.element;
    }
}

TEST(ShapeHash, BodyEditsKeepIt)
{
    auto base = parse(kBundle);
    ASSERT_TRUE(base);
    const uint64_t base_hash = store::shapeHash(*base);
    const Mutation body_edits[] = {
        {"constant", "r1 = const 7", "r1 = const 8"},
        {"instruction added", "        @1: return-void\n    }\n}\n\nclass OtherAct",
         "        @1: r1 = const 9\n"
         "        @2: return-void\n    }\n}\n\nclass OtherAct"},
        {"instruction replaced", "@0: return r1", "@0: return r0"},
    };
    for (const Mutation &m : body_edits) {
        auto app = parse(edited(kBundle, m.from, m.to));
        ASSERT_TRUE(app) << m.element;
        EXPECT_NE(framework::printAppText(*app), framework::printAppText(*base))
            << m.element << ": the edit must change the body";
        EXPECT_EQ(store::shapeHash(*app), base_hash) << m.element;
    }
}

TEST(ShapeHash, SyntheticClassesAreExcluded)
{
    auto app = parse(kBundle);
    ASSERT_TRUE(app);
    const uint64_t before = store::shapeHash(*app);

    // Harness generation adds synthetic classes to the module.
    SierraDetector detector(*app);
    int synthetic = 0;
    air::Klass *harness = nullptr;
    for (air::Klass *klass : app->module().classes()) {
        if (klass->isSynthetic()) {
            ++synthetic;
            harness = klass;
        }
    }
    ASSERT_GT(synthetic, 0);
    EXPECT_EQ(store::shapeHash(*app), before);

    // Nor does editing a synthetic class's shape change it.
    harness->addField(air::FieldDecl{"extra", air::Type::intTy(), false});
    harness->addMethod("extraMethod", {air::Type::intTy()},
                       air::Type::voidTy(), true);
    EXPECT_EQ(store::shapeHash(*app), before);
}

/** The corpus, its printed-and-reparsed copies, and heavy-shape apps. */
std::vector<corpus::BuiltApp>
shapeCorpus()
{
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
    return apps;
}

TEST(ShapeHash, EqualExactlyWhenBodylessPrintsAreEqual)
{
    std::vector<corpus::BuiltApp> apps = shapeCorpus();
    ASSERT_EQ(apps.size(),
              corpus::namedAppSpecs().size() + corpus::kFdroidAppCount + 20);
    // Each app twice: as built, and printed then parsed back (equal
    // prints by construction, through different module objects).
    std::vector<std::pair<std::string, uint64_t>> shapes;
    for (const corpus::BuiltApp &built : apps) {
        shapes.emplace_back(framework::printAppText(*built.app, false),
                            store::shapeHash(*built.app));
        auto back = parse(framework::printAppText(*built.app));
        ASSERT_TRUE(back) << built.app->name();
        shapes.emplace_back(framework::printAppText(*back, false),
                            store::shapeHash(*back));
    }
    std::map<std::string, uint64_t> hash_of_print;
    std::map<uint64_t, std::string> print_of_hash;
    int distinct = 0;
    for (const auto &[print, hash] : shapes) {
        auto [pit, new_print] = hash_of_print.emplace(print, hash);
        auto [hit, new_hash] = print_of_hash.emplace(hash, print);
        EXPECT_EQ(pit->second, hash) << "equal prints, different hashes";
        EXPECT_TRUE(hit->second == print)
            << "equal hashes, different prints";
        EXPECT_EQ(new_print, new_hash);
        distinct += new_print ? 1 : 0;
    }
    EXPECT_EQ(distinct, static_cast<int>(apps.size()));
}

} // namespace
} // namespace sierra
