/**
 * @file
 * PointsToResult is the one owner of each harness's per-method CFGs,
 * dominator trees and field keys. These tests run the whole pipeline
 * over the 20 named apps, so every stage has asked the result for its
 * CFGs, dominators and keys first, and then check what the result
 * hands out against objects built from scratch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/array_keys.hh"
#include "corpus/named_apps.hh"
#include "sierra/detector.hh"
#include "test_helpers.hh"

namespace sierra::analysis {
namespace {

using air::Opcode;

/** The 20 named apps after one default pipeline run each. */
struct NamedRuns {
    std::vector<corpus::BuiltApp> apps;
    std::vector<AppReport> reports;
};

const NamedRuns &
namedRuns()
{
    static const NamedRuns runs = [] {
        NamedRuns r;
        for (const auto &spec : corpus::namedAppSpecs())
            r.apps.push_back(corpus::buildNamedApp(spec));
        for (const auto &built : r.apps) {
            SierraDetector detector(*built.app);
            r.reports.push_back(detector.analyze(SierraOptions{}));
        }
        return r;
    }();
    return runs;
}

/** Every method with a body of the app's module. */
std::vector<const air::Method *>
bodies(const corpus::BuiltApp &built)
{
    std::vector<const air::Method *> out;
    for (const air::Klass *k : built.app->module().classes()) {
        for (const auto &m : k->methods()) {
            if (m->hasBody())
                out.push_back(m);
        }
    }
    return out;
}

TEST(PointsToOwner, RepeatAsksReturnTheSameObject)
{
    const NamedRuns &runs = namedRuns();
    int checked = 0;
    for (size_t a = 0; a < runs.apps.size(); ++a) {
        for (const HarnessAnalysis &ha : runs.reports[a].perHarness) {
            const PointsToResult &r = *ha.pta;
            for (const air::Method *m : bodies(runs.apps[a])) {
                const Cfg &cfg = r.cfg(*m);
                const DominatorTree &dom = r.dominators(*m);
                EXPECT_EQ(&r.cfg(*m), &cfg) << m->qualifiedName();
                EXPECT_EQ(&r.dominators(*m), &dom) << m->qualifiedName();
                EXPECT_EQ(&dom.cfg(), &cfg) << m->qualifiedName();
                EXPECT_EQ(&cfg.method(), m) << m->qualifiedName();
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 1000);
}

TEST(PointsToOwner, SharedCfgsAndDominatorsMatchFreshOnes)
{
    const NamedRuns &runs = namedRuns();
    int methods = 0;
    for (size_t a = 0; a < runs.apps.size(); ++a) {
        ASSERT_FALSE(runs.reports[a].perHarness.empty());
        const PointsToResult &r = *runs.reports[a].perHarness[0].pta;
        for (const air::Method *m : bodies(runs.apps[a])) {
            SCOPED_TRACE(m->qualifiedName());
            const Cfg fresh_cfg(*m);
            const DominatorTree fresh_dom(fresh_cfg);
            const Cfg &cfg = r.cfg(*m);
            const DominatorTree &dom = r.dominators(*m);
            EXPECT_EQ(cfg.toString(), fresh_cfg.toString());
            const int n = m->numInstrs();
            for (int i = 0; i < n; ++i) {
                EXPECT_EQ(cfg.isJumpTarget(i), fresh_cfg.isJumpTarget(i));
                for (int j = 0; j < n; ++j) {
                    ASSERT_EQ(dom.instrDominates(i, j),
                              fresh_dom.instrDominates(i, j))
                        << i << " dom " << j;
                }
            }
            ++methods;
        }
    }
    EXPECT_GT(methods, 1000);
}

TEST(PointsToOwner, MemoisedKeysMatchTheStringRecipe)
{
    const NamedRuns &runs = namedRuns();
    int fields = 0;
    int statics = 0;
    int arrays = 0;
    for (const AppReport &report : runs.reports) {
        for (const HarnessAnalysis &ha : report.perHarness) {
            const PointsToResult &r = *ha.pta;
            // The key the result builds from strings, with no memo.
            auto recipe = [&](const std::string &klass,
                              const air::FieldRef &field) {
                std::string decl =
                    r.cha.declaringClassOfField(klass, field.fieldName.view());
                return (decl.empty() ? field.className.str() : decl) + "." +
                       field.fieldName;
            };
            auto expectKey = [&](FieldKey got, const std::string &want,
                                 uint8_t flags) {
                EXPECT_EQ(got.str(), want);
                EXPECT_EQ(got.id, r.internKey(want).id) << want;
                EXPECT_EQ(got.flags, flags) << want;
            };
            for (NodeId n = 0; n < r.cg.numNodes(); ++n) {
                const air::Method *m = r.cg.node(n).method;
                if (!m->hasBody())
                    continue;
                for (const air::Instruction &in : m->instrs()) {
                    switch (in.op) {
                      case Opcode::GetField:
                      case Opcode::PutField:
                        for (ObjId o : r.pointsTo(n, in.srcs[0])) {
                            const std::string &klass =
                                r.objects.get(o).klassName;
                            expectKey(r.fieldKey(o, in.field),
                                      recipe(klass, in.field), 0);
                            ++fields;
                        }
                        expectKey(r.declaredKey(in.field),
                                  in.field.className + "." +
                                      in.field.fieldName,
                                  0);
                        break;
                      case Opcode::GetStatic:
                      case Opcode::PutStatic:
                        expectKey(r.staticKey(in.field),
                                  recipe(in.field.className, in.field),
                                  0);
                        ++statics;
                        break;
                      case Opcode::ArrayGet:
                      case Opcode::ArrayPut:
                        for (ObjId o : r.pointsTo(n, in.srcs[0])) {
                            expectKey(r.wildcardKey(o),
                                      arrayWildcardKey(
                                          r.objects.get(o).klassName),
                                      FieldKey::kArray |
                                          FieldKey::kWildcard);
                            ++arrays;
                        }
                        break;
                      default:
                        break;
                    }
                }
            }
        }
    }
    EXPECT_GT(fields, 1000);
    EXPECT_GT(statics, 0);
    EXPECT_GT(arrays, 0);
}

TEST(PointsToOwner, OneFieldOperandKeysEachObjectByItsClass)
{
    // One `getfield Base.f` operand reads a Base and a Sub object, and
    // Sub redeclares f: the memo is per (operand, object), so the two
    // objects keep their own keys.
    test::Pipeline p =
        test::makePipeline("owner-shadow", [](corpus::AppFactory &f) {
            air::Module &mod = f.app().module();
            mod.addClass("Base")->addField({"f", air::Type::intTy()});
            mod.addClass("Sub", "Base")
                ->addField({"f", air::Type::intTy()});
            auto &act = f.addActivity("ShadowActivity");
            act.on("onCreate", [](air::MethodBuilder &b) {
                int base = b.newReg();
                b.newObject(base, "Base");
                int sub = b.newReg();
                b.newObject(sub, "Sub");
                int either = b.newReg();
                b.move(either, base);
                b.move(either, sub);
                int v = b.newReg();
                b.getField(v, either, corpus::fieldRef("Base", "f"));
            });
        });
    const AppReport report = p.detector->analyze(SierraOptions{});
    ASSERT_FALSE(report.perHarness.empty());
    const PointsToResult &r = *report.perHarness[0].pta;
    std::vector<std::string> keys;
    for (NodeId n = 0; n < r.cg.numNodes(); ++n) {
        const air::Method *m = r.cg.node(n).method;
        if (!m->hasBody() || m->name() != "onCreate")
            continue;
        for (const air::Instruction &in : m->instrs()) {
            if (in.op != Opcode::GetField)
                continue;
            for (ObjId o : r.pointsTo(n, in.srcs[0])) {
                const std::string &klass = r.objects.get(o).klassName;
                keys.push_back(klass + " -> " +
                               r.fieldKey(o, in.field).str());
            }
        }
    }
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, (std::vector<std::string>{"Base -> Base.f",
                                              "Sub -> Sub.f"}));
}

} // namespace
} // namespace sierra::analysis
