/** @file Tests for the AIR textual parser and printer round-trip. */

#include <gtest/gtest.h>

#include "air/builder.hh"
#include "air/parser.hh"
#include "air/printer.hh"

namespace sierra::air {
namespace {

const char *kSample = R"(
// A small sample module.
class Base {
    field x: int
    method get(): int regs=2 {
        @0: r1 = getfield r0.Base.x
        @1: return r1
    }
}
class Derived extends Base implements Runnable$I {
    static field count: int
    field buf: java.lang.Object[]
    method run(): void regs=5 {
        @0: r1 = const 41
        @1: r2 = const 1
        @2: r3 = add r1, r2
        @3: putfield r0.Base.x = r3
        @4: ifz r3 eq goto @6
        @5: invoke-virtual Derived.helper(r0, r3)
        @6: return-void
    }
    method helper(p0: int): void regs=3 {
        @0: r2 = const "hi there"
        @1: return-void
    }
}
interface Runnable$I {
    abstract method run(): void;
}
)";

TEST(AirParser, ParsesSample)
{
    ParseResult result = parseModule(kSample);
    ASSERT_TRUE(result.ok()) << result.status.error << " at line "
                             << result.status.errorLine;
    Module &mod = *result.module;
    EXPECT_EQ(mod.numClasses(), 3u);

    Klass *base = mod.getClass("Base");
    ASSERT_NE(base, nullptr);
    ASSERT_NE(base->findField("x"), nullptr);
    EXPECT_EQ(base->findField("x")->type.kind(), TypeKind::Int);

    Klass *derived = mod.getClass("Derived");
    ASSERT_NE(derived, nullptr);
    EXPECT_EQ(derived->superName(), "Base");
    ASSERT_EQ(derived->interfaces().size(), 1u);
    EXPECT_EQ(derived->interfaces()[0], "Runnable$I");
    EXPECT_TRUE(derived->findField("count")->isStatic);
    EXPECT_EQ(derived->findField("buf")->type.kind(), TypeKind::Array);

    Method *run = derived->findMethod("run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->numInstrs(), 7);
    EXPECT_EQ(run->instr(4).op, Opcode::IfZ);
    EXPECT_EQ(run->instr(4).target, 6);
    EXPECT_EQ(run->instr(5).method.toString(), "Derived.helper");

    Klass *iface = mod.getClass("Runnable$I");
    ASSERT_NE(iface, nullptr);
    EXPECT_TRUE(iface->isInterface());
    EXPECT_TRUE(iface->findMethod("run")->isAbstract());
}

TEST(AirParser, RoundTripIsStable)
{
    ParseResult first = parseModule(kSample);
    ASSERT_TRUE(first.ok());
    std::string printed = printModule(*first.module);
    ParseResult second = parseModule(printed);
    ASSERT_TRUE(second.ok()) << second.status.error;
    EXPECT_EQ(printed, printModule(*second.module));
}

TEST(AirParser, MonitorRoundTrip)
{
    const char *text = R"(
class M {
    field f: int
    method m(): void regs=3 {
        @0: r1 = const 1
        @1: monitor-enter r1
        @2: putfield r0.M.f = r1
        @3: monitor-exit r1
        @4: return-void
    }
}
)";
    ParseResult r = parseModule(text);
    ASSERT_TRUE(r.ok()) << r.status.error;
    Method *m = r.module->getClass("M")->findMethod("m");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->instr(1).op, Opcode::MonitorEnter);
    EXPECT_EQ(m->instr(3).op, Opcode::MonitorExit);
    ASSERT_EQ(m->instr(1).srcs.size(), 1u);
    EXPECT_EQ(m->instr(1).srcs[0], 1);

    std::string printed = printModule(*r.module);
    EXPECT_NE(printed.find("monitor-enter r1"), std::string::npos);
    EXPECT_NE(printed.find("monitor-exit r1"), std::string::npos);
    ParseResult again = parseModule(printed);
    ASSERT_TRUE(again.ok()) << again.status.error;
    EXPECT_EQ(printModule(*again.module), printed);
}

TEST(AirParser, StringEscapes)
{
    ParseResult r = parseModule(R"(
class S {
    method f(): void regs=2 {
        @0: r1 = const "a\"b\\c"
        @1: return-void
    }
}
)");
    ASSERT_TRUE(r.ok()) << r.status.error;
    EXPECT_EQ(r.module->getClass("S")->findMethod("f")->instr(0).strValue,
              "a\"b\\c");
}

TEST(AirParser, NegativeConstants)
{
    ParseResult r = parseModule(R"(
class N {
    method f(): void regs=2 {
        @0: r1 = const -17
        @1: return-void
    }
}
)");
    ASSERT_TRUE(r.ok()) << r.status.error;
    EXPECT_EQ(r.module->getClass("N")->findMethod("f")->instr(0).intValue,
              -17);
}

struct BadCase {
    const char *name;
    const char *text;
};

// Print the case by name: gtest's default dumps the pointer bytes,
// which makes the listed test names differ from build to build.
void
PrintTo(const BadCase &c, std::ostream *os)
{
    *os << c.name;
}

class ParserErrors : public ::testing::TestWithParam<BadCase>
{
};

TEST_P(ParserErrors, Rejected)
{
    ParseResult r = parseModule(GetParam().text);
    EXPECT_FALSE(r.ok()) << GetParam().name;
    EXPECT_FALSE(r.status.error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Bad, ParserErrors,
    ::testing::Values(
        BadCase{"garbage", "klass Foo {}"},
        BadCase{"unterminated_string",
                "class A { method f(): void regs=1 { @0: r0 = const "
                "\"oops } }"},
        BadCase{"duplicate_class", "class A {} class A {}"},
        BadCase{"duplicate_method",
                "class A { method f(): void; method f(): void; }"},
        BadCase{"out_of_order_index",
                "class A { method f(): void regs=1 { @1: return-void } "
                "}"},
        BadCase{"bad_register",
                "class A { method f(): void regs=1 { @0: return rx } }"},
        BadCase{"bad_condition",
                "class A { method f(): void regs=2 { @0: ifz r1 zz goto "
                "@0 } }"},
        BadCase{"field_without_class",
                "class A { method f(): void regs=2 { @0: r1 = getfield "
                "r0.x } }"},
        BadCase{"unknown_instruction",
                "class A { method f(): void regs=2 { @0: r1 = frobnicate "
                "r0 } }"}),
    [](const ::testing::TestParamInfo<BadCase> &info) {
        return info.param.name;
    });

TEST(AirParser, ParseIntoExistingModule)
{
    Module mod;
    mod.addClass("Existing");
    ParseStatus st = parseInto(mod, "class Fresh {}");
    EXPECT_TRUE(st.ok);
    EXPECT_NE(mod.getClass("Fresh"), nullptr);
    EXPECT_NE(mod.getClass("Existing"), nullptr);

    // Colliding with an existing class is an error, not a crash.
    ParseStatus st2 = parseInto(mod, "class Existing {}");
    EXPECT_FALSE(st2.ok);
}

TEST(AirParser, CommentsAndWhitespace)
{
    ParseResult r = parseModule(
        "# hash comment\n// slash comment\nclass A { }\n");
    ASSERT_TRUE(r.ok()) << r.status.error;
    EXPECT_NE(r.module->getClass("A"), nullptr);
}

} // namespace
} // namespace sierra::air
