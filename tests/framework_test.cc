/** @file Tests for the framework model: known APIs, lifecycle, layout. */

#include <gtest/gtest.h>

#include "air/builder.hh"
#include "framework/app.hh"
#include "framework/known_api.hh"
#include "framework/lifecycle.hh"

namespace sierra::framework {
namespace {

using air::Type;

class KnownApiTest : public ::testing::Test
{
  protected:
    air::Module mod;

    void
    SetUp() override
    {
        installFrameworkModel(mod);
    }
};

TEST_F(KnownApiTest, InstallIsIdempotent)
{
    size_t before = mod.numClasses();
    installFrameworkModel(mod);
    EXPECT_EQ(mod.numClasses(), before);
}

TEST_F(KnownApiTest, DirectFrameworkCalls)
{
    KnownApis apis(mod);
    EXPECT_EQ(apis.classify(mod.methodRef(names::handler, "post", 2)),
              ApiKind::HandlerPost);
    EXPECT_EQ(apis.classify(
                  mod.methodRef(names::handler, "sendEmptyMessage", 2)),
              ApiKind::HandlerSendMessage);
    EXPECT_EQ(apis.classify(mod.methodRef(names::thread, "start", 1)),
              ApiKind::ThreadStart);
    EXPECT_EQ(apis.classify(mod.methodRef(names::activity, "findViewById", 2)),
              ApiKind::FindViewById);
    EXPECT_EQ(apis.classify(
                  mod.methodRef(names::view, "setOnClickListener", 2)),
              ApiKind::SetListener);
    EXPECT_EQ(apis.classify(mod.methodRef(names::looper, "getMainLooper", 0)),
              ApiKind::LooperMain);
    EXPECT_EQ(apis.classify(
                  mod.methodRef(names::activity, "registerReceiver", 3)),
              ApiKind::RegisterReceiver);
    EXPECT_EQ(apis.classify(mod.methodRef("NoSuchClass", "noSuchMethod", 0)),
              ApiKind::None);
}

TEST_F(KnownApiTest, SubclassCallsResolveToFramework)
{
    // class MyTask extends AsyncTask (no overrides of execute).
    mod.addClass("MyTask", names::asyncTask);
    KnownApis apis(mod);
    EXPECT_EQ(apis.classify(mod.methodRef("MyTask", "execute", 1)),
              ApiKind::AsyncTaskExecute);
    EXPECT_EQ(apis.classify(
                  mod.methodRef("MyTask", "<init>", 1)), ApiKind::None)
        << "constructors resolve to AsyncTask.<init>, which is not a "
           "concurrency API";
}

TEST_F(KnownApiTest, UserOverrideWins)
{
    // A user subclass that defines its own <init> must not be treated
    // as the framework Object/Thread constructor intrinsic.
    air::Klass *k = mod.addClass("MyThread", names::thread);
    air::Method *init =
        k->addMethod("<init>", {Type::object("Other")},
                     Type::voidTy(), false);
    air::MethodBuilder b(init);
    b.finish();
    KnownApis apis(mod);
    EXPECT_EQ(apis.classify(
                  mod.methodRef("MyThread", "<init>", 2)), ApiKind::None);
    // But start() still resolves up to Thread.start.
    EXPECT_EQ(apis.classify(mod.methodRef("MyThread", "start", 1)),
              ApiKind::ThreadStart);
}

TEST_F(KnownApiTest, ListenerCallbacks)
{
    EXPECT_EQ(KnownApis::listenerCallback("setOnClickListener"),
              "onClick");
    EXPECT_EQ(KnownApis::listenerCallback("setOnScrollListener"),
              "onScroll");
    EXPECT_EQ(KnownApis::listenerCallback("setOnItemClickListener"),
              "onItemClick");
    EXPECT_EQ(KnownApis::listenerCallback("setAdapter"), "");
}

TEST_F(KnownApiTest, SubtypeQueries)
{
    mod.addClass("MyRecv", names::receiver);
    KnownApis apis(mod);
    EXPECT_TRUE(apis.isSubclassOf("MyRecv", names::receiver));
    EXPECT_TRUE(apis.isSubclassOf("MyRecv", names::object));
    EXPECT_FALSE(apis.isSubclassOf("MyRecv", names::activity));
    EXPECT_TRUE(
        apis.isSubclassOf(names::button, names::view));
}

TEST(LifecycleModel, TransitionsAndCallbacks)
{
    LifecycleModel model;
    EXPECT_TRUE(model.isLifecycleCallback("onCreate"));
    EXPECT_TRUE(model.isLifecycleCallback("onRestart"));
    EXPECT_FALSE(model.isLifecycleCallback("onClick"));

    auto from_paused =
        model.transitionsFrom(LifecycleState::Paused);
    ASSERT_EQ(from_paused.size(), 2u);
    // Paused can resume or stop.
    std::set<std::string> cbs;
    for (const auto &t : from_paused)
        cbs.insert(t.callback);
    EXPECT_TRUE(cbs.count("onResume"));
    EXPECT_TRUE(cbs.count("onStop"));
}

TEST(LifecycleModel, Sequences)
{
    auto entry = LifecycleModel::entrySequence();
    ASSERT_EQ(entry.size(), 3u);
    EXPECT_EQ(entry[0], "onCreate");
    EXPECT_EQ(entry[2], "onResume");
    auto exit = LifecycleModel::exitSequence();
    EXPECT_EQ(exit.back(), "onDestroy");
    EXPECT_EQ(LifecycleModel::cyclePairs().size(), 2u);
}

TEST(Layout, Lookup)
{
    Layout layout("MainActivity");
    layout.addWidget({10, "btnA", names::button, "onA", {}});
    layout.addWidget({11, "btnB", names::button, "onB", {10}});
    ASSERT_NE(layout.byId(10), nullptr);
    EXPECT_EQ(layout.byId(10)->name, "btnA");
    EXPECT_EQ(layout.byId(99), nullptr);
    ASSERT_NE(layout.byName("btnB"), nullptr);
    EXPECT_EQ(layout.byName("btnB")->enabledAfter.size(), 1u);
    EXPECT_EQ(layout.byName("nope"), nullptr);
}

TEST(AppModel, CodeSizeExcludesFrameworkAndSynthetic)
{
    App app("demo");
    installFrameworkModel(app.module());
    size_t empty_size = app.codeSize();
    EXPECT_EQ(empty_size, 0u) << "framework classes don't count";

    app.module().addClass("UserClass", names::object);
    EXPECT_GT(app.codeSize(), 0u);

    air::Klass *synth = app.module().addClass("Harness$X", "");
    synth->setSynthetic(true);
    size_t with_user = app.codeSize();
    app.module().getClass("UserClass");
    EXPECT_EQ(with_user, app.codeSize());
}

TEST(AppModel, ManifestHelpers)
{
    Manifest m;
    m.activities = {"A", "B"};
    EXPECT_TRUE(m.hasActivity("A"));
    EXPECT_FALSE(m.hasActivity("C"));
}

} // namespace
} // namespace sierra::framework
