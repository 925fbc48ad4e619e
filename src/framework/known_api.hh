/**
 * @file
 * The Android Framework API model.
 *
 * This is the reproduction's substitute for DroidEL + the WALA framework
 * scope: a table of framework classes (installed into every module as
 * bodyless "native" methods) plus a classifier that maps call sites to
 * concurrency-relevant API kinds (post, execute, start, register, ...).
 */

#ifndef SIERRA_FRAMEWORK_KNOWN_API_HH
#define SIERRA_FRAMEWORK_KNOWN_API_HH

#include <string>

#include "air/instruction.hh"
#include "air/module.hh"

namespace sierra::framework {

/**
 * Version of the known-API table below. Bumped whenever the set of
 * modeled framework classes or the call-site classifier changes in a
 * way that affects analysis results; the artifact store
 * (analysis/store) folds it into every content-hash key so cached
 * facts computed under an older table are never reused (see
 * docs/CACHING.md).
 */
inline constexpr int kKnownApiTableVersion = 2;

/** Concurrency-relevant framework API kinds (paper Table 1, column 2-3). */
enum class ApiKind {
    None,              //!< not a known concurrency API
    HandlerPost,       //!< Handler.post/postDelayed(Runnable)
    HandlerSendMessage,//!< Handler.sendMessage/sendEmptyMessage(...)
    HandlerRemove,     //!< Handler.removeCallbacks/removeMessages
    ViewPost,          //!< View.post(Runnable) -> main looper
    RunOnUiThread,     //!< Activity.runOnUiThread(Runnable)
    AsyncTaskExecute,  //!< AsyncTask.execute()
    ThreadStart,       //!< Thread.start()
    ExecutorExecute,   //!< Executor.execute(Runnable)
    MessageObtain,     //!< Message.obtain(...)
    FindViewById,      //!< Activity/View.findViewById(int)
    SetListener,       //!< View.setOn*Listener(obj)
    SetContentView,    //!< Activity.setContentView(int)
    RegisterReceiver,  //!< Context.registerReceiver(receiver, filter)
    UnregisterReceiver,
    SendBroadcast,     //!< Context.sendBroadcast(intent)
    StartService,      //!< Context.startService(intent)
    BindService,       //!< Context.bindService(intent, connection)
    StartActivity,     //!< Context.startActivity(intent)
    IntentSetClass,    //!< Intent.setClassName(str) (explicit target)
    PendingIntentGetActivity,  //!< PendingIntent.getActivity(intent)
    PendingIntentGetService,   //!< PendingIntent.getService(intent)
    PendingIntentGetBroadcast, //!< PendingIntent.getBroadcast(intent)
    PendingIntentSend, //!< PendingIntent.send()
    LooperMain,        //!< Looper.getMainLooper()
    HandlerThreadGetLooper, //!< HandlerThread.getLooper()
    LooperMy,          //!< Looper.myLooper()
    HandlerInit,       //!< new Handler(looper?)
    ThreadInit,        //!< new Thread(runnable?)
    ObjectInit,        //!< java.lang.Object.<init> and other no-op ctors
    NullCheck,         //!< Objects.isNull/nonNull/requireNonNull,
                       //!< TextUtils.isEmpty: tests/asserts nullness
};

const char *apiKindName(ApiKind k);

/** Well-known framework class names used across the code base. */
namespace names {
inline constexpr const char *object = "java.lang.Object";
inline constexpr const char *runnable = "java.lang.Runnable";
inline constexpr const char *thread = "java.lang.Thread";
inline constexpr const char *executor = "java.util.concurrent.Executor";
inline constexpr const char *activity = "android.app.Activity";
inline constexpr const char *service = "android.app.Service";
inline constexpr const char *receiver =
    "android.content.BroadcastReceiver";
inline constexpr const char *handler = "android.os.Handler";
inline constexpr const char *message = "android.os.Message";
inline constexpr const char *looper = "android.os.Looper";
inline constexpr const char *handlerThread = "android.os.HandlerThread";
inline constexpr const char *asyncTask = "android.os.AsyncTask";
inline constexpr const char *view = "android.view.View";
inline constexpr const char *onClickListener =
    "android.view.OnClickListener";
inline constexpr const char *onScrollListener =
    "android.view.OnScrollListener";
inline constexpr const char *onItemClickListener =
    "android.view.OnItemClickListener";
inline constexpr const char *serviceConnection =
    "android.content.ServiceConnection";
inline constexpr const char *intent = "android.content.Intent";
inline constexpr const char *pendingIntent = "android.app.PendingIntent";
inline constexpr const char *bundle = "android.os.Bundle";
inline constexpr const char *baseAdapter = "android.widget.BaseAdapter";
inline constexpr const char *button = "android.widget.Button";
inline constexpr const char *textView = "android.widget.TextView";
inline constexpr const char *listView = "android.widget.ListView";
inline constexpr const char *recycleView =
    "android.widget.RecycleView";
inline constexpr const char *objects = "java.util.Objects";
inline constexpr const char *textUtils = "android.text.TextUtils";
} // namespace names

/**
 * The framework API model over one module.
 *
 * classify() resolves a call target up the super-class chain so that,
 * e.g., LoaderTask.execute with `class LoaderTask extends
 * android.os.AsyncTask` is recognized as AsyncTaskExecute.
 */
class KnownApis
{
  public:
    explicit KnownApis(const air::Module &module) : _module(module) {}

    /** Classify a call site's target method reference. */
    ApiKind classify(const air::MethodRef &ref) const;

    /** Classify by resolved framework class + method name. */
    static ApiKind classifyExact(const std::string &class_name,
                                 const std::string &method_name);

    /**
     * The callback method a listener-registration API wires up, e.g.
     * setOnClickListener -> onClick. Empty if not a listener API.
     */
    static std::string listenerCallback(const std::string &method_name);

    /** True if the class is (or derives from) the given framework class. */
    bool isSubclassOf(const std::string &class_name,
                      const std::string &framework_class) const;

    const air::Module &module() const { return _module; }

  private:
    /** Walk the super chain to the framework class that declares the
     *  method; empty string if none does. */
    std::string resolveDeclaringFrameworkClass(
        const air::MethodRef &ref) const;

    const air::Module &_module;
};

/**
 * Install the framework model classes into a module (bodyless methods:
 * their semantics live in the analyses and the interpreter intrinsics).
 * Idempotent per class: skips classes that already exist.
 */
void installFrameworkModel(air::Module &module);

} // namespace sierra::framework

#endif // SIERRA_FRAMEWORK_KNOWN_API_HH
