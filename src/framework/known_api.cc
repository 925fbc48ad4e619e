#include "known_api.hh"

#include <iterator>
#include <unordered_map>

#include "air/logging.hh"

namespace sierra::framework {

const char *
apiKindName(ApiKind k)
{
    switch (k) {
      case ApiKind::None: return "none";
      case ApiKind::HandlerPost: return "handler-post";
      case ApiKind::HandlerSendMessage: return "handler-send-message";
      case ApiKind::HandlerRemove: return "handler-remove";
      case ApiKind::ViewPost: return "view-post";
      case ApiKind::RunOnUiThread: return "run-on-ui-thread";
      case ApiKind::AsyncTaskExecute: return "async-task-execute";
      case ApiKind::ThreadStart: return "thread-start";
      case ApiKind::ExecutorExecute: return "executor-execute";
      case ApiKind::MessageObtain: return "message-obtain";
      case ApiKind::FindViewById: return "find-view-by-id";
      case ApiKind::SetListener: return "set-listener";
      case ApiKind::SetContentView: return "set-content-view";
      case ApiKind::RegisterReceiver: return "register-receiver";
      case ApiKind::UnregisterReceiver: return "unregister-receiver";
      case ApiKind::SendBroadcast: return "send-broadcast";
      case ApiKind::StartService: return "start-service";
      case ApiKind::BindService: return "bind-service";
      case ApiKind::StartActivity: return "start-activity";
      case ApiKind::IntentSetClass: return "intent-set-class";
      case ApiKind::PendingIntentGetActivity:
        return "pending-intent-get-activity";
      case ApiKind::PendingIntentGetService:
        return "pending-intent-get-service";
      case ApiKind::PendingIntentGetBroadcast:
        return "pending-intent-get-broadcast";
      case ApiKind::PendingIntentSend: return "pending-intent-send";
      case ApiKind::LooperMain: return "looper-main";
      case ApiKind::HandlerThreadGetLooper:
        return "handler-thread-get-looper";
      case ApiKind::LooperMy: return "looper-my";
      case ApiKind::HandlerInit: return "handler-init";
      case ApiKind::ThreadInit: return "thread-init";
      case ApiKind::ObjectInit: return "object-init";
      case ApiKind::NullCheck: return "null-check";
    }
    panic("unreachable api kind");
}

namespace {

struct ApiEntry {
    const char *className;
    const char *methodName;
    ApiKind kind;
};

const ApiEntry kApiTable[] = {
    {names::handler, "post", ApiKind::HandlerPost},
    {names::handler, "postDelayed", ApiKind::HandlerPost},
    {names::handler, "postAtFrontOfQueue", ApiKind::HandlerPost},
    {names::handler, "sendMessage", ApiKind::HandlerSendMessage},
    {names::handler, "sendMessageDelayed", ApiKind::HandlerSendMessage},
    {names::handler, "sendEmptyMessage", ApiKind::HandlerSendMessage},
    {names::handler, "removeCallbacks", ApiKind::HandlerRemove},
    {names::handler, "removeMessages", ApiKind::HandlerRemove},
    {names::handler, "<init>", ApiKind::HandlerInit},
    {names::handler, "obtainMessage", ApiKind::MessageObtain},
    {names::thread, "<init>", ApiKind::ThreadInit},
    {names::view, "post", ApiKind::ViewPost},
    {names::view, "postDelayed", ApiKind::ViewPost},
    {names::activity, "runOnUiThread", ApiKind::RunOnUiThread},
    {names::asyncTask, "execute", ApiKind::AsyncTaskExecute},
    {names::thread, "start", ApiKind::ThreadStart},
    {names::executor, "execute", ApiKind::ExecutorExecute},
    {names::message, "obtain", ApiKind::MessageObtain},
    {names::activity, "findViewById", ApiKind::FindViewById},
    {names::view, "findViewById", ApiKind::FindViewById},
    {names::activity, "setContentView", ApiKind::SetContentView},
    {names::activity, "registerReceiver", ApiKind::RegisterReceiver},
    {names::activity, "unregisterReceiver", ApiKind::UnregisterReceiver},
    {names::service, "registerReceiver", ApiKind::RegisterReceiver},
    {names::service, "unregisterReceiver", ApiKind::UnregisterReceiver},
    {names::activity, "sendBroadcast", ApiKind::SendBroadcast},
    {names::service, "sendBroadcast", ApiKind::SendBroadcast},
    {names::activity, "startService", ApiKind::StartService},
    {names::activity, "bindService", ApiKind::BindService},
    {names::activity, "startActivity", ApiKind::StartActivity},
    {names::service, "startActivity", ApiKind::StartActivity},
    {names::intent, "setClassName", ApiKind::IntentSetClass},
    {names::pendingIntent, "getActivity",
     ApiKind::PendingIntentGetActivity},
    {names::pendingIntent, "getService",
     ApiKind::PendingIntentGetService},
    {names::pendingIntent, "getBroadcast",
     ApiKind::PendingIntentGetBroadcast},
    {names::pendingIntent, "send", ApiKind::PendingIntentSend},
    {names::looper, "getMainLooper", ApiKind::LooperMain},
    {names::handlerThread, "getLooper",
     ApiKind::HandlerThreadGetLooper},
    {names::looper, "myLooper", ApiKind::LooperMy},
    {names::object, "<init>", ApiKind::ObjectInit},
    {names::objects, "isNull", ApiKind::NullCheck},
    {names::objects, "nonNull", ApiKind::NullCheck},
    {names::objects, "requireNonNull", ApiKind::NullCheck},
    {names::textUtils, "isEmpty", ApiKind::NullCheck},
};

} // namespace

ApiKind
KnownApis::classifyExact(const std::string &class_name,
                         const std::string &method_name)
{
    // Built once on first use: classifyExact runs for every invoke the
    // pointer analysis visits, so the former linear table scan was on
    // the hot path. Keys are "class\0method" (the separator cannot
    // occur in either name).
    static const std::unordered_map<std::string, ApiKind> index = [] {
        std::unordered_map<std::string, ApiKind> m;
        m.reserve(std::size(kApiTable));
        for (const auto &e : kApiTable) {
            m.emplace(std::string(e.className) + '\0' + e.methodName,
                      e.kind);
        }
        return m;
    }();
    auto it = index.find(class_name + '\0' + method_name);
    if (it != index.end())
        return it->second;
    // Any setXxxListener on a View subclass counts as SetListener.
    if (!listenerCallback(method_name).empty())
        return ApiKind::SetListener;
    return ApiKind::None;
}

std::string
KnownApis::listenerCallback(const std::string &method_name)
{
    static const std::unordered_map<std::string, std::string> table = {
        {"setOnClickListener", "onClick"},
        {"setOnLongClickListener", "onLongClick"},
        {"setOnScrollListener", "onScroll"},
        {"setOnItemClickListener", "onItemClick"},
        {"setOnItemSelectedListener", "onItemSelected"},
        {"setOnTouchListener", "onTouch"},
        {"setOnKeyListener", "onKey"},
        {"setOnFocusChangeListener", "onFocusChange"},
        {"setOnCheckedChangeListener", "onCheckedChanged"},
        {"setOnEditorActionListener", "onEditorAction"},
    };
    auto it = table.find(method_name);
    return it == table.end() ? std::string() : it->second;
}

std::string
KnownApis::resolveDeclaringFrameworkClass(const air::MethodRef &ref) const
{
    // Walk the super chain from the named class upward, looking for the
    // framework class that declares the method.
    const air::Klass *k = _module.getClass(ref.className);
    // Unknown class: treat the name itself as the declaring class so
    // direct framework references (e.g. android.os.Looper.getMainLooper)
    // classify even when the framework model was not installed.
    if (!k)
        return ref.className;
    while (k) {
        if (k->findMethod(ref.methodName)) {
            // The first declaration up the chain wins: a user-defined
            // override (e.g. a subclass constructor or a custom run())
            // is a normal call, not a framework intrinsic.
            return k->isFramework() ? k->name() : "";
        }
        if (k->superName().empty())
            break;
        k = _module.getClass(k->superName());
    }
    return "";
}

ApiKind
KnownApis::classify(const air::MethodRef &ref) const
{
    // Try the literal reference first (covers static calls and calls
    // through framework-typed variables).
    ApiKind kind = classifyExact(ref.className, ref.methodName);
    if (kind != ApiKind::None)
        return kind;
    std::string declaring = resolveDeclaringFrameworkClass(ref);
    if (declaring.empty())
        return ApiKind::None;
    return classifyExact(declaring, ref.methodName);
}

bool
KnownApis::isSubclassOf(const std::string &class_name,
                        const std::string &framework_class) const
{
    const air::Klass *k = _module.getClass(class_name);
    while (k) {
        if (k->name() == framework_class)
            return true;
        for (const auto &iface : k->interfaces()) {
            if (iface == framework_class ||
                isSubclassOf(iface, framework_class)) {
                return true;
            }
        }
        if (k->superName().empty())
            return false;
        k = _module.getClass(k->superName());
    }
    return class_name == framework_class;
}

namespace {

using air::Type;

/** Declare a bodyless framework method. */
void
native(air::Klass *k, const std::string &name,
       std::vector<Type> params = {}, Type ret = Type::voidTy())
{
    k->addMethod(name, std::move(params), ret, false);
}

void
nativeStatic(air::Klass *k, const std::string &name,
             std::vector<Type> params = {}, Type ret = Type::voidTy())
{
    k->addMethod(name, std::move(params), ret, true);
}

} // namespace

void
installFrameworkModel(air::Module &module)
{
    auto have = [&](const char *n) { return module.getClass(n) != nullptr; };
    Type obj_t = Type::object(names::object);
    Type int_t = Type::intTy();
    Type str_t = Type::strTy();

    if (!have(names::object)) {
        auto *k = module.addClass(names::object);
        native(k, "<init>");
        native(k, "toString", {}, str_t);
        native(k, "equals", {obj_t}, Type::boolTy());
    }
    if (!have(names::runnable)) {
        auto *k = module.addClass(names::runnable, names::object);
        k->setInterface(true);
        auto *m = k->addMethod("run", {}, Type::voidTy(), false);
        m->setAbstract(true);
    }
    if (!have(names::thread)) {
        auto *k = module.addClass(names::thread, names::object);
        k->addInterface(names::runnable);
        native(k, "<init>", {Type::object(names::runnable)});
        native(k, "start");
        native(k, "run");
        native(k, "join");
        native(k, "interrupt");
    }
    if (!have(names::executor)) {
        auto *k = module.addClass(names::executor, names::object);
        k->setInterface(true);
        auto *m = k->addMethod("execute", {Type::object(names::runnable)},
                               Type::voidTy(), false);
        m->setAbstract(true);
    }
    if (!have(names::handlerThread)) {
        auto *k = module.addClass(names::handlerThread, names::thread);
        native(k, "<init>", {str_t});
        native(k, "getLooper", {}, Type::object(names::looper));
        native(k, "quit");
    }
    if (!have(names::looper)) {
        auto *k = module.addClass(names::looper, names::object);
        nativeStatic(k, "getMainLooper", {}, Type::object(names::looper));
        nativeStatic(k, "myLooper", {}, Type::object(names::looper));
        native(k, "quit");
    }
    if (!have(names::message)) {
        auto *k = module.addClass(names::message, names::object);
        k->addField({"what", int_t, false});
        k->addField({"arg1", int_t, false});
        k->addField({"arg2", int_t, false});
        k->addField({"obj", obj_t, false});
        nativeStatic(k, "obtain", {}, Type::object(names::message));
        native(k, "getExtras", {}, Type::object(names::bundle));
    }
    if (!have(names::handler)) {
        auto *k = module.addClass(names::handler, names::object);
        Type run_t = Type::object(names::runnable);
        Type msg_t = Type::object(names::message);
        native(k, "<init>", {Type::object(names::looper)});
        native(k, "post", {run_t});
        native(k, "postDelayed", {run_t, int_t});
        native(k, "postAtFrontOfQueue", {run_t});
        native(k, "sendMessage", {msg_t});
        native(k, "sendMessageDelayed", {msg_t, int_t});
        native(k, "sendEmptyMessage", {int_t});
        native(k, "removeCallbacks", {run_t});
        native(k, "removeMessages", {int_t});
        native(k, "handleMessage", {msg_t});
        native(k, "obtainMessage", {int_t}, msg_t);
    }
    if (!have(names::asyncTask)) {
        auto *k = module.addClass(names::asyncTask, names::object);
        native(k, "<init>");
        native(k, "execute");
        auto *dib = k->addMethod("doInBackground", {}, obj_t, false);
        dib->setAbstract(true);
        native(k, "onPreExecute");
        native(k, "onPostExecute", {obj_t});
        native(k, "onProgressUpdate", {int_t});
        native(k, "publishProgress", {int_t});
        native(k, "cancel", {Type::boolTy()});
    }
    if (!have(names::intent)) {
        auto *k = module.addClass(names::intent, names::object);
        native(k, "<init>", {str_t});
        native(k, "getExtras", {}, Type::object(names::bundle));
        native(k, "putExtra", {str_t, obj_t});
        native(k, "getAction", {}, str_t);
        native(k, "setClassName", {str_t},
               Type::object(names::intent));
    }
    if (!have(names::pendingIntent)) {
        auto *k = module.addClass(names::pendingIntent, names::object);
        Type intent_t = Type::object(names::intent);
        Type pending_t = Type::object(names::pendingIntent);
        nativeStatic(k, "getActivity", {intent_t}, pending_t);
        nativeStatic(k, "getService", {intent_t}, pending_t);
        nativeStatic(k, "getBroadcast", {intent_t}, pending_t);
        native(k, "send");
    }
    if (!have(names::bundle)) {
        auto *k = module.addClass(names::bundle, names::object);
        native(k, "<init>");
        native(k, "get", {str_t}, obj_t);
        native(k, "put", {str_t, obj_t});
        native(k, "getInt", {str_t}, int_t);
    }
    if (!have(names::view)) {
        auto *k = module.addClass(names::view, names::object);
        native(k, "<init>");
        native(k, "findViewById", {int_t}, Type::object(names::view));
        native(k, "post", {Type::object(names::runnable)});
        native(k, "postDelayed", {Type::object(names::runnable), int_t});
        native(k, "setOnClickListener",
               {Type::object(names::onClickListener)});
        native(k, "setOnLongClickListener", {obj_t});
        native(k, "setOnScrollListener",
               {Type::object(names::onScrollListener)});
        native(k, "setOnItemClickListener",
               {Type::object(names::onItemClickListener)});
        native(k, "setOnTouchListener", {obj_t});
        native(k, "setOnKeyListener", {obj_t});
        native(k, "setOnFocusChangeListener", {obj_t});
        native(k, "setOnCheckedChangeListener", {obj_t});
        native(k, "setOnEditorActionListener", {obj_t});
        native(k, "setOnItemSelectedListener", {obj_t});
        native(k, "setVisibility", {int_t});
        native(k, "invalidate");
        native(k, "getId", {}, int_t);
    }
    if (!have(names::onClickListener)) {
        auto *k = module.addClass(names::onClickListener, names::object);
        k->setInterface(true);
        auto *m = k->addMethod("onClick", {Type::object(names::view)},
                               Type::voidTy(), false);
        m->setAbstract(true);
    }
    if (!have(names::onScrollListener)) {
        auto *k = module.addClass(names::onScrollListener, names::object);
        k->setInterface(true);
        auto *m = k->addMethod("onScroll", {Type::object(names::view)},
                               Type::voidTy(), false);
        m->setAbstract(true);
    }
    if (!have(names::onItemClickListener)) {
        auto *k =
            module.addClass(names::onItemClickListener, names::object);
        k->setInterface(true);
        auto *m = k->addMethod("onItemClick",
                               {Type::object(names::view), int_t},
                               Type::voidTy(), false);
        m->setAbstract(true);
    }
    if (!have(names::serviceConnection)) {
        auto *k =
            module.addClass(names::serviceConnection, names::object);
        k->setInterface(true);
        auto *m1 = k->addMethod("onServiceConnected", {obj_t},
                                Type::voidTy(), false);
        m1->setAbstract(true);
        auto *m2 = k->addMethod("onServiceDisconnected", {obj_t},
                                Type::voidTy(), false);
        m2->setAbstract(true);
    }
    if (!have(names::activity)) {
        auto *k = module.addClass(names::activity, names::object);
        Type intent_t = Type::object(names::intent);
        native(k, "<init>");
        native(k, "onCreate");
        native(k, "onStart");
        native(k, "onResume");
        native(k, "onPause");
        native(k, "onStop");
        native(k, "onRestart");
        native(k, "onDestroy");
        native(k, "findViewById", {int_t}, Type::object(names::view));
        native(k, "setContentView", {int_t});
        native(k, "runOnUiThread", {Type::object(names::runnable)});
        native(k, "registerReceiver",
               {Type::object(names::receiver), str_t});
        native(k, "unregisterReceiver", {Type::object(names::receiver)});
        native(k, "sendBroadcast", {intent_t});
        native(k, "startService", {intent_t});
        native(k, "bindService",
               {intent_t, Type::object(names::serviceConnection)});
        native(k, "startActivity", {intent_t});
        native(k, "finish");
        native(k, "getApplicationContext", {}, obj_t);
    }
    if (!have(names::service)) {
        auto *k = module.addClass(names::service, names::object);
        Type intent_t = Type::object(names::intent);
        native(k, "<init>");
        native(k, "onCreate");
        native(k, "onStartCommand", {intent_t}, int_t);
        native(k, "onDestroy");
        native(k, "onBind", {intent_t}, obj_t);
        native(k, "sendBroadcast", {intent_t});
        native(k, "registerReceiver",
               {Type::object(names::receiver), str_t});
        native(k, "unregisterReceiver", {Type::object(names::receiver)});
        native(k, "stopSelf");
    }
    if (!have(names::receiver)) {
        auto *k = module.addClass(names::receiver, names::object);
        native(k, "<init>");
        auto *m = k->addMethod(
            "onReceive", {obj_t, Type::object(names::intent)},
            Type::voidTy(), false);
        m->setAbstract(true);
    }
    if (!have(names::baseAdapter)) {
        auto *k = module.addClass(names::baseAdapter, names::object);
        native(k, "<init>");
        native(k, "notifyDataSetChanged");
        native(k, "add", {obj_t});
        native(k, "clear");
        native(k, "getCount", {}, int_t);
        native(k, "getItem", {int_t}, obj_t);
    }
    if (!have(names::textView)) {
        auto *k = module.addClass(names::textView, names::view);
        native(k, "<init>");
        native(k, "setText", {str_t});
        native(k, "getText", {}, str_t);
    }
    if (!have(names::button)) {
        auto *k = module.addClass(names::button, names::textView);
        native(k, "<init>");
    }
    if (!have(names::listView)) {
        auto *k = module.addClass(names::listView, names::view);
        native(k, "<init>");
        native(k, "setAdapter", {Type::object(names::baseAdapter)});
        native(k, "getAdapter", {}, Type::object(names::baseAdapter));
    }
    if (!have(names::objects)) {
        auto *k = module.addClass(names::objects, names::object);
        nativeStatic(k, "isNull", {obj_t}, Type::boolTy());
        nativeStatic(k, "nonNull", {obj_t}, Type::boolTy());
        nativeStatic(k, "requireNonNull", {obj_t}, obj_t);
    }
    if (!have(names::textUtils)) {
        auto *k = module.addClass(names::textUtils, names::object);
        nativeStatic(k, "isEmpty", {str_t}, Type::boolTy());
    }
    if (!have(names::recycleView)) {
        auto *k = module.addClass(names::recycleView, names::view);
        native(k, "<init>");
        native(k, "setAdapter", {Type::object(names::baseAdapter)});
        native(k, "getAdapter", {}, Type::object(names::baseAdapter));
        native(k, "getViewForPosition", {int_t},
               Type::object(names::view));
    }
}

} // namespace sierra::framework
