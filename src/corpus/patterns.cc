#include "patterns.hh"

#include "air/logging.hh"
#include "framework/known_api.hh"

namespace sierra::corpus {

using air::CondKind;
using air::InvokeKind;
using air::Klass;
using air::Label;
using air::Method;
using air::MethodBuilder;
using air::Type;
namespace names = framework::names;

namespace {

/** Define a method with a builder callback. */
Method *
defineMethod(Klass *k, const std::string &name,
             std::vector<Type> params, Type ret, bool is_static,
             const std::function<void(MethodBuilder &)> &body)
{
    Method *m = k->addMethod(name, std::move(params), ret, is_static);
    MethodBuilder b(m);
    body(b);
    b.finish();
    return m;
}

/** Define an empty constructor. */
void
emptyCtor(Klass *k)
{
    defineMethod(k, "<init>", {}, Type::voidTy(), false,
                 [](MethodBuilder &) {});
}

/** Define a one-field "store the argument" constructor. */
void
storingCtor(Klass *k, const std::string &field_class,
            const std::string &field, Type param_type)
{
    defineMethod(k, "<init>", {std::move(param_type)}, Type::voidTy(),
                 false, [&](MethodBuilder &b) {
                     b.putField(b.thisReg(),
                                fieldRef(field_class, field),
                                b.paramReg(0));
                 });
}

} // namespace

// --------------------------------------------------------------------
// Pattern: Fig. 1 intra-component race (AsyncTask vs. scroll).
// --------------------------------------------------------------------
void
addAsyncNewsRace(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    int view_id = f.nextViewId();
    std::string adapter_cls = "NewsAdapter$" + std::to_string(n);
    std::string task_cls = "LoaderTask$" + std::to_string(n);
    std::string click_cls = "NewsClick$" + std::to_string(n);
    std::string scroll_cls = "NewsScroll$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string adapter_field = "adapter$" + std::to_string(n);
    std::string rv_field = "rv$" + std::to_string(n);

    air::Module &mod = f.app().module();

    // The adapter: data written on the background thread, counters read
    // from GUI events.
    Klass *adapter = mod.addClass(adapter_cls, names::baseAdapter);
    adapter->addField({"data", Type::object(names::object), false});
    adapter->addField({"count", Type::intTy(), false});
    adapter->addField({"cachedCount", Type::intTy(), false});
    emptyCtor(adapter);
    defineMethod(adapter, "addItem", {Type::object(names::object)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     b.putField(b.thisReg(), fieldRef(adapter_cls, "data"),
                                b.paramReg(0));
                     int r = b.newReg();
                     int rc = b.newReg();
                     int r2 = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(adapter_cls, "count"));
                     b.constInt(rc, 1);
                     b.binOp(r2, air::BinOpKind::Add, r, rc);
                     b.putField(b.thisReg(),
                                fieldRef(adapter_cls, "count"), r2);
                 });
    defineMethod(adapter, "notifyChanged", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(adapter_cls, "count"));
                     b.putField(b.thisReg(),
                                fieldRef(adapter_cls, "cachedCount"), r);
                 });

    // The AsyncTask.
    Klass *task = mod.addClass(task_cls, names::asyncTask);
    task->addField({"adapter", Type::object(adapter_cls), false});
    storingCtor(task, task_cls, "adapter", Type::object(adapter_cls));
    defineMethod(task, "doInBackground", {},
                 Type::object(names::object), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rn = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(task_cls, "adapter"));
                     b.newObject(rn, names::object);
                     b.call(ra, adapter_cls, "addItem", {rn});
                     b.ret(rn);
                 });
    defineMethod(task, "onPostExecute", {Type::object(names::object)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(task_cls, "adapter"));
                     b.call(ra, adapter_cls, "notifyChanged");
                 });

    // Listeners.
    Klass *click = mod.addClass(click_cls, names::object);
    click->addInterface(names::onClickListener);
    click->addField({"act", Type::object(act_cls), false});
    storingCtor(click, click_cls, "act", Type::object(act_cls));
    defineMethod(click, "onClick", {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rad = b.newReg();
                     int rt = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(click_cls, "act"));
                     b.getField(rad, ra, fieldRef(act_cls, adapter_field));
                     b.newObject(rt, task_cls);
                     b.invoke(-1, InvokeKind::Special,
                              {task_cls, "<init>", 0}, {rt, rad});
                     b.call(rt, task_cls, "execute");
                 });

    Klass *scroll = mod.addClass(scroll_cls, names::object);
    scroll->addInterface(names::onScrollListener);
    scroll->addField({"act", Type::object(act_cls), false});
    storingCtor(scroll, scroll_cls, "act", Type::object(act_cls));
    defineMethod(scroll, "onScroll", {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rad = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(scroll_cls, "act"));
                     b.getField(rad, ra, fieldRef(act_cls, adapter_field));
                     int r1 = b.newReg();
                     int r2 = b.newReg();
                     int r3 = b.newReg();
                     b.getField(r1, rad, fieldRef(adapter_cls, "count"));
                     b.getField(r2, rad,
                                fieldRef(adapter_cls, "cachedCount"));
                     b.getField(r3, rad, fieldRef(adapter_cls, "data"));
                 });

    // Activity wiring.
    act.addField(adapter_field, Type::object(adapter_cls));
    act.addField(rv_field, Type::object(names::recycleView));
    framework::Widget w;
    w.id = view_id;
    w.name = "rvNews$" + std::to_string(n);
    w.widgetClass = names::recycleView;
    act.layout().addWidget(w);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rid = b.newReg();
        int rv = b.newReg();
        int rad = b.newReg();
        int rcl = b.newReg();
        int rsl = b.newReg();
        b.constInt(rid, view_id);
        b.callTo(rv, b.thisReg(), act_cls, "findViewById", {rid});
        b.putField(b.thisReg(), fieldRef(act_cls, rv_field), rv);
        b.newObject(rad, adapter_cls);
        b.invoke(-1, InvokeKind::Special, {adapter_cls, "<init>", 0},
                 {rad});
        b.putField(b.thisReg(), fieldRef(act_cls, adapter_field), rad);
        b.newObject(rcl, click_cls);
        b.invoke(-1, InvokeKind::Special, {click_cls, "<init>", 0},
                 {rcl, b.thisReg()});
        b.call(rv, names::view, "setOnClickListener", {rcl});
        b.newObject(rsl, scroll_cls);
        b.invoke(-1, InvokeKind::Special, {scroll_cls, "<init>", 0},
                 {rsl, b.thisReg()});
        b.call(rv, names::view, "setOnScrollListener", {rsl});
    });

    f.truth().add(adapter_cls + ".count", SeedClass::TrueRace,
                  "asyncNewsRace: background add vs scroll read");
    f.truth().add(adapter_cls + ".data", SeedClass::TrueRace,
                  "asyncNewsRace: background add vs scroll read (ref)");
    f.truth().add(adapter_cls + ".cachedCount", SeedClass::TrueRace,
                  "asyncNewsRace: onPostExecute vs scroll");
}

// --------------------------------------------------------------------
// Pattern: Fig. 2 inter-component race (receiver vs. lifecycle DB).
// --------------------------------------------------------------------
void
addReceiverDbRace(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string db_cls = "DataBase$" + std::to_string(n);
    std::string recv_cls = "Recv$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string db_field = "mDB$" + std::to_string(n);
    std::string recv_field = "recv$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *db = mod.addClass(db_cls, names::object);
    db->addField({"conn", Type::object(names::object), false});
    db->addField({"isOpen", Type::intTy(), false});
    emptyCtor(db);
    defineMethod(db, "open", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int rc = b.newReg();
                     int r1 = b.newReg();
                     b.newObject(rc, names::object);
                     b.putField(b.thisReg(), fieldRef(db_cls, "conn"), rc);
                     b.constInt(r1, 1);
                     b.putField(b.thisReg(), fieldRef(db_cls, "isOpen"),
                                r1);
                 });
    defineMethod(db, "close", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int rn = b.newReg();
                     int r0 = b.newReg();
                     b.constNull(rn);
                     b.putField(b.thisReg(), fieldRef(db_cls, "conn"), rn);
                     b.constInt(r0, 0);
                     b.putField(b.thisReg(), fieldRef(db_cls, "isOpen"),
                                r0);
                 });
    defineMethod(db, "update", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int r = b.newReg();
                     int r2 = b.newReg();
                     b.getField(r, b.thisReg(), fieldRef(db_cls, "conn"));
                     b.getField(r2, b.thisReg(),
                                fieldRef(db_cls, "isOpen"));
                 });

    Klass *recv = mod.addClass(recv_cls, names::receiver);
    recv->addField({"act", Type::object(act_cls), false});
    storingCtor(recv, recv_cls, "act", Type::object(act_cls));
    defineMethod(recv, "onReceive",
                 {Type::object(names::object),
                  Type::object(names::intent)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rdb = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(recv_cls, "act"));
                     b.getField(rdb, ra, fieldRef(act_cls, db_field));
                     b.call(rdb, db_cls, "update");
                 });

    act.addField(db_field, Type::object(db_cls));
    act.addField(recv_field, Type::object(recv_cls));

    act.on("onCreate", [=](MethodBuilder &b) {
        int rdb = b.newReg();
        int rr = b.newReg();
        int rs = b.newReg();
        b.newObject(rdb, db_cls);
        b.invoke(-1, InvokeKind::Special, {db_cls, "<init>", 0}, {rdb});
        b.putField(b.thisReg(), fieldRef(act_cls, db_field), rdb);
        b.newObject(rr, recv_cls);
        b.invoke(-1, InvokeKind::Special, {recv_cls, "<init>", 0},
                 {rr, b.thisReg()});
        b.putField(b.thisReg(), fieldRef(act_cls, recv_field), rr);
        b.constStr(rs, "org.sierra.DATA_READY");
        b.call(b.thisReg(), act_cls, "registerReceiver", {rr, rs});
    });
    act.on("onStart", [=](MethodBuilder &b) {
        int rdb = b.newReg();
        b.getField(rdb, b.thisReg(), fieldRef(act_cls, db_field));
        b.call(rdb, db_cls, "open");
    });
    act.on("onStop", [=](MethodBuilder &b) {
        int rdb = b.newReg();
        b.getField(rdb, b.thisReg(), fieldRef(act_cls, db_field));
        b.call(rdb, db_cls, "close");
    });
    act.on("onDestroy", [=](MethodBuilder &b) {
        int rr = b.newReg();
        int rn = b.newReg();
        b.getField(rr, b.thisReg(), fieldRef(act_cls, recv_field));
        b.call(b.thisReg(), act_cls, "unregisterReceiver", {rr});
        b.constNull(rn);
        b.putField(b.thisReg(), fieldRef(act_cls, db_field), rn);
    });

    f.truth().add(db_cls + ".conn", SeedClass::TrueRace,
                  "receiverDbRace: close(onStop) vs update(onReceive)");
    f.truth().add(db_cls + ".isOpen", SeedClass::TrueRace,
                  "receiverDbRace: guard variable race");
    f.truth().add(act_cls + "." + db_field, SeedClass::TrueRace,
                  "receiverDbRace: onDestroy null vs onReceive read");
}

// --------------------------------------------------------------------
// Pattern: Fig. 8 guarded timer (refutable by symbolic execution).
// --------------------------------------------------------------------
void
addGuardedTimer(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string timer_cls = "Timer$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string timer_field = "timer$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *timer = mod.addClass(timer_cls, names::object);
    timer->addInterface(names::runnable);
    timer->addField({"mIsRunning", Type::intTy(), false});
    timer->addField({"mAccumTime", Type::intTy(), false});
    timer->addField({"handler", Type::object(names::handler), false});
    emptyCtor(timer);
    defineMethod(timer, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     Label l_end = b.newLabel();
                     Label l_else = b.newLabel();
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(timer_cls, "mIsRunning"));
                     b.ifz(r, CondKind::Eq, l_end);
                     int rt = b.newReg();
                     int rc = b.newReg();
                     int rt2 = b.newReg();
                     b.getField(rt, b.thisReg(),
                                fieldRef(timer_cls, "mAccumTime"));
                     b.constInt(rc, 10);
                     b.binOp(rt2, air::BinOpKind::Add, rt, rc);
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mAccumTime"), rt2);
                     int rnd = b.newReg();
                     b.callStatic(rnd, "sierra.Nondet", "choose");
                     b.ifz(rnd, CondKind::Eq, l_else);
                     int rh = b.newReg();
                     int rdel = b.newReg();
                     b.getField(rh, b.thisReg(),
                                fieldRef(timer_cls, "handler"));
                     b.constInt(rdel, 100);
                     b.call(rh, names::handler, "postDelayed",
                            {b.thisReg(), rdel});
                     b.gotoLabel(l_end);
                     b.bind(l_else);
                     int rz = b.newReg();
                     b.constInt(rz, 0);
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mIsRunning"), rz);
                     b.bind(l_end);
                     b.retVoid();
                 });
    defineMethod(timer, "stop", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     Label l_end = b.newLabel();
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(timer_cls, "mIsRunning"));
                     b.ifz(r, CondKind::Eq, l_end);
                     int rz = b.newReg();
                     b.constInt(rz, 0);
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mIsRunning"), rz);
                     int rz2 = b.newReg();
                     b.constInt(rz2, 0);
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mAccumTime"), rz2);
                     b.bind(l_end);
                     b.retVoid();
                 });

    act.addField(timer_field, Type::object(timer_cls));

    // The timer starts once, at creation (a single posting site keeps
    // the pattern's ground truth crisp: the only unrefutable race left
    // is the mIsRunning guard itself, as in the paper's Fig. 8).
    act.on("onCreate", [=](MethodBuilder &b) {
        int rt = b.newReg();
        int rh = b.newReg();
        int r1 = b.newReg();
        b.newObject(rt, timer_cls);
        b.invoke(-1, InvokeKind::Special, {timer_cls, "<init>", 0}, {rt});
        b.newObject(rh, names::handler);
        b.invoke(-1, InvokeKind::Special,
                 {names::handler, "<init>", 0}, {rh});
        b.putField(rt, fieldRef(timer_cls, "handler"), rh);
        b.putField(b.thisReg(), fieldRef(act_cls, timer_field), rt);
        b.constInt(r1, 1);
        b.putField(rt, fieldRef(timer_cls, "mIsRunning"), r1);
        b.getField(rh, rt, fieldRef(timer_cls, "handler"));
        b.call(rh, names::handler, "post", {rt});
    });
    act.on("onPause", [=](MethodBuilder &b) {
        int rt = b.newReg();
        b.getField(rt, b.thisReg(), fieldRef(act_cls, timer_field));
        b.call(rt, timer_cls, "stop");
    });

    f.truth().add(timer_cls + ".mIsRunning", SeedClass::TrueRace,
                  "guardedTimer: guard variable race (benign)");
    f.truth().add(timer_cls + ".mAccumTime", SeedClass::FpTrap,
                  "guardedTimer: protected by mIsRunning; refutable");
}

// --------------------------------------------------------------------
// Pattern: Fig. 8 variant whose guard is cleared with a *computed*
// zero (1 - 1). Weakest-precondition refutation alone treats the
// arithmetic as opaque and keeps the report; the intraprocedural
// constant fixpoint folds it and refutes, mirroring the paper's
// on-demand constant propagation (Section 5).
// --------------------------------------------------------------------
void
addComputedGuard(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string timer_cls = "CGuard$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string timer_field = "cguard$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *timer = mod.addClass(timer_cls, names::object);
    timer->addInterface(names::runnable);
    timer->addField({"mActive", Type::intTy(), false});
    timer->addField({"mTicks", Type::intTy(), false});
    timer->addField({"handler", Type::object(names::handler), false});
    emptyCtor(timer);
    defineMethod(timer, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     Label l_end = b.newLabel();
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(timer_cls, "mActive"));
                     b.ifz(r, CondKind::Eq, l_end);
                     int rt = b.newReg();
                     int rc = b.newReg();
                     int rt2 = b.newReg();
                     b.getField(rt, b.thisReg(),
                                fieldRef(timer_cls, "mTicks"));
                     b.constInt(rc, 1);
                     b.binOp(rt2, air::BinOpKind::Add, rt, rc);
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mTicks"), rt2);
                     b.bind(l_end);
                     b.retVoid();
                 });
    defineMethod(timer, "stop", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     Label l_end = b.newLabel();
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(timer_cls, "mActive"));
                     b.ifz(r, CondKind::Eq, l_end);
                     // The crux: the cleared guard value is computed.
                     int r1 = b.newReg();
                     int rz = b.newReg();
                     b.constInt(r1, 1);
                     b.binOp(rz, air::BinOpKind::Sub, r1, r1);
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mActive"), rz);
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mTicks"), rz);
                     b.bind(l_end);
                     b.retVoid();
                 });

    act.addField(timer_field, Type::object(timer_cls));

    act.on("onCreate", [=](MethodBuilder &b) {
        int rt = b.newReg();
        int rh = b.newReg();
        int r1 = b.newReg();
        b.newObject(rt, timer_cls);
        b.invoke(-1, InvokeKind::Special, {timer_cls, "<init>", 0}, {rt});
        b.newObject(rh, names::handler);
        b.invoke(-1, InvokeKind::Special,
                 {names::handler, "<init>", 0}, {rh});
        b.putField(rt, fieldRef(timer_cls, "handler"), rh);
        b.putField(b.thisReg(), fieldRef(act_cls, timer_field), rt);
        b.constInt(r1, 1);
        b.putField(rt, fieldRef(timer_cls, "mActive"), r1);
        b.getField(rh, rt, fieldRef(timer_cls, "handler"));
        b.call(rh, names::handler, "post", {rt});
    });
    act.on("onPause", [=](MethodBuilder &b) {
        int rt = b.newReg();
        b.getField(rt, b.thisReg(), fieldRef(act_cls, timer_field));
        b.call(rt, timer_cls, "stop");
    });

    f.truth().add(timer_cls + ".mActive", SeedClass::TrueRace,
                  "computedGuard: guard variable race (benign)");
    f.truth().add(timer_cls + ".mTicks", SeedClass::FpTrap,
                  "computedGuard: cleared guard is 1-1; refutable "
                  "only with constant facts");
}

// --------------------------------------------------------------------
// Pattern: Message.what guard (on-demand constant propagation).
// --------------------------------------------------------------------
void
addMessageGuard(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string handler_cls = "MsgHandler$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string mh_field = "mh$" + std::to_string(n);
    int w1 = f.nextViewId();
    int w2 = f.nextViewId();
    std::string send1 = "onSendOne$" + std::to_string(n);
    std::string send2 = "onSendTwo$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *handler = mod.addClass(handler_cls, names::handler);
    handler->addField({"flagA", Type::intTy(), false});
    handler->addField({"flagB", Type::intTy(), false});
    defineMethod(handler, "<init>", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     b.invoke(-1, InvokeKind::Special,
                              {names::handler, "<init>", 0},
                              {b.thisReg()});
                 });
    defineMethod(handler, "handleMessage",
                 {Type::object(names::message)}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     Label l_two = b.newLabel();
                     Label l_end = b.newLabel();
                     int rw = b.newReg();
                     int rc = b.newReg();
                     b.getField(rw, b.paramReg(0),
                                fieldRef(names::message, "what"));
                     b.constInt(rc, 2);
                     b.iff(rw, CondKind::Eq, rc, l_two);
                     int r1 = b.newReg();
                     b.constInt(r1, 1);
                     b.putField(b.thisReg(),
                                fieldRef(handler_cls, "flagA"), r1);
                     b.gotoLabel(l_end);
                     b.bind(l_two);
                     int r2 = b.newReg();
                     b.constInt(r2, 1);
                     b.putField(b.thisReg(),
                                fieldRef(handler_cls, "flagB"), r2);
                     b.bind(l_end);
                     b.retVoid();
                 });

    act.addField(mh_field, Type::object(handler_cls));
    framework::Widget wa;
    wa.id = w1;
    wa.name = "btnOne$" + std::to_string(n);
    wa.widgetClass = names::button;
    wa.xmlOnClick = send1;
    act.layout().addWidget(wa);
    framework::Widget wb;
    wb.id = w2;
    wb.name = "btnTwo$" + std::to_string(n);
    wb.widgetClass = names::button;
    wb.xmlOnClick = send2;
    act.layout().addWidget(wb);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rm = b.newReg();
        b.newObject(rm, handler_cls);
        b.invoke(-1, InvokeKind::Special, {handler_cls, "<init>", 0},
                 {rm});
        b.putField(b.thisReg(), fieldRef(act_cls, mh_field), rm);
    });

    // XML onClick handlers take the clicked view as a parameter.
    auto send_body = [=](MethodBuilder &b, int what, bool read_flag_b) {
        int rh = b.newReg();
        int rmsg = b.newReg();
        int rc = b.newReg();
        b.getField(rh, b.thisReg(), fieldRef(act_cls, mh_field));
        b.callStatic(rmsg, names::message, "obtain");
        b.constInt(rc, what);
        b.putField(rmsg, fieldRef(names::message, "what"), rc);
        b.call(rh, handler_cls, "sendMessage", {rmsg});
        if (read_flag_b) {
            int rb = b.newReg();
            b.getField(rb, rh, fieldRef(handler_cls, "flagB"));
        }
    };
    defineMethod(act.klass(), send1, {Type::object(names::view)},
                 Type::voidTy(), false,
                 [&](MethodBuilder &b) { send_body(b, 1, true); });
    defineMethod(act.klass(), send2, {Type::object(names::view)},
                 Type::voidTy(), false,
                 [&](MethodBuilder &b) { send_body(b, 2, false); });

    f.truth().add(handler_cls + ".flagB", SeedClass::TrueRace,
                  "messageGuard: what=2 write vs gui read");
    f.truth().add(handler_cls + ".flagA", SeedClass::FpTrap,
                  "messageGuard: only what!=2 writes flagA; candidate "
                  "pairs are refuted via message-what constants");
}

// --------------------------------------------------------------------
// Pattern: posting order (HB rule 4 negative).
// --------------------------------------------------------------------
void
addOrderedPosts(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string init_cls = "InitTask$" + std::to_string(n);
    std::string use_cls = "UseTask$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string cfg_field = "cfg$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *init = mod.addClass(init_cls, names::object);
    init->addInterface(names::runnable);
    init->addField({"act", Type::object(act_cls), false});
    storingCtor(init, init_cls, "act", Type::object(act_cls));
    defineMethod(init, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rn = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(init_cls, "act"));
                     b.newObject(rn, names::object);
                     b.putField(ra, fieldRef(act_cls, cfg_field), rn);
                 });

    Klass *use = mod.addClass(use_cls, names::object);
    use->addInterface(names::runnable);
    use->addField({"act", Type::object(act_cls), false});
    storingCtor(use, use_cls, "act", Type::object(act_cls));
    defineMethod(use, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int r = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(use_cls, "act"));
                     b.getField(r, ra, fieldRef(act_cls, cfg_field));
                 });

    act.addField(cfg_field, Type::object(names::object));
    act.on("onCreate", [=](MethodBuilder &b) {
        int rh = b.newReg();
        int r1 = b.newReg();
        int r2 = b.newReg();
        b.newObject(rh, names::handler);
        b.invoke(-1, InvokeKind::Special,
                 {names::handler, "<init>", 0}, {rh});
        b.newObject(r1, init_cls);
        b.invoke(-1, InvokeKind::Special, {init_cls, "<init>", 0},
                 {r1, b.thisReg()});
        b.newObject(r2, use_cls);
        b.invoke(-1, InvokeKind::Special, {use_cls, "<init>", 0},
                 {r2, b.thisReg()});
        // Posted in order: rule 4 orders the two actions, so the
        // write/read on cfg$N is NOT a race.
        b.call(rh, names::handler, "post", {r1});
        b.call(rh, names::handler, "post", {r2});
    });

    f.truth().add(act_cls + "." + cfg_field, SeedClass::FpTrap,
                  "orderedPosts: rule 4 orders the posted runnables");
}

// --------------------------------------------------------------------
// Pattern: background thread vs. GUI read (true race).
// --------------------------------------------------------------------
void
addThreadRace(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string worker_cls = "Worker$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string result_field = "result$" + std::to_string(n);
    std::string done_field = "done$" + std::to_string(n);
    int wid = f.nextViewId();
    std::string show = "onShow$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *worker = mod.addClass(worker_cls, names::thread);
    worker->addField({"act", Type::object(act_cls), false});
    storingCtor(worker, worker_cls, "act", Type::object(act_cls));
    defineMethod(worker, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rn = b.newReg();
                     int r1 = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(worker_cls, "act"));
                     b.newObject(rn, names::object);
                     b.putField(ra, fieldRef(act_cls, result_field), rn);
                     b.constInt(r1, 1);
                     b.putField(ra, fieldRef(act_cls, done_field), r1);
                 });

    act.addField(result_field, Type::object(names::object));
    act.addField(done_field, Type::intTy());
    framework::Widget w;
    w.id = wid;
    w.name = "btnShow$" + std::to_string(n);
    w.widgetClass = names::button;
    w.xmlOnClick = show;
    act.layout().addWidget(w);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rn = b.newReg();
        int rw = b.newReg();
        b.constNull(rn);
        b.putField(b.thisReg(), fieldRef(act_cls, result_field), rn);
        b.newObject(rw, worker_cls);
        b.invoke(-1, InvokeKind::Special, {worker_cls, "<init>", 0},
                 {rw, b.thisReg()});
        b.call(rw, worker_cls, "start");
    });
    defineMethod(act.klass(), show, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int r1 = b.newReg();
                     int r2 = b.newReg();
                     b.getField(r1, b.thisReg(),
                                fieldRef(act_cls, result_field));
                     b.getField(r2, b.thisReg(),
                                fieldRef(act_cls, done_field));
                 });

    f.truth().add(act_cls + "." + result_field, SeedClass::TrueRace,
                  "threadRace: thread write vs gui read (ref)");
    f.truth().add(act_cls + "." + done_field, SeedClass::TrueRace,
                  "threadRace: thread write vs gui read");
}

// --------------------------------------------------------------------
// Pattern: action-sensitivity ablation trap (paper Section 3.3).
// --------------------------------------------------------------------
void
addActionAliasTrap(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string util_cls = "Util$" + std::to_string(n);
    std::string buf_cls = "Buffer$" + std::to_string(n);
    std::string act_cls = act.name();
    int w1 = f.nextViewId();
    int w2 = f.nextViewId();
    std::string h1 = "onAlias1$" + std::to_string(n);
    std::string h2 = "onAlias2$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *buf = mod.addClass(buf_cls, names::object);
    buf->addField({"v", Type::intTy(), false});
    emptyCtor(buf);

    // Two call layers: with k=1 hybrid contexts the allocation in
    // makeBuf merges across the two GUI actions; action-sensitivity
    // keeps the objects distinct (the paper's foo()/bar() example).
    Klass *util = mod.addClass(util_cls, names::object);
    defineMethod(util, "makeBuf", {}, Type::object(buf_cls), true,
                 [&](MethodBuilder &b) {
                     int rb = b.newReg();
                     b.newObject(rb, buf_cls);
                     b.invoke(-1, InvokeKind::Special,
                              {buf_cls, "<init>", 0}, {rb});
                     b.ret(rb);
                 });
    defineMethod(util, "helper", {}, Type::object(buf_cls), true,
                 [&](MethodBuilder &b) {
                     int rb = b.newReg();
                     b.callStatic(rb, util_cls, "makeBuf");
                     b.ret(rb);
                 });

    framework::Widget wa;
    wa.id = w1;
    wa.name = "btnAlias1$" + std::to_string(n);
    wa.widgetClass = names::button;
    wa.xmlOnClick = h1;
    act.layout().addWidget(wa);
    framework::Widget wb;
    wb.id = w2;
    wb.name = "btnAlias2$" + std::to_string(n);
    wb.widgetClass = names::button;
    wb.xmlOnClick = h2;
    act.layout().addWidget(wb);

    auto body = [=](MethodBuilder &b) {
        int rb = b.newReg();
        int rv = b.newReg();
        b.callStatic(rb, util_cls, "helper");
        b.constInt(rv, 7);
        b.putField(rb, fieldRef(buf_cls, "v"), rv);
    };
    defineMethod(act.klass(), h1, {Type::object(names::view)},
                 Type::voidTy(), false, body);
    defineMethod(act.klass(), h2, {Type::object(names::view)},
                 Type::voidTy(), false, body);

    f.truth().add(buf_cls + ".v", SeedClass::FpTrap,
                  "actionAliasTrap: per-action buffers never alias; "
                  "reported only without action-sensitivity");
}

// --------------------------------------------------------------------
// Pattern: static field race between a service and the activity.
// --------------------------------------------------------------------
void
addServiceStaticRace(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string cfg_cls = "Cfg$" + std::to_string(n);
    std::string svc_cls = "SyncService$" + std::to_string(n);
    std::string act_cls = act.name();

    air::Module &mod = f.app().module();

    Klass *cfg = mod.addClass(cfg_cls, names::object);
    cfg->addField({"flag", Type::intTy(), true});

    Klass *svc = mod.addClass(svc_cls, names::service);
    emptyCtor(svc);
    defineMethod(svc, "onStartCommand",
                 {Type::object(names::intent)}, Type::intTy(), false,
                 [&](MethodBuilder &b) {
                     int r1 = b.newReg();
                     b.constInt(r1, 1);
                     b.putStatic(fieldRef(cfg_cls, "flag"), r1);
                     int rz = b.newReg();
                     b.constInt(rz, 0);
                     b.ret(rz);
                 });
    f.addManifestService(svc_cls);

    act.on("onResume", [=](MethodBuilder &b) {
        int r = b.newReg();
        b.getStatic(r, fieldRef(cfg_cls, "flag"));
    });

    f.truth().add(cfg_cls + ".flag", SeedClass::TrueRace,
                  "serviceStaticRace: service write vs activity read");
}

// --------------------------------------------------------------------
// Pattern: ordered lifecycle accesses (negative control).
// --------------------------------------------------------------------
void
addLifecycleSafe(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string act_cls = act.name();
    std::string field = "init$" + std::to_string(n);

    act.addField(field, Type::object(names::object));
    act.on("onCreate", [=](MethodBuilder &b) {
        int rn = b.newReg();
        b.newObject(rn, names::object);
        b.putField(b.thisReg(), fieldRef(act_cls, field), rn);
    });
    act.on("onDestroy", [=](MethodBuilder &b) {
        int r = b.newReg();
        int rn = b.newReg();
        b.getField(r, b.thisReg(), fieldRef(act_cls, field));
        b.constNull(rn);
        b.putField(b.thisReg(), fieldRef(act_cls, field), rn);
    });

    f.truth().add(act_cls + "." + field, SeedClass::FpTrap,
                  "lifecycleSafe: onCreate < onDestroy orders accesses");
}

// --------------------------------------------------------------------
// Pattern: enabledAfter GUI flow (negative control).
// --------------------------------------------------------------------
void
addGuiFlowSafe(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string act_cls = act.name();
    std::string field = "sel$" + std::to_string(n);
    int w1 = f.nextViewId();
    int w2 = f.nextViewId();
    std::string h1 = "onPick$" + std::to_string(n);
    std::string h2 = "onConfirm$" + std::to_string(n);

    act.addField(field, Type::object(names::object));
    framework::Widget wa;
    wa.id = w1;
    wa.name = "btnPick$" + std::to_string(n);
    wa.widgetClass = names::button;
    wa.xmlOnClick = h1;
    act.layout().addWidget(wa);
    framework::Widget wb;
    wb.id = w2;
    wb.name = "btnConfirm$" + std::to_string(n);
    wb.widgetClass = names::button;
    wb.xmlOnClick = h2;
    wb.enabledAfter = {w1}; // confirm only reachable after pick
    act.layout().addWidget(wb);

    defineMethod(act.klass(), h1, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int rn = b.newReg();
                     b.newObject(rn, names::object);
                     b.putField(b.thisReg(), fieldRef(act_cls, field),
                                rn);
                 });
    defineMethod(act.klass(), h2, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(act_cls, field));
                 });

    f.truth().add(act_cls + "." + field, SeedClass::FpTrap,
                  "guiFlowSafe: enabledAfter orders the GUI actions");
}

// --------------------------------------------------------------------
// Pattern: implicit dependency (paper Section 6.5, the OpenManager FP).
// A thread started in onCreate fills the list; the click handler can
// only fire after the user sees the filled list, but no static (or
// dynamic) happens-before captures that -- SIERRA reports the pair.
// --------------------------------------------------------------------
void
addImplicitDepTrap(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string filler_cls = "Filler$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string list_field = "list$" + std::to_string(n);
    int wid = f.nextViewId();
    std::string open = "onOpen$" + std::to_string(n);

    air::Module &mod = f.app().module();
    Klass *filler = mod.addClass(filler_cls, names::thread);
    filler->addField({"act", Type::object(act_cls), false});
    storingCtor(filler, filler_cls, "act", Type::object(act_cls));
    defineMethod(filler, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rn = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(filler_cls, "act"));
                     b.newObject(rn, names::object);
                     b.putField(ra, fieldRef(act_cls, list_field), rn);
                 });

    act.addField(list_field, Type::object(names::object));
    framework::Widget w;
    w.id = wid;
    w.name = "lstOpen$" + std::to_string(n);
    w.widgetClass = names::listView;
    w.xmlOnClick = open;
    act.layout().addWidget(w);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rw = b.newReg();
        b.newObject(rw, filler_cls);
        b.invoke(-1, InvokeKind::Special, {filler_cls, "<init>", 0},
                 {rw, b.thisReg()});
        b.call(rw, filler_cls, "start");
    });
    defineMethod(act.klass(), open, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(act_cls, list_field));
                 });

    f.truth().add(act_cls + "." + list_field, SeedClass::KnownFp,
                  "implicitDepTrap: the user clicks only after the "
                  "fill; beyond static reasoning");
}

// --------------------------------------------------------------------
// Pattern: index-insensitive container (paper Section 6.5's second FP
// class). Two GUI handlers touch disjoint array slots; the analysis
// merges all elements into one $elems location and reports a race.
// --------------------------------------------------------------------
void
addArrayIndexTrap(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string slot_cls = "Slot$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string arr_field = "slots$" + std::to_string(n);
    int w1 = f.nextViewId();
    int w2 = f.nextViewId();
    std::string h1 = "onSlotA$" + std::to_string(n);
    std::string h2 = "onSlotB$" + std::to_string(n);

    air::Module &mod = f.app().module();
    Klass *slot = mod.addClass(slot_cls, names::object);
    emptyCtor(slot);

    act.addField(arr_field, Type::array(slot_cls));
    framework::Widget wa;
    wa.id = w1;
    wa.name = "btnSlotA$" + std::to_string(n);
    wa.widgetClass = names::button;
    wa.xmlOnClick = h1;
    act.layout().addWidget(wa);
    framework::Widget wb;
    wb.id = w2;
    wb.name = "btnSlotB$" + std::to_string(n);
    wb.widgetClass = names::button;
    wb.xmlOnClick = h2;
    act.layout().addWidget(wb);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rlen = b.newReg();
        int rarr = b.newReg();
        b.constInt(rlen, 4);
        b.newArray(rarr, slot_cls, rlen);
        b.putField(b.thisReg(), fieldRef(act_cls, arr_field), rarr);
    });
    auto handler = [=](int index) {
        return [=](MethodBuilder &b) {
            int rarr = b.newReg();
            int ri = b.newReg();
            int rs = b.newReg();
            b.getField(rarr, b.thisReg(),
                       fieldRef(act_cls, arr_field));
            b.constInt(ri, index);
            b.newObject(rs, slot_cls);
            b.invoke(-1, InvokeKind::Special, {slot_cls, "<init>", 0},
                     {rs});
            b.arrayPut(rarr, ri, rs);
        };
    };
    defineMethod(act.klass(), h1, {Type::object(names::view)},
                 Type::voidTy(), false, handler(0));
    defineMethod(act.klass(), h2, {Type::object(names::view)},
                 Type::voidTy(), false, handler(1));

    f.truth().add(slot_cls + "[].$elems", SeedClass::KnownFp,
                  "arrayIndexTrap: disjoint indices merged by the "
                  "index-insensitive heap model");
}

// --------------------------------------------------------------------
// Pattern: per-event session objects through a helper chain. With
// plain hybrid k=1 contexts the helper's allocation merges across GUI
// actions (false aliasing, paper Section 3.3); action-sensitive
// contexts keep the sessions separate. Amplifies the Table 3 column
// 6-vs-7 ablation.
// --------------------------------------------------------------------
void
addWorkSession(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string sess_cls = "Session$" + std::to_string(n);
    std::string fac_cls = "SessFactory$" + std::to_string(n);
    std::string act_cls = act.name();
    int w1 = f.nextViewId();
    int w2 = f.nextViewId();
    int w3 = f.nextViewId();
    std::string h1 = "onWork1$" + std::to_string(n);
    std::string h2 = "onWork2$" + std::to_string(n);
    std::string h3 = "onWork3$" + std::to_string(n);

    air::Module &mod = f.app().module();
    Klass *sess = mod.addClass(sess_cls, names::object);
    sess->addField({"tag", Type::intTy(), false});
    sess->addField({"payload", Type::object(names::object), false});
    emptyCtor(sess);

    Klass *fac = mod.addClass(fac_cls, names::object);
    defineMethod(fac, "make", {}, Type::object(sess_cls), true,
                 [&](MethodBuilder &b) {
                     int rs = b.newReg();
                     b.newObject(rs, sess_cls);
                     b.invoke(-1, InvokeKind::Special,
                              {sess_cls, "<init>", 0}, {rs});
                     b.ret(rs);
                 });
    defineMethod(fac, "open", {}, Type::object(sess_cls), true,
                 [&](MethodBuilder &b) {
                     int rs = b.newReg();
                     b.callStatic(rs, fac_cls, "make");
                     b.ret(rs);
                 });

    auto add_widget = [&](int id, const std::string &cb) {
        framework::Widget w;
        w.id = id;
        w.name = "btn" + cb;
        w.widgetClass = names::button;
        w.xmlOnClick = cb;
        act.layout().addWidget(w);
    };
    add_widget(w1, h1);
    add_widget(w2, h2);
    add_widget(w3, h3);

    auto body = [=](int tag) {
        return [=](MethodBuilder &b) {
            int rs = b.newReg();
            int rv = b.newReg();
            int rn = b.newReg();
            int rr = b.newReg();
            b.callStatic(rs, fac_cls, "open");
            b.constInt(rv, tag);
            b.putField(rs, fieldRef(sess_cls, "tag"), rv);
            b.newObject(rn, names::object);
            b.putField(rs, fieldRef(sess_cls, "payload"), rn);
            b.getField(rr, rs, fieldRef(sess_cls, "tag"));
        };
    };
    defineMethod(act.klass(), h1, {Type::object(names::view)},
                 Type::voidTy(), false, body(1));
    defineMethod(act.klass(), h2, {Type::object(names::view)},
                 Type::voidTy(), false, body(2));
    defineMethod(act.klass(), h3, {Type::object(names::view)},
                 Type::voidTy(), false, body(3));

    f.truth().add(sess_cls + ".tag", SeedClass::FpTrap,
                  "workSession: per-action sessions never alias");
    f.truth().add(sess_cls + ".payload", SeedClass::FpTrap,
                  "workSession: per-action sessions never alias");
}

// --------------------------------------------------------------------
// Pattern: ServiceConnection vs. lifecycle (bindService).
// onServiceConnected caches the binder in an activity field that
// onDestroy clears -- unordered, a true race (Table 1's
// onServiceConnected row).
// --------------------------------------------------------------------
void
addConnectionRace(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string conn_cls = "Conn$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string binder_field = "binder$" + std::to_string(n);

    air::Module &mod = f.app().module();
    Klass *conn = mod.addClass(conn_cls, names::object);
    conn->addInterface(names::serviceConnection);
    conn->addField({"act", Type::object(act_cls), false});
    storingCtor(conn, conn_cls, "act", Type::object(act_cls));
    defineMethod(conn, "onServiceConnected",
                 {Type::object(names::object)}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(conn_cls, "act"));
                     b.putField(ra, fieldRef(act_cls, binder_field),
                                b.paramReg(0));
                 });
    defineMethod(conn, "onServiceDisconnected",
                 {Type::object(names::object)}, Type::voidTy(), false,
                 [&](MethodBuilder &b) { (void)b; });

    act.addField(binder_field, Type::object(names::object));
    act.on("onCreate", [=](MethodBuilder &b) {
        int rc = b.newReg();
        int ri = b.newReg();
        b.newObject(rc, conn_cls);
        b.invoke(-1, InvokeKind::Special, {conn_cls, "<init>", 0},
                 {rc, b.thisReg()});
        b.newObject(ri, names::intent);
        b.call(b.thisReg(), act_cls, "bindService", {ri, rc});
    });
    act.on("onDestroy", [=](MethodBuilder &b) {
        int rn = b.newReg();
        b.constNull(rn);
        b.putField(b.thisReg(), fieldRef(act_cls, binder_field), rn);
    });

    f.truth().add(act_cls + "." + binder_field, SeedClass::TrueRace,
                  "connectionRace: onServiceConnected write vs "
                  "onDestroy null");
}

// --------------------------------------------------------------------
// Pattern: Executor pool task vs. GUI read (Table 1's Runnable row).
// --------------------------------------------------------------------
void
addExecutorRace(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string job_cls = "PoolJob$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string out_field = "poolOut$" + std::to_string(n);
    int wid = f.nextViewId();
    std::string show = "onPool$" + std::to_string(n);

    air::Module &mod = f.app().module();
    Klass *job = mod.addClass(job_cls, names::object);
    job->addInterface(names::runnable);
    job->addField({"act", Type::object(act_cls), false});
    storingCtor(job, job_cls, "act", Type::object(act_cls));
    defineMethod(job, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rn = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(job_cls, "act"));
                     b.newObject(rn, names::object);
                     b.putField(ra, fieldRef(act_cls, out_field), rn);
                 });

    act.addField(out_field, Type::object(names::object));
    framework::Widget w;
    w.id = wid;
    w.name = "btnPool$" + std::to_string(n);
    w.widgetClass = names::button;
    w.xmlOnClick = show;
    act.layout().addWidget(w);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rj = b.newReg();
        b.newObject(rj, job_cls);
        b.invoke(-1, InvokeKind::Special, {job_cls, "<init>", 0},
                 {rj, b.thisReg()});
        // Submit through the Executor interface (invoke-interface).
        int rexec = b.newReg();
        b.newObject(rexec, names::executor);
        b.invoke(-1, InvokeKind::Interface,
                 {names::executor, "execute", 0}, {rexec, rj});
    });
    defineMethod(act.klass(), show, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(act_cls, out_field));
                 });

    f.truth().add(act_cls + "." + out_field, SeedClass::TrueRace,
                  "executorRace: pool write vs gui read");
}

// --------------------------------------------------------------------
// Pattern: HandlerThread (custom background looper). Two GUI handlers
// post jobs touching shared state to the same background looper: the
// posts are unordered (true event race on the custom looper). Jobs
// posted in order from onCreate are FIFO-ordered (rule 4 negative).
// --------------------------------------------------------------------
void
addHandlerThreadRace(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string act_cls = act.name();
    std::string job_a = "BgJobA$" + std::to_string(n);
    std::string job_b = "BgJobB$" + std::to_string(n);
    std::string init1 = "BgInit1$" + std::to_string(n);
    std::string init2 = "BgInit2$" + std::to_string(n);
    std::string handler_field = "bgHandler$" + std::to_string(n);
    std::string shared_field = "bgShared$" + std::to_string(n);
    std::string cfg_field = "bgCfg$" + std::to_string(n);
    int w1 = f.nextViewId();
    int w2 = f.nextViewId();
    std::string h1 = "onBgA$" + std::to_string(n);
    std::string h2 = "onBgB$" + std::to_string(n);

    air::Module &mod = f.app().module();
    auto make_runnable = [&](const std::string &cls,
                             const std::string &field, bool write) {
        Klass *k = mod.addClass(cls, names::object);
        k->addInterface(names::runnable);
        k->addField({"act", Type::object(act_cls), false});
        storingCtor(k, cls, "act", Type::object(act_cls));
        defineMethod(k, "run", {}, Type::voidTy(), false,
                     [&](MethodBuilder &b) {
                         int ra = b.newReg();
                         b.getField(ra, b.thisReg(),
                                    fieldRef(cls, "act"));
                         if (write) {
                             int rn = b.newReg();
                             b.newObject(rn, names::object);
                             b.putField(ra, fieldRef(act_cls, field),
                                        rn);
                         } else {
                             int r = b.newReg();
                             b.getField(r, ra,
                                        fieldRef(act_cls, field));
                         }
                     });
    };
    make_runnable(job_a, shared_field, true);
    make_runnable(job_b, shared_field, true);
    make_runnable(init1, cfg_field, true);
    make_runnable(init2, cfg_field, false);

    act.addField(handler_field, Type::object(names::handler));
    act.addField(shared_field, Type::object(names::object));
    act.addField(cfg_field, Type::object(names::object));
    framework::Widget wa;
    wa.id = w1;
    wa.name = "btnBgA$" + std::to_string(n);
    wa.widgetClass = names::button;
    wa.xmlOnClick = h1;
    act.layout().addWidget(wa);
    framework::Widget wb;
    wb.id = w2;
    wb.name = "btnBgB$" + std::to_string(n);
    wb.widgetClass = names::button;
    wb.xmlOnClick = h2;
    act.layout().addWidget(wb);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rt = b.newReg();
        int rs = b.newReg();
        int rl = b.newReg();
        int rh = b.newReg();
        b.newObject(rt, names::handlerThread);
        b.constStr(rs, "bg-worker");
        b.invoke(-1, InvokeKind::Special,
                 {names::handlerThread, "<init>", 0}, {rt, rs});
        b.call(rt, names::handlerThread, "start");
        b.callTo(rl, rt, names::handlerThread, "getLooper");
        b.newObject(rh, names::handler);
        b.invoke(-1, InvokeKind::Special,
                 {names::handler, "<init>", 0}, {rh, rl});
        b.putField(b.thisReg(), fieldRef(act_cls, handler_field), rh);
        // Ordered posts: init1 (write) then init2 (read) -- FIFO on
        // the background looper, so no race on the cfg field.
        int r1 = b.newReg();
        int r2 = b.newReg();
        b.newObject(r1, init1);
        b.invoke(-1, InvokeKind::Special, {init1, "<init>", 0},
                 {r1, b.thisReg()});
        b.newObject(r2, init2);
        b.invoke(-1, InvokeKind::Special, {init2, "<init>", 0},
                 {r2, b.thisReg()});
        b.call(rh, names::handler, "post", {r1});
        b.call(rh, names::handler, "post", {r2});
    });
    auto click_body = [=](const std::string &job_cls) {
        return [=](MethodBuilder &b) {
            int rh = b.newReg();
            int rj = b.newReg();
            b.getField(rh, b.thisReg(),
                       fieldRef(act_cls, handler_field));
            b.newObject(rj, job_cls);
            b.invoke(-1, InvokeKind::Special, {job_cls, "<init>", 0},
                     {rj, b.thisReg()});
            b.call(rh, names::handler, "post", {rj});
        };
    };
    defineMethod(act.klass(), h1, {Type::object(names::view)},
                 Type::voidTy(), false, click_body(job_a));
    defineMethod(act.klass(), h2, {Type::object(names::view)},
                 Type::voidTy(), false, click_body(job_b));

    f.truth().add(act_cls + "." + shared_field, SeedClass::TrueRace,
                  "handlerThreadRace: unordered posts on a custom "
                  "looper");
    f.truth().add(act_cls + "." + cfg_field, SeedClass::FpTrap,
                  "handlerThreadRace: FIFO-ordered posts (rule 4)");
}

// --------------------------------------------------------------------
// Pattern: background thread and GUI callback guarded by the same
// field monitor (false positive unless lock sets are on).
// --------------------------------------------------------------------
void
addLockGuarded(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string worker_cls = "Locker$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string lock_field = "lock$" + std::to_string(n);
    std::string shared_field = "guardedVal$" + std::to_string(n);
    int wid = f.nextViewId();
    std::string show = "onGuarded$" + std::to_string(n);

    air::Module &mod = f.app().module();

    // The worker writes the shared field under the activity's lock.
    Klass *worker = mod.addClass(worker_cls, names::thread);
    worker->addField({"act", Type::object(act_cls), false});
    storingCtor(worker, worker_cls, "act", Type::object(act_cls));
    defineMethod(worker, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rl = b.newReg();
                     int rv = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(worker_cls, "act"));
                     b.getField(rl, ra, fieldRef(act_cls, lock_field));
                     b.monitorEnter(rl);
                     b.newObject(rv, names::object);
                     b.putField(ra, fieldRef(act_cls, shared_field),
                                rv);
                     b.monitorExit(rl);
                 });

    act.addField(lock_field, Type::object(names::object));
    act.addField(shared_field, Type::object(names::object));
    framework::Widget w;
    w.id = wid;
    w.name = "btnGuarded$" + std::to_string(n);
    w.widgetClass = names::button;
    w.xmlOnClick = show;
    act.layout().addWidget(w);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rl = b.newReg();
        int rw = b.newReg();
        b.newObject(rl, names::object);
        b.putField(b.thisReg(), fieldRef(act_cls, lock_field), rl);
        b.newObject(rw, worker_cls);
        b.invoke(-1, InvokeKind::Special, {worker_cls, "<init>", 0},
                 {rw, b.thisReg()});
        b.call(rw, worker_cls, "start");
    });
    // The GUI read holds the same monitor: the pair has a common
    // must-held lock and one background side, so the lock-set stage
    // refutes it; symbolic execution alone cannot (no guards).
    defineMethod(act.klass(), show, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int rl = b.newReg();
                     int rv = b.newReg();
                     b.getField(rl, b.thisReg(),
                                fieldRef(act_cls, lock_field));
                     b.monitorEnter(rl);
                     b.getField(rv, b.thisReg(),
                                fieldRef(act_cls, shared_field));
                     b.monitorExit(rl);
                 });

    f.truth().add(act_cls + "." + shared_field, SeedClass::FpTrap,
                  "lockGuarded: both sides hold the same field "
                  "monitor");
}

// --------------------------------------------------------------------
// Pattern: method-local scratch buffers (pruned by escape analysis).
// --------------------------------------------------------------------
void
addLocalScratch(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string scratch_cls = "Scratch$" + std::to_string(n);
    std::string worker_cls = "Cruncher$" + std::to_string(n);
    std::string act_cls = act.name();

    air::Module &mod = f.app().module();

    Klass *scratch = mod.addClass(scratch_cls, names::object);
    scratch->addField({"val", Type::intTy(), false});
    scratch->addField({"sum", Type::intTy(), false});
    emptyCtor(scratch);

    // A background thread that only touches a buffer it allocates
    // itself: the accesses never pair with another action, and the
    // escape stage drops them before the quadratic loop.
    Klass *worker = mod.addClass(worker_cls, names::thread);
    emptyCtor(worker);
    defineMethod(worker, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int rs = b.newReg();
                     int r1 = b.newReg();
                     int r2 = b.newReg();
                     b.newObject(rs, scratch_cls);
                     b.invoke(-1, InvokeKind::Special,
                              {scratch_cls, "<init>", 0}, {rs});
                     b.constInt(r1, 7);
                     b.putField(rs, fieldRef(scratch_cls, "val"), r1);
                     b.getField(r2, rs, fieldRef(scratch_cls, "val"));
                     b.putField(rs, fieldRef(scratch_cls, "sum"), r2);
                 });

    act.on("onCreate", [=](MethodBuilder &b) {
        // A second local scratch in the lifecycle action: same class,
        // different allocation site; neither object escapes.
        int rs = b.newReg();
        int r1 = b.newReg();
        int rw = b.newReg();
        b.newObject(rs, scratch_cls);
        b.invoke(-1, InvokeKind::Special, {scratch_cls, "<init>", 0},
                 {rs});
        b.constInt(r1, 1);
        b.putField(rs, fieldRef(scratch_cls, "val"), r1);
        b.newObject(rw, worker_cls);
        b.invoke(-1, InvokeKind::Special, {worker_cls, "<init>", 0},
                 {rw});
        b.call(rw, worker_cls, "start");
    });

    f.truth().add(scratch_cls + ".val", SeedClass::FpTrap,
                  "localScratch: thread-local buffers never pair");
}

// --------------------------------------------------------------------
// Pattern: computedGuard taken interprocedural. stop() clears the
// guard through a 9-deep chain of setter helpers (clear0 .. clear8),
// deeper than the executor's call-descend limit, so backward execution
// havocs the call and keeps the report. The IFDS stage's must-write
// summaries prove the chain stores the constant 0 into both fields,
// turning the havoc back into a strong update that conflicts with the
// guard constraint -- refutable only with interprocedural constants.
// --------------------------------------------------------------------
void
addInterprocGuard(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string timer_cls = "IPGuard$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string timer_field = "ipguard$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *timer = mod.addClass(timer_cls, names::object);
    timer->addInterface(names::runnable);
    timer->addField({"mOn", Type::intTy(), false});
    timer->addField({"mHits", Type::intTy(), false});
    timer->addField({"handler", Type::object(names::handler), false});
    emptyCtor(timer);
    defineMethod(timer, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     Label l_end = b.newLabel();
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(timer_cls, "mOn"));
                     b.ifz(r, CondKind::Eq, l_end);
                     int rt = b.newReg();
                     int rc = b.newReg();
                     int rt2 = b.newReg();
                     b.getField(rt, b.thisReg(),
                                fieldRef(timer_cls, "mHits"));
                     b.constInt(rc, 1);
                     b.binOp(rt2, air::BinOpKind::Add, rt, rc);
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mHits"), rt2);
                     b.bind(l_end);
                     b.retVoid();
                 });
    // clear0 .. clear7 forward their argument down the chain; clear8
    // stores it. Every link just rides `this`, so the chain's
    // must-write summary stays exclusive.
    for (int i = 0; i < 8; ++i) {
        std::string link = "clear" + std::to_string(i);
        std::string next = "clear" + std::to_string(i + 1);
        defineMethod(timer, link, {Type::intTy()}, Type::voidTy(),
                     false, [&](MethodBuilder &b) {
                         b.call(b.thisReg(), timer_cls, next,
                                {b.paramReg(0)});
                     });
    }
    defineMethod(timer, "clear8", {Type::intTy()}, Type::voidTy(),
                 false, [&](MethodBuilder &b) {
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mOn"),
                                b.paramReg(0));
                     b.putField(b.thisReg(),
                                fieldRef(timer_cls, "mHits"),
                                b.paramReg(0));
                 });
    defineMethod(timer, "stop", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     Label l_end = b.newLabel();
                     int r = b.newReg();
                     b.getField(r, b.thisReg(),
                                fieldRef(timer_cls, "mOn"));
                     b.ifz(r, CondKind::Eq, l_end);
                     int rz = b.newReg();
                     b.constInt(rz, 0);
                     b.call(b.thisReg(), timer_cls, "clear0", {rz});
                     b.bind(l_end);
                     b.retVoid();
                 });

    act.addField(timer_field, Type::object(timer_cls));

    act.on("onCreate", [=](MethodBuilder &b) {
        int rt = b.newReg();
        int rh = b.newReg();
        int r1 = b.newReg();
        b.newObject(rt, timer_cls);
        b.invoke(-1, InvokeKind::Special, {timer_cls, "<init>", 0},
                 {rt});
        b.newObject(rh, names::handler);
        b.invoke(-1, InvokeKind::Special,
                 {names::handler, "<init>", 0}, {rh});
        b.putField(rt, fieldRef(timer_cls, "handler"), rh);
        b.putField(b.thisReg(), fieldRef(act_cls, timer_field), rt);
        b.constInt(r1, 1);
        b.putField(rt, fieldRef(timer_cls, "mOn"), r1);
        b.getField(rh, rt, fieldRef(timer_cls, "handler"));
        b.call(rh, names::handler, "post", {rt});
    });
    act.on("onPause", [=](MethodBuilder &b) {
        int rt = b.newReg();
        b.getField(rt, b.thisReg(), fieldRef(act_cls, timer_field));
        b.call(rt, timer_cls, "stop");
    });

    f.truth().add(timer_cls + ".mOn", SeedClass::TrueRace,
                  "interprocGuard: guard variable race (benign)");
    f.truth().add(timer_cls + ".mHits", SeedClass::FpTrap,
                  "interprocGuard: guard cleared through a 9-deep "
                  "setter chain; refutable only with interprocedural "
                  "constants");
}

// --------------------------------------------------------------------
// Pattern: use-after-destroy. onDestroy nulls a view field (through a
// release helper, so the null rides a parameter) while a posted task
// still dereferences it -- unordered, so the posted read can follow
// the teardown. The IFDS use-after-destroy client reports it.
// --------------------------------------------------------------------
void
addUseAfterDestroy(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string render_cls = "Render$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string view_field = "view$" + std::to_string(n);
    std::string release = "release$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *render = mod.addClass(render_cls, names::object);
    render->addInterface(names::runnable);
    render->addField({"act", Type::object(act_cls), false});
    storingCtor(render, render_cls, "act", Type::object(act_cls));
    defineMethod(render, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rv = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(render_cls, "act"));
                     b.getField(rv, ra,
                                fieldRef(act_cls, view_field));
                 });

    act.addField(view_field, Type::object(names::view));
    defineMethod(act.klass(), release, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     b.putField(b.thisReg(),
                                fieldRef(act_cls, view_field),
                                b.paramReg(0));
                 });

    act.on("onCreate", [=](MethodBuilder &b) {
        int rv = b.newReg();
        int rr = b.newReg();
        int rh = b.newReg();
        b.newObject(rv, names::view);
        b.putField(b.thisReg(), fieldRef(act_cls, view_field), rv);
        b.newObject(rr, render_cls);
        b.invoke(-1, InvokeKind::Special, {render_cls, "<init>", 0},
                 {rr, b.thisReg()});
        b.newObject(rh, names::handler);
        b.invoke(-1, InvokeKind::Special,
                 {names::handler, "<init>", 0}, {rh});
        b.call(rh, names::handler, "post", {rr});
    });
    act.on("onDestroy", [=](MethodBuilder &b) {
        int rn = b.newReg();
        b.constNull(rn);
        b.call(b.thisReg(), act_cls, release, {rn});
    });

    f.truth().add(act_cls + "." + view_field, SeedClass::TrueRace,
                  "useAfterDestroy: view nulled in onDestroy, read "
                  "from a posted task");
}

namespace {

/** A Thread subclass whose run() acquires two activity field monitors
 *  in the given order and writes a shared field under both. */
void
defineTwoLockWorker(air::Module &mod, const std::string &worker_cls,
                    const std::string &act_cls,
                    const std::string &first_lock,
                    const std::string &second_lock,
                    const std::string &shared_field)
{
    Klass *worker = mod.addClass(worker_cls, names::thread);
    worker->addField({"act", Type::object(act_cls), false});
    storingCtor(worker, worker_cls, "act", Type::object(act_cls));
    defineMethod(worker, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int r1 = b.newReg();
                     int r2 = b.newReg();
                     int rv = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(worker_cls, "act"));
                     b.getField(r1, ra, fieldRef(act_cls, first_lock));
                     b.getField(r2, ra, fieldRef(act_cls, second_lock));
                     b.monitorEnter(r1);
                     b.monitorEnter(r2);
                     b.newObject(rv, names::object);
                     b.putField(ra, fieldRef(act_cls, shared_field),
                                rv);
                     b.monitorExit(r2);
                     b.monitorExit(r1);
                 });
}

/** Common body of the two deadlock patterns: two field monitors, two
 *  background threads, acquisition orders as given. */
void
addTwoLockThreads(AppFactory &f, ActivityBuilder &act, bool opposite)
{
    int n = f.nextUnique();
    std::string w1_cls = "Transfer$" + std::to_string(n);
    std::string w2_cls = "Audit$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string lock_a = "lockA$" + std::to_string(n);
    std::string lock_b = "lockB$" + std::to_string(n);
    std::string shared = "balance$" + std::to_string(n);

    air::Module &mod = f.app().module();
    defineTwoLockWorker(mod, w1_cls, act_cls, lock_a, lock_b, shared);
    defineTwoLockWorker(mod, w2_cls, act_cls,
                        opposite ? lock_b : lock_a,
                        opposite ? lock_a : lock_b, shared);

    act.addField(lock_a, Type::object(names::object));
    act.addField(lock_b, Type::object(names::object));
    act.addField(shared, Type::object(names::object));
    act.on("onCreate", [=](MethodBuilder &b) {
        int rla = b.newReg();
        int rlb = b.newReg();
        b.newObject(rla, names::object);
        b.putField(b.thisReg(), fieldRef(act_cls, lock_a), rla);
        b.newObject(rlb, names::object);
        b.putField(b.thisReg(), fieldRef(act_cls, lock_b), rlb);
        for (const std::string &w : {w1_cls, w2_cls}) {
            int rw = b.newReg();
            b.newObject(rw, w);
            b.invoke(-1, InvokeKind::Special, {w, "<init>", 0},
                     {rw, b.thisReg()});
            b.call(rw, w, "start");
        }
    });

    // Both writers hold both monitors at the write, so the racy pair
    // on `shared` is lockset-refuted either way — the two patterns
    // differ only in the acquisition *order*, i.e. in the deadlock
    // verdict.
    f.truth().add(act_cls + "." + shared, SeedClass::FpTrap,
                  opposite ? "deadlockCycle: writes guarded by both "
                             "monitors (but acquired in opposite "
                             "orders)"
                           : "deadlockOrdered: writes guarded by both "
                             "monitors, consistent order");
    if (opposite)
        f.truth().addDeadlock();
}

} // namespace

// --------------------------------------------------------------------
// Pattern: UNDEAD-style cyclic lock acquisition (deadlock positive).
// --------------------------------------------------------------------
void
addDeadlockCycle(AppFactory &f, ActivityBuilder &act)
{
    addTwoLockThreads(f, act, /*opposite=*/true);
}

// --------------------------------------------------------------------
// Pattern: consistent lock order (deadlock negative control).
// --------------------------------------------------------------------
void
addDeadlockOrdered(AppFactory &f, ActivityBuilder &act)
{
    addTwoLockThreads(f, act, /*opposite=*/false);
}

// --------------------------------------------------------------------
// Pattern: cross-component race through an explicit startActivity.
// --------------------------------------------------------------------
void
addIccStartActivity(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string feed_cls = "Feed$" + std::to_string(n);
    std::string worker_cls = "Fetcher$" + std::to_string(n);
    // No '$' in the activity name: it must match the manifest entry
    // the Intent string names.
    std::string target_cls = "IccDetail" + std::to_string(n);
    std::string act_cls = act.name();

    air::Module &mod = f.app().module();

    Klass *feed = mod.addClass(feed_cls, names::object);
    feed->addField({"article", Type::object(names::object), true});

    Klass *worker = mod.addClass(worker_cls, names::thread);
    emptyCtor(worker);
    defineMethod(worker, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int rv = b.newReg();
                     b.newObject(rv, names::object);
                     b.putStatic(fieldRef(feed_cls, "article"), rv);
                 });

    // The target component: its onCreate reads what the sender's
    // worker writes. In the target's *own* harness no writer runs, and
    // without ICC the sender's harness never drives this onCreate — so
    // the race is reachable only through the ICC edge.
    ActivityBuilder &target = f.addActivity(target_cls);
    target.on("onCreate", [=](MethodBuilder &b) {
        int r = b.newReg();
        b.getStatic(r, fieldRef(feed_cls, "article"));
    });

    act.on("onCreate", [=](MethodBuilder &b) {
        int rw = b.newReg();
        b.newObject(rw, worker_cls);
        b.invoke(-1, InvokeKind::Special, {worker_cls, "<init>", 0},
                 {rw});
        b.call(rw, worker_cls, "start");
        int rs = b.newReg();
        int ri = b.newReg();
        b.constStr(rs, target_cls);
        b.newObject(ri, names::intent);
        b.invoke(-1, InvokeKind::Special, {names::intent, "<init>", 0},
                 {ri, rs});
        b.call(b.thisReg(), act_cls, "startActivity", {ri});
    });

    f.truth().add(feed_cls + ".article", SeedClass::TrueRace,
                  "iccStartActivity: worker write vs launched "
                  "activity's onCreate read",
                  /*requires_icc=*/true);
}

// --------------------------------------------------------------------
// Pattern: cross-component race through a field-stored PendingIntent.
// --------------------------------------------------------------------
void
addIccPendingIntent(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string box_cls = "AlarmBox$" + std::to_string(n);
    std::string worker_cls = "Refresher$" + std::to_string(n);
    std::string target_cls = "IccAlert" + std::to_string(n);
    std::string act_cls = act.name();
    std::string pending_field = "alarm$" + std::to_string(n);
    int wid = f.nextViewId();
    std::string fire = "onFire$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *box = mod.addClass(box_cls, names::object);
    box->addField({"payload", Type::object(names::object), true});

    Klass *worker = mod.addClass(worker_cls, names::thread);
    emptyCtor(worker);
    defineMethod(worker, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int rv = b.newReg();
                     b.newObject(rv, names::object);
                     b.putStatic(fieldRef(box_cls, "payload"), rv);
                 });

    ActivityBuilder &target = f.addActivity(target_cls);
    target.on("onCreate", [=](MethodBuilder &b) {
        int r = b.newReg();
        b.getStatic(r, fieldRef(box_cls, "payload"));
    });

    act.addField(pending_field, Type::object(names::pendingIntent));
    framework::Widget w;
    w.id = wid;
    w.name = "btnFire$" + std::to_string(n);
    w.widgetClass = names::button;
    w.xmlOnClick = fire;
    act.layout().addWidget(w);

    // onCreate wraps the explicit Intent in a PendingIntent and parks
    // it in a field; the GUI handler fires it later — RAICC's
    // "atypical ICC", resolved via the field-stored target pass.
    act.on("onCreate", [=](MethodBuilder &b) {
        int rw = b.newReg();
        b.newObject(rw, worker_cls);
        b.invoke(-1, InvokeKind::Special, {worker_cls, "<init>", 0},
                 {rw});
        b.call(rw, worker_cls, "start");
        int rs = b.newReg();
        int ri = b.newReg();
        int rp = b.newReg();
        b.constStr(rs, target_cls);
        b.newObject(ri, names::intent);
        b.invoke(-1, InvokeKind::Special, {names::intent, "<init>", 0},
                 {ri, rs});
        b.callStatic(rp, names::pendingIntent, "getActivity", {ri});
        b.putField(b.thisReg(), fieldRef(act_cls, pending_field), rp);
    });
    defineMethod(act.klass(), fire, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int rp = b.newReg();
                     b.getField(rp, b.thisReg(),
                                fieldRef(act_cls, pending_field));
                     b.call(rp, names::pendingIntent, "send");
                 });

    f.truth().add(box_cls + ".payload", SeedClass::TrueRace,
                  "iccPendingIntent: worker write vs PendingIntent "
                  "target's onCreate read",
                  /*requires_icc=*/true);
}

// --------------------------------------------------------------------
// Pattern: registration window (enablement-stage positive + negative).
//
// A receiver registered in onCreate and unregistered in onPause writes
// two activity fields from onReceive: one also written by a click
// listener (a true race — the click can interleave with deliveries
// inside the registration window), one read only by onDestroy (a false
// positive — onPause must-unregisters before onDestroy can run, so no
// delivery can overlap the epilogue read).
// --------------------------------------------------------------------
void
addRegisteredWindow(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    int view_id = f.nextViewId();
    std::string recv_cls = "Win$" + std::to_string(n);
    std::string click_cls = "WinClick$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string recv_field = "winRecv$" + std::to_string(n);
    std::string state_field = "winState$" + std::to_string(n);
    std::string buf_field = "winBuf$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *recv = mod.addClass(recv_cls, names::receiver);
    recv->addField({"act", Type::object(act_cls), false});
    storingCtor(recv, recv_cls, "act", Type::object(act_cls));
    defineMethod(recv, "onReceive",
                 {Type::object(names::object),
                  Type::object(names::intent)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int r1 = b.newReg();
                     int r2 = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(recv_cls, "act"));
                     b.constInt(r1, 1);
                     b.putField(ra, fieldRef(act_cls, state_field), r1);
                     b.constInt(r2, 7);
                     b.putField(ra, fieldRef(act_cls, buf_field), r2);
                 });

    Klass *click = mod.addClass(click_cls, names::object);
    click->addInterface(names::onClickListener);
    click->addField({"act", Type::object(act_cls), false});
    storingCtor(click, click_cls, "act", Type::object(act_cls));
    defineMethod(click, "onClick", {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int r2 = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(click_cls, "act"));
                     b.constInt(r2, 2);
                     b.putField(ra, fieldRef(act_cls, state_field), r2);
                 });

    act.addField(recv_field, Type::object(recv_cls));
    act.addField(state_field, Type::intTy());
    act.addField(buf_field, Type::intTy());
    framework::Widget w;
    w.id = view_id;
    w.name = "btnWin$" + std::to_string(n);
    w.widgetClass = names::button;
    act.layout().addWidget(w);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rid = b.newReg();
        int rv = b.newReg();
        int rcl = b.newReg();
        int rr = b.newReg();
        int rs = b.newReg();
        b.constInt(rid, view_id);
        b.callTo(rv, b.thisReg(), act_cls, "findViewById", {rid});
        b.newObject(rcl, click_cls);
        b.invoke(-1, InvokeKind::Special, {click_cls, "<init>", 0},
                 {rcl, b.thisReg()});
        b.call(rv, names::view, "setOnClickListener", {rcl});
        b.newObject(rr, recv_cls);
        b.invoke(-1, InvokeKind::Special, {recv_cls, "<init>", 0},
                 {rr, b.thisReg()});
        b.putField(b.thisReg(), fieldRef(act_cls, recv_field), rr);
        b.constStr(rs, "org.sierra.WIN_UPDATE");
        b.call(b.thisReg(), act_cls, "registerReceiver", {rr, rs});
    });
    act.on("onPause", [=](MethodBuilder &b) {
        int rr = b.newReg();
        b.getField(rr, b.thisReg(), fieldRef(act_cls, recv_field));
        b.call(b.thisReg(), act_cls, "unregisterReceiver", {rr});
    });
    act.on("onDestroy", [=](MethodBuilder &b) {
        int rb = b.newReg();
        b.getField(rb, b.thisReg(), fieldRef(act_cls, buf_field));
    });

    f.truth().add(act_cls + "." + state_field, SeedClass::TrueRace,
                  "registeredWindow: onReceive vs onClick inside the "
                  "registration window");
    f.truth().add(act_cls + "." + buf_field, SeedClass::FpTrap,
                  "registeredWindow: onPause must-unregisters before "
                  "onDestroy reads");
}

// --------------------------------------------------------------------
// Pattern: symmetric unregistration (enablement-stage negative).
//
// The receiverDbRace motif with the teardown moved from onDestroy to
// onPause: every onDestroy read of the receiver-written field is then
// ordered after a must-unregister, so the report is a false positive
// exactly of the kind the enablement stage refutes.
// --------------------------------------------------------------------
void
addUnregisteredFpTrap(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string recv_cls = "Gate$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string recv_field = "gateRecv$" + std::to_string(n);
    std::string val_field = "gateVal$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *recv = mod.addClass(recv_cls, names::receiver);
    recv->addField({"act", Type::object(act_cls), false});
    storingCtor(recv, recv_cls, "act", Type::object(act_cls));
    defineMethod(recv, "onReceive",
                 {Type::object(names::object),
                  Type::object(names::intent)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int r1 = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(recv_cls, "act"));
                     b.constInt(r1, 1);
                     b.putField(ra, fieldRef(act_cls, val_field), r1);
                 });

    act.addField(recv_field, Type::object(recv_cls));
    act.addField(val_field, Type::intTy());

    act.on("onCreate", [=](MethodBuilder &b) {
        int rr = b.newReg();
        int rs = b.newReg();
        b.newObject(rr, recv_cls);
        b.invoke(-1, InvokeKind::Special, {recv_cls, "<init>", 0},
                 {rr, b.thisReg()});
        b.putField(b.thisReg(), fieldRef(act_cls, recv_field), rr);
        b.constStr(rs, "org.sierra.GATE_OPEN");
        b.call(b.thisReg(), act_cls, "registerReceiver", {rr, rs});
    });
    act.on("onPause", [=](MethodBuilder &b) {
        int rr = b.newReg();
        b.getField(rr, b.thisReg(), fieldRef(act_cls, recv_field));
        b.call(b.thisReg(), act_cls, "unregisterReceiver", {rr});
    });
    act.on("onDestroy", [=](MethodBuilder &b) {
        int rv = b.newReg();
        b.getField(rv, b.thisReg(), fieldRef(act_cls, val_field));
    });

    f.truth().add(act_cls + "." + val_field, SeedClass::FpTrap,
                  "unregisteredFpTrap: onPause must-unregisters before "
                  "onDestroy reads");
}

// --------------------------------------------------------------------
// Pattern: removed callback (enablement-stage negative, Handler side).
//
// A runnable posted in onCreate is removed via removeCallbacks in
// onPause; its write can therefore never overlap the onDestroy read —
// the Handler.removeCallbacks purge drops pending posts, and the
// epilogue orders onPause before onDestroy.
// --------------------------------------------------------------------
void
addRemovedCallback(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string job_cls = "Job$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string handler_field = "jobHandler$" + std::to_string(n);
    std::string job_field = "job$" + std::to_string(n);
    std::string ticks_field = "jobTicks$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *job = mod.addClass(job_cls, names::object);
    job->addInterface(names::runnable);
    job->addField({"act", Type::object(act_cls), false});
    storingCtor(job, job_cls, "act", Type::object(act_cls));
    defineMethod(job, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int r1 = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(job_cls, "act"));
                     b.constInt(r1, 1);
                     b.putField(ra, fieldRef(act_cls, ticks_field), r1);
                 });

    act.addField(handler_field, Type::object(names::handler));
    act.addField(job_field, Type::object(job_cls));
    act.addField(ticks_field, Type::intTy());

    act.on("onCreate", [=](MethodBuilder &b) {
        int rh = b.newReg();
        int rj = b.newReg();
        b.newObject(rh, names::handler);
        b.invoke(-1, InvokeKind::Special,
                 {names::handler, "<init>", 0}, {rh});
        b.putField(b.thisReg(), fieldRef(act_cls, handler_field), rh);
        b.newObject(rj, job_cls);
        b.invoke(-1, InvokeKind::Special, {job_cls, "<init>", 0},
                 {rj, b.thisReg()});
        b.putField(b.thisReg(), fieldRef(act_cls, job_field), rj);
        b.call(rh, names::handler, "post", {rj});
    });
    act.on("onPause", [=](MethodBuilder &b) {
        int rh = b.newReg();
        int rj = b.newReg();
        b.getField(rh, b.thisReg(), fieldRef(act_cls, handler_field));
        b.getField(rj, b.thisReg(), fieldRef(act_cls, job_field));
        b.call(rh, names::handler, "removeCallbacks", {rj});
    });
    act.on("onDestroy", [=](MethodBuilder &b) {
        int rv = b.newReg();
        b.getField(rv, b.thisReg(), fieldRef(act_cls, ticks_field));
    });

    f.truth().add(act_cls + "." + ticks_field, SeedClass::FpTrap,
                  "removedCallback: onPause removeCallbacks before "
                  "onDestroy reads");
}

// --------------------------------------------------------------------
// Fixture: listener cleared in onPause (the enablement stage's
// listener-disable typestate). Not in the catalog.
// --------------------------------------------------------------------
void
addClearedListener(AppFactory &f, ActivityBuilder &act, bool clear_in_pause)
{
    int n = f.nextUnique();
    int view_id = f.nextViewId();
    std::string click_cls = "ClearedClick$" + std::to_string(n);
    std::string read_cls = "ClearedRead$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string view_field = "clearedView$" + std::to_string(n);
    std::string hits_field = "clickHits$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *click = mod.addClass(click_cls, names::object);
    click->addInterface(names::onClickListener);
    click->addField({"act", Type::object(act_cls), false});
    storingCtor(click, click_cls, "act", Type::object(act_cls));
    defineMethod(click, "onClick", {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int r1 = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(click_cls, "act"));
                     b.constInt(r1, 1);
                     b.putField(ra, fieldRef(act_cls, hits_field), r1);
                 });

    Klass *read = mod.addClass(read_cls, names::object);
    read->addInterface(names::runnable);
    read->addField({"act", Type::object(act_cls), false});
    storingCtor(read, read_cls, "act", Type::object(act_cls));
    defineMethod(read, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rv = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(read_cls, "act"));
                     b.getField(rv, ra, fieldRef(act_cls, hits_field));
                 });

    act.addField(view_field, Type::object(names::view));
    act.addField(hits_field, Type::intTy());
    framework::Widget w;
    w.id = view_id;
    w.name = "btnCleared$" + std::to_string(n);
    w.widgetClass = names::button;
    act.layout().addWidget(w);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rid = b.newReg();
        int rv = b.newReg();
        int rcl = b.newReg();
        b.constInt(rid, view_id);
        b.callTo(rv, b.thisReg(), act_cls, "findViewById", {rid});
        b.putField(b.thisReg(), fieldRef(act_cls, view_field), rv);
        b.newObject(rcl, click_cls);
        b.invoke(-1, InvokeKind::Special, {click_cls, "<init>", 0},
                 {rcl, b.thisReg()});
        b.call(rv, names::view, "setOnClickListener", {rcl});
    });
    if (clear_in_pause) {
        act.on("onPause", [=](MethodBuilder &b) {
            int rv = b.newReg();
            int rnull = b.newReg();
            b.getField(rv, b.thisReg(), fieldRef(act_cls, view_field));
            b.constNull(rnull);
            b.call(rv, names::view, "setOnClickListener", {rnull});
        });
    }
    act.on("onStop", [=](MethodBuilder &b) {
        int rh = b.newReg();
        int rr = b.newReg();
        b.newObject(rh, names::handler);
        b.invoke(-1, InvokeKind::Special,
                 {names::handler, "<init>", 0}, {rh});
        b.newObject(rr, read_cls);
        b.invoke(-1, InvokeKind::Special, {read_cls, "<init>", 0},
                 {rr, b.thisReg()});
        b.call(rh, names::handler, "post", {rr});
    });

    f.truth().add(act_cls + "." + hits_field, SeedClass::FpTrap,
                  "clearedListener: onPause clears the click listener "
                  "before onStop posts the read");
}

// --------------------------------------------------------------------
// Pattern: harmful null race (nullflow HARMFUL). The racing write is
// the field's ONLY store -- the activity never initializes it -- so a
// GUI read that loses the race observes the absent-initialization null
// and the dereference crashes.
// --------------------------------------------------------------------
void
addNullSourceCrash(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string worker_cls = "Loader$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string payload_field = "payload$" + std::to_string(n);
    int wid = f.nextViewId();
    std::string open = "onOpen$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *worker = mod.addClass(worker_cls, names::thread);
    worker->addField({"act", Type::object(act_cls), false});
    storingCtor(worker, worker_cls, "act", Type::object(act_cls));
    defineMethod(worker, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rn = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(worker_cls, "act"));
                     b.newObject(rn, names::object);
                     b.putField(ra, fieldRef(act_cls, payload_field),
                                rn);
                 });

    act.addField(payload_field, Type::object(names::object));
    framework::Widget w;
    w.id = wid;
    w.name = "btnOpen$" + std::to_string(n);
    w.widgetClass = names::button;
    w.xmlOnClick = open;
    act.layout().addWidget(w);

    // Unlike threadRace, onCreate deliberately does NOT null-init the
    // field: the worker's store is its sole write anywhere, so the
    // null the losing read observes is the absent initialization.
    act.on("onCreate", [=](MethodBuilder &b) {
        int rw = b.newReg();
        b.newObject(rw, worker_cls);
        b.invoke(-1, InvokeKind::Special, {worker_cls, "<init>", 0},
                 {rw, b.thisReg()});
        b.call(rw, worker_cls, "start");
    });
    defineMethod(act.klass(), open, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     int r1 = b.newReg();
                     b.getField(r1, b.thisReg(),
                                fieldRef(act_cls, payload_field));
                 });

    f.truth().add(act_cls + "." + payload_field, SeedClass::TrueRace,
                  "nullSourceCrash: sole non-null write races the "
                  "unguarded GUI read",
                  /*requires_icc=*/false, /*harmful=*/true);
}

// --------------------------------------------------------------------
// Pattern: guarded null race (nullflow GUARDED). Same write/read race
// as nullSourceCrash -- it must still be reported -- but every use of
// the field in the GUI handler sits behind a null check on the field
// itself, so losing the race cannot dereference null.
// --------------------------------------------------------------------
void
addGuardedNullRead(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string worker_cls = "Primer$" + std::to_string(n);
    std::string act_cls = act.name();
    std::string session_field = "session$" + std::to_string(n);
    int wid = f.nextViewId();
    std::string use = "onUse$" + std::to_string(n);

    air::Module &mod = f.app().module();

    Klass *worker = mod.addClass(worker_cls, names::thread);
    worker->addField({"act", Type::object(act_cls), false});
    storingCtor(worker, worker_cls, "act", Type::object(act_cls));
    defineMethod(worker, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int ra = b.newReg();
                     int rn = b.newReg();
                     b.getField(ra, b.thisReg(),
                                fieldRef(worker_cls, "act"));
                     b.newObject(rn, names::object);
                     b.putField(ra, fieldRef(act_cls, session_field),
                                rn);
                 });

    act.addField(session_field, Type::object(names::object));
    framework::Widget w;
    w.id = wid;
    w.name = "btnUse$" + std::to_string(n);
    w.widgetClass = names::button;
    w.xmlOnClick = use;
    act.layout().addWidget(w);

    act.on("onCreate", [=](MethodBuilder &b) {
        int rn = b.newReg();
        int rw = b.newReg();
        b.constNull(rn);
        b.putField(b.thisReg(), fieldRef(act_cls, session_field), rn);
        b.newObject(rw, worker_cls);
        b.invoke(-1, InvokeKind::Special, {worker_cls, "<init>", 0},
                 {rw, b.thisReg()});
        b.call(rw, worker_cls, "start");
    });
    // The guard tests the racy field itself (not a separate flag), so
    // symbolic refutation cannot order the accesses away: the race
    // survives and nullflow alone downgrades it to GUARDED.
    defineMethod(act.klass(), use, {Type::object(names::view)},
                 Type::voidTy(), false, [&](MethodBuilder &b) {
                     Label l_end = b.newLabel();
                     int r1 = b.newReg();
                     b.getField(r1, b.thisReg(),
                                fieldRef(act_cls, session_field));
                     b.ifz(r1, CondKind::Eq, l_end);
                     int r2 = b.newReg();
                     b.getField(r2, b.thisReg(),
                                fieldRef(act_cls, session_field));
                     b.bind(l_end);
                     b.retVoid();
                 });

    f.truth().add(act_cls + "." + session_field, SeedClass::TrueRace,
                  "guardedNullRead: racy but null-guarded GUI read "
                  "(benign severity)");
}

// --------------------------------------------------------------------
// Pattern: cross-component harmful null race (nullflow HARMFUL via
// ICC). iccStartActivity's shape with a reference-typed static whose
// only write is the sender's worker: the launched activity's onCreate
// read crashes when it wins the race.
// --------------------------------------------------------------------
void
addIccNullCrash(AppFactory &f, ActivityBuilder &act)
{
    int n = f.nextUnique();
    std::string cache_cls = "Cache$" + std::to_string(n);
    std::string worker_cls = "Warmer$" + std::to_string(n);
    // No '$' in the activity name: it must match the manifest entry
    // the Intent string names.
    std::string target_cls = "IccNullDetail" + std::to_string(n);
    std::string act_cls = act.name();

    air::Module &mod = f.app().module();

    Klass *cache = mod.addClass(cache_cls, names::object);
    cache->addField({"entry", Type::object(names::object), true});

    Klass *worker = mod.addClass(worker_cls, names::thread);
    emptyCtor(worker);
    defineMethod(worker, "run", {}, Type::voidTy(), false,
                 [&](MethodBuilder &b) {
                     int rv = b.newReg();
                     b.newObject(rv, names::object);
                     b.putStatic(fieldRef(cache_cls, "entry"), rv);
                 });

    // The target dereferences the cache entry with no null check; the
    // worker's store is the field's only write, so the ICC-ordered
    // read is null whenever the worker loses the race.
    ActivityBuilder &target = f.addActivity(target_cls);
    target.on("onCreate", [=](MethodBuilder &b) {
        int r = b.newReg();
        b.getStatic(r, fieldRef(cache_cls, "entry"));
    });

    act.on("onCreate", [=](MethodBuilder &b) {
        int rw = b.newReg();
        b.newObject(rw, worker_cls);
        b.invoke(-1, InvokeKind::Special, {worker_cls, "<init>", 0},
                 {rw});
        b.call(rw, worker_cls, "start");
        int rs = b.newReg();
        int ri = b.newReg();
        b.constStr(rs, target_cls);
        b.newObject(ri, names::intent);
        b.invoke(-1, InvokeKind::Special, {names::intent, "<init>", 0},
                 {ri, rs});
        b.call(b.thisReg(), act_cls, "startActivity", {ri});
    });

    f.truth().add(cache_cls + ".entry", SeedClass::TrueRace,
                  "iccNullCrash: sole non-null worker write vs "
                  "launched activity's unguarded onCreate read",
                  /*requires_icc=*/true, /*harmful=*/true);
}

const std::vector<PatternEntry> &
patternCatalog()
{
    static const std::vector<PatternEntry> catalog = {
        {"asyncNewsRace", &addAsyncNewsRace, 3, 0},
        {"receiverDbRace", &addReceiverDbRace, 3, 0},
        {"guardedTimer", &addGuardedTimer, 1, 1},
        {"computedGuard", &addComputedGuard, 1, 1},
        {"messageGuard", &addMessageGuard, 1, 1},
        {"orderedPosts", &addOrderedPosts, 0, 1},
        {"threadRace", &addThreadRace, 2, 0},
        {"actionAliasTrap", &addActionAliasTrap, 0, 1},
        {"serviceStaticRace", &addServiceStaticRace, 1, 0},
        {"lifecycleSafe", &addLifecycleSafe, 0, 1},
        {"guiFlowSafe", &addGuiFlowSafe, 0, 1},
        {"implicitDepTrap", &addImplicitDepTrap, 0, 1},
        {"connectionRace", &addConnectionRace, 1, 0},
        {"handlerThreadRace", &addHandlerThreadRace, 1, 1},
        {"executorRace", &addExecutorRace, 1, 0},
        {"arrayIndexTrap", &addArrayIndexTrap, 0, 1},
        {"workSession", &addWorkSession, 0, 2},
        {"lockGuarded", &addLockGuarded, 0, 1},
        {"localScratch", &addLocalScratch, 0, 1},
        {"interprocGuard", &addInterprocGuard, 1, 1},
        {"useAfterDestroy", &addUseAfterDestroy, 1, 0},
        {"deadlockCycle", &addDeadlockCycle, 0, 1, 1},
        {"deadlockOrdered", &addDeadlockOrdered, 0, 1, 0},
        {"iccStartActivity", &addIccStartActivity, 1, 0, 0},
        {"iccPendingIntent", &addIccPendingIntent, 1, 0, 0},
        // Entries past the frozen 21-entry random pool (see
        // randomPatternPool): reachable only via named-app signatures.
        {"registeredWindow", &addRegisteredWindow, 1, 1, 0},
        {"unregisteredFpTrap", &addUnregisteredFpTrap, 0, 1, 0},
        {"removedCallback", &addRemovedCallback, 0, 1, 0},
        {"nullSourceCrash", &addNullSourceCrash, 1, 0, 0},
        {"guardedNullRead", &addGuardedNullRead, 1, 0, 0},
        {"iccNullCrash", &addIccNullCrash, 1, 0, 0},
    };
    return catalog;
}

const std::vector<PatternEntry> &
randomPatternPool()
{
    // The first 21 entries, frozen at the size the random corpus was
    // generated with. Appending to patternCatalog() must not change
    // rng() % pool.size() for existing apps.
    static const std::vector<PatternEntry> pool = [] {
        const auto &catalog = patternCatalog();
        return std::vector<PatternEntry>(catalog.begin(),
                                         catalog.begin() + 21);
    }();
    return pool;
}

} // namespace sierra::corpus
