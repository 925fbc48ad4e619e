#include "interpreter.hh"

#include "air/logging.hh"
#include "analysis/array_keys.hh"
#include "framework/known_api.hh"

namespace sierra::dynamic {

using air::Instruction;
using air::InvokeKind;
using air::Method;
using air::Opcode;
using framework::ApiKind;
namespace names = framework::names;

std::string
Value::toString() const
{
    switch (kind) {
      case Kind::Null: return "null";
      case Kind::Int: return std::to_string(i);
      case Kind::Str: return "\"" + s + "\"";
      case Kind::Ref: return "@" + std::to_string(ref);
    }
    return "?";
}

/** Register provenance: where a value was loaded from (guard hunting). */
struct RegProv {
    bool valid{false};
    int obj{-1};
    std::string key;
    bool primitive{false};
};

/** One interpreter frame. */
struct Interpreter::Frame {
    std::vector<Value> regs;
    std::vector<RegProv> prov;
};

Interpreter::Interpreter(const framework::App &app, RunOptions options)
    : _app(app), _opts(options), _rng(options.seed),
      _cha(app.module())
{
}

int
Interpreter::newObject(const std::string &klass)
{
    RtObject obj;
    obj.klass = klass;
    _heap.push_back(std::move(obj));
    return static_cast<int>(_heap.size()) - 1;
}

std::string
Interpreter::fieldKeyOf(int obj, const air::FieldRef &ref) const
{
    std::string decl =
        _cha.declaringClassOfField(_heap[obj].klass, ref.fieldName.view());
    if (decl.empty())
        decl = ref.className;
    return decl + "." + ref.fieldName;
}

void
Interpreter::record(int obj, const std::string &key, bool is_write,
                    const Method *m, int idx)
{
    TraceAccess a;
    a.event = _currentEvent;
    a.obj = obj;
    a.key = key;
    a.isWrite = is_write;
    a.site = m->qualifiedName() + "@" + std::to_string(idx);
    _trace.accesses.push_back(std::move(a));
}

int
Interpreter::looperOfHandler(int handler_ref)
{
    auto it = _heap[handler_ref].fields.find("android.os.Handler.$looper");
    if (it == _heap[handler_ref].fields.end() || !it->second.isRef())
        return -1; // unbound handlers deliver to the main looper
    int looper = it->second.ref;
    return looper == _mainLooperRef ? -1 : looper;
}

void
Interpreter::post(PendingEvent ev)
{
    if (ev.onMainLooper) {
        ev.queueSeq = _queueSeqCounter++;
        _looperQueues[ev.looperRef].push_back(std::move(ev));
    } else {
        _background.push_back(std::move(ev));
    }
}

Value
Interpreter::intrinsic(ApiKind kind, const Instruction &instr,
                       const Method *caller,
                       const std::vector<Value> &args)
{
    (void)caller;
    auto arg = [&](size_t i) {
        return i < args.size() ? args[i] : Value::null();
    };
    auto runnable_entry = [&](const Value &r) -> const Method * {
        if (!r.isRef())
            return nullptr;
        const Method *m = _cha.resolveVirtual(_heap[r.ref].klass, "run");
        return m && m->hasBody() ? m : nullptr;
    };

    switch (kind) {
      case ApiKind::HandlerPost:
      case ApiKind::ViewPost:
      case ApiKind::RunOnUiThread: {
        Value r = arg(1);
        if (const Method *m = runnable_entry(r)) {
            PendingEvent ev;
            ev.label = _heap[r.ref].klass + ".run";
            ev.kind = "post";
            ev.method = m;
            ev.args = {r};
            ev.onMainLooper = true;
            if (kind == ApiKind::HandlerPost && arg(0).isRef())
                ev.looperRef = looperOfHandler(arg(0).ref);
            ev.creator = _currentEvent;
            post(std::move(ev));
        }
        return Value::null();
      }
      case ApiKind::HandlerSendMessage: {
        Value h = arg(0);
        if (!h.isRef())
            return Value::null();
        const Method *m =
            _cha.resolveVirtual(_heap[h.ref].klass, "handleMessage");
        if (!m || !m->hasBody())
            return Value::null();
        Value msg;
        if (instr.method.methodName == "sendEmptyMessage") {
            int ref = newObject(names::message);
            _heap[ref].fields["android.os.Message.what"] = arg(1);
            msg = Value::ofRef(ref);
        } else {
            msg = arg(1);
        }
        PendingEvent ev;
        ev.label = _heap[h.ref].klass + ".handleMessage";
        ev.kind = "message";
        ev.method = m;
        ev.args = {h, msg};
        ev.onMainLooper = true;
        ev.looperRef = looperOfHandler(h.ref);
        ev.creator = _currentEvent;
        post(std::move(ev));
        return Value::null();
      }
      case ApiKind::AsyncTaskExecute: {
        Value t = arg(0);
        if (!t.isRef())
            return Value::null();
        const std::string &cls = _heap[t.ref].klass;
        // onPreExecute runs synchronously on the calling thread.
        if (const Method *pre =
                _cha.resolveVirtual(cls, "onPreExecute")) {
            if (pre->hasBody())
                invoke(pre, {t}, 0);
        }
        if (const Method *bg =
                _cha.resolveVirtual(cls, "doInBackground")) {
            if (bg->hasBody()) {
                PendingEvent ev;
                ev.label = cls + ".doInBackground";
                ev.kind = "async-bg";
                ev.method = bg;
                ev.args = {t};
                ev.onMainLooper = false;
                ev.creator = _currentEvent;
                ev.asyncTaskRef = t.ref;
                post(std::move(ev));
            }
        }
        return Value::null();
      }
      case ApiKind::ThreadStart: {
        Value t = arg(0);
        if (!t.isRef())
            return Value::null();
        const Method *m = _cha.resolveVirtual(_heap[t.ref].klass, "run");
        Value self = t;
        if (!m || !m->hasBody()) {
            auto it = _heap[t.ref].fields.find(
                "java.lang.Thread.$target");
            if (it == _heap[t.ref].fields.end() || !it->second.isRef())
                return Value::null();
            self = it->second;
            m = _cha.resolveVirtual(_heap[self.ref].klass, "run");
            if (!m || !m->hasBody())
                return Value::null();
        }
        PendingEvent ev;
        ev.label = _heap[self.ref].klass + ".run";
        ev.kind = "thread";
        ev.method = m;
        ev.args = {self};
        ev.onMainLooper = false;
        ev.creator = _currentEvent;
        post(std::move(ev));
        return Value::null();
      }
      case ApiKind::ExecutorExecute: {
        Value r = arg(1);
        if (const Method *m = runnable_entry(r)) {
            PendingEvent ev;
            ev.label = _heap[r.ref].klass + ".run";
            ev.kind = "executor";
            ev.method = m;
            ev.args = {r};
            ev.onMainLooper = false;
            ev.creator = _currentEvent;
            post(std::move(ev));
        }
        return Value::null();
      }
      case ApiKind::ThreadInit: {
        Value t = arg(0);
        if (t.isRef() && args.size() >= 2 && args[1].isRef()) {
            _heap[t.ref].fields["java.lang.Thread.$target"] = args[1];
        }
        return Value::null();
      }
      case ApiKind::FindViewById: {
        Value id = arg(1);
        int view_id = static_cast<int>(id.i);
        auto it = _viewObjects.find(view_id);
        if (it != _viewObjects.end())
            return Value::ofRef(it->second);
        std::string klass = names::view;
        for (const auto &[activity, layout] : _app.layouts()) {
            if (const framework::Widget *w = layout.byId(view_id)) {
                klass = w->widgetClass;
                break;
            }
        }
        int ref = newObject(klass);
        _heap[ref].viewId = view_id;
        _viewObjects[view_id] = ref;
        return Value::ofRef(ref);
      }
      case ApiKind::SetListener: {
        Value view = arg(0);
        Value listener = arg(1);
        if (!view.isRef() || !listener.isRef())
            return Value::null();
        std::string cb = framework::KnownApis::listenerCallback(
            instr.method.methodName);
        _listeners.push_back(
            {view.ref, cb, listener.ref, _currentEvent});
        return Value::null();
      }
      case ApiKind::RegisterReceiver: {
        Value r = arg(1);
        if (r.isRef())
            _receivers.emplace_back(r.ref, _currentEvent);
        return Value::null();
      }
      case ApiKind::UnregisterReceiver: {
        Value r = arg(1);
        if (r.isRef()) {
            for (auto it = _receivers.begin(); it != _receivers.end();
                 ++it) {
                if (it->first == r.ref) {
                    _receivers.erase(it);
                    break;
                }
            }
        }
        return Value::null();
      }
      case ApiKind::SendBroadcast: {
        for (auto [recv, registrar] : _receivers) {
            const Method *m =
                _cha.resolveVirtual(_heap[recv].klass, "onReceive");
            if (!m || !m->hasBody())
                continue;
            PendingEvent ev;
            ev.label = _heap[recv].klass + ".onReceive";
            ev.kind = "receive";
            ev.method = m;
            int intent = newObject(names::intent);
            ev.args = {Value::ofRef(recv), Value::null(),
                       Value::ofRef(intent)};
            ev.onMainLooper = true;
            ev.creator = _currentEvent;
            post(std::move(ev));
        }
        return Value::null();
      }
      case ApiKind::StartService: {
        for (const auto &svc : _app.manifest().services) {
            for (const char *cb : {"onCreate", "onStartCommand"}) {
                const Method *m = _cha.resolveVirtual(svc.className, cb);
                if (!m || !m->hasBody())
                    continue;
                PendingEvent ev;
                ev.label = svc.className + "." + cb;
                ev.kind = "service";
                ev.method = m;
                int self = newObject(svc.className);
                ev.args = {Value::ofRef(self)};
                if (m->numParams() >= 1)
                    ev.args.push_back(
                        Value::ofRef(newObject(names::intent)));
                ev.onMainLooper = true;
                ev.creator = _currentEvent;
                post(std::move(ev));
            }
        }
        return Value::null();
      }
      case ApiKind::BindService: {
        Value conn = arg(2);
        if (!conn.isRef())
            return Value::null();
        const Method *m = _cha.resolveVirtual(
            _heap[conn.ref].klass, "onServiceConnected");
        if (m && m->hasBody()) {
            PendingEvent ev;
            ev.label = _heap[conn.ref].klass + ".onServiceConnected";
            ev.kind = "service-conn";
            ev.method = m;
            ev.args = {conn, Value::null()};
            ev.onMainLooper = true;
            ev.creator = _currentEvent;
            post(std::move(ev));
        }
        return Value::null();
      }
      case ApiKind::MessageObtain: {
        int ref = newObject(names::message);
        _heap[ref].fields["android.os.Message.what"] = Value::ofInt(0);
        return Value::ofRef(ref);
      }
      case ApiKind::LooperMain:
      case ApiKind::LooperMy:
        if (_mainLooperRef < 0)
            _mainLooperRef = newObject(names::looper);
        return Value::ofRef(_mainLooperRef);
      case ApiKind::HandlerThreadGetLooper: {
        Value t = arg(0);
        if (!t.isRef())
            return Value::null();
        auto it = _heap[t.ref].fields.find(
            "android.os.HandlerThread.$looper");
        if (it != _heap[t.ref].fields.end())
            return it->second;
        Value looper = Value::ofRef(newObject(names::looper));
        _heap[t.ref].fields["android.os.HandlerThread.$looper"] = looper;
        return looper;
      }
      case ApiKind::HandlerInit: {
        Value h = arg(0);
        if (h.isRef() && args.size() >= 2 && args[1].isRef()) {
            _heap[h.ref].fields["android.os.Handler.$looper"] = args[1];
        }
        return Value::null();
      }
      case ApiKind::ObjectInit:
      case ApiKind::NullCheck:
      case ApiKind::HandlerRemove:
      case ApiKind::SetContentView:
      case ApiKind::StartActivity:
      case ApiKind::IntentSetClass:
      case ApiKind::PendingIntentGetActivity:
      case ApiKind::PendingIntentGetService:
      case ApiKind::PendingIntentGetBroadcast:
      case ApiKind::PendingIntentSend:
      case ApiKind::None:
        return Value::null();
    }
    return Value::null();
}

Value
Interpreter::invoke(const Method *method, std::vector<Value> args,
                    int depth)
{
    if (depth > _opts.maxCallDepth || !method->hasBody())
        return Value::null();
    // The synthetic Nondet provider.
    if (method->owner()->name() == "sierra.Nondet")
        return Value::ofInt(static_cast<int64_t>(_rng() % 3));

    Frame frame;
    frame.regs.assign(method->numRegisters(), Value::null());
    frame.prov.assign(method->numRegisters(), RegProv{});
    for (size_t i = 0; i < args.size() &&
                       i < static_cast<size_t>(method->firstTempReg());
         ++i) {
        frame.regs[i] = args[i];
    }

    int pc = 0;
    int steps = 0;
    while (pc >= 0 && pc < method->numInstrs()) {
        if (++steps > _opts.maxStepsPerEvent)
            return Value::null();
        const Instruction &instr = method->instr(pc);
        auto reg = [&](int r) -> Value & { return frame.regs[r]; };
        auto clear_prov = [&](int r) { frame.prov[r] = RegProv{}; };
        auto note_guard = [&](int r) {
            const RegProv &p = frame.prov[r];
            if (!p.valid)
                return;
            auto key = std::make_pair(p.obj, p.key);
            if (p.primitive)
                _trace.primitiveGuards.insert(key);
            else
                _trace.referenceGuards.insert(key);
        };

        switch (instr.op) {
          case Opcode::Nop:
            break;
          case Opcode::ConstInt:
            reg(instr.dst) = Value::ofInt(instr.intValue);
            clear_prov(instr.dst);
            break;
          case Opcode::ConstStr:
            reg(instr.dst) = Value::ofStr(instr.strValue);
            clear_prov(instr.dst);
            break;
          case Opcode::ConstNull:
            reg(instr.dst) = Value::null();
            clear_prov(instr.dst);
            break;
          case Opcode::Move:
            reg(instr.dst) = reg(instr.srcs[0]);
            frame.prov[instr.dst] = frame.prov[instr.srcs[0]];
            break;
          case Opcode::BinOp:
            reg(instr.dst) = Value::ofInt(
                air::evalBinOp(instr.binop, reg(instr.srcs[0]).asCondInt(),
                               reg(instr.srcs[1]).asCondInt()));
            clear_prov(instr.dst);
            break;
          case Opcode::UnOp: {
            int64_t v = reg(instr.srcs[0]).asCondInt();
            reg(instr.dst) = Value::ofInt(
                instr.unop == air::UnOpKind::Not ? (v == 0 ? 1 : 0) : -v);
            clear_prov(instr.dst);
            break;
          }
          case Opcode::New:
            reg(instr.dst) = Value::ofRef(newObject(instr.typeName));
            clear_prov(instr.dst);
            break;
          case Opcode::NewArray: {
            int ref = newObject(
                (instr.typeName.empty() ? std::string("int")
                                        : instr.typeName.str()) +
                "[]");
            int64_t len = reg(instr.srcs[0]).asCondInt();
            _heap[ref].elems.assign(
                static_cast<size_t>(std::max<int64_t>(0, len)),
                Value::null());
            reg(instr.dst) = Value::ofRef(ref);
            clear_prov(instr.dst);
            break;
          }
          case Opcode::GetField: {
            Value base = reg(instr.srcs[0]);
            if (!base.isRef())
                return Value::null(); // NullPointerException
            std::string key = fieldKeyOf(base.ref, instr.field);
            record(base.ref, key, false, method, pc);
            auto it = _heap[base.ref].fields.find(key);
            reg(instr.dst) = it == _heap[base.ref].fields.end()
                                 ? Value::null()
                                 : it->second;
            const air::Field *f = _cha.resolveField(
                instr.field.className, instr.field.fieldName);
            frame.prov[instr.dst] = {true, base.ref, key,
                                     f && f->type.isPrimitive()};
            break;
          }
          case Opcode::PutField: {
            Value base = reg(instr.srcs[0]);
            if (!base.isRef())
                return Value::null();
            std::string key = fieldKeyOf(base.ref, instr.field);
            record(base.ref, key, true, method, pc);
            _heap[base.ref].fields[key] = reg(instr.srcs[1]);
            break;
          }
          case Opcode::GetStatic: {
            std::string decl = _cha.declaringClassOfField(
                instr.field.className, instr.field.fieldName);
            if (decl.empty())
                decl = instr.field.className;
            std::string key = decl + "." + instr.field.fieldName;
            record(-1, key, false, method, pc);
            auto it = _statics.find(key);
            reg(instr.dst) =
                it == _statics.end() ? Value::null() : it->second;
            frame.prov[instr.dst] = RegProv{};
            break;
          }
          case Opcode::PutStatic: {
            std::string decl = _cha.declaringClassOfField(
                instr.field.className, instr.field.fieldName);
            if (decl.empty())
                decl = instr.field.className;
            std::string key = decl + "." + instr.field.fieldName;
            record(-1, key, true, method, pc);
            _statics[key] = reg(instr.srcs[0]);
            break;
          }
          case Opcode::ArrayGet: {
            Value base = reg(instr.srcs[0]);
            if (!base.isRef())
                return Value::null();
            int64_t gidx = reg(instr.srcs[1]).asCondInt();
            // The dynamic detector sees concrete indices, so it is
            // naturally index-sensitive (like real dynamic tools).
            record(base.ref,
                   analysis::arrayElementKey(_heap[base.ref].klass,
                                             gidx),
                   false, method, pc);
            auto &elems = _heap[base.ref].elems;
            int64_t idx = gidx;
            reg(instr.dst) = (idx >= 0 && idx <
                              static_cast<int64_t>(elems.size()))
                                 ? elems[idx]
                                 : Value::null();
            clear_prov(instr.dst);
            break;
          }
          case Opcode::ArrayPut: {
            Value base = reg(instr.srcs[0]);
            if (!base.isRef())
                return Value::null();
            int64_t pidx = reg(instr.srcs[1]).asCondInt();
            record(base.ref,
                   analysis::arrayElementKey(_heap[base.ref].klass,
                                             pidx),
                   true, method, pc);
            auto &elems = _heap[base.ref].elems;
            int64_t idx = pidx;
            if (idx >= 0) {
                if (idx >= static_cast<int64_t>(elems.size()))
                    elems.resize(idx + 1, Value::null());
                elems[idx] = reg(instr.srcs[2]);
            }
            break;
          }
          case Opcode::Invoke: {
            std::vector<Value> call_args;
            call_args.reserve(instr.srcs.size());
            for (int r : instr.srcs)
                call_args.push_back(reg(r));

            const Method *target = nullptr;
            if (instr.invokeKind == InvokeKind::Static) {
                target = _cha.resolveStatic(instr.method.className,
                                            instr.method.methodName);
            } else if (instr.invokeKind == InvokeKind::Special) {
                target = _cha.resolveVirtual(instr.method.className,
                                             instr.method.methodName);
            } else {
                if (call_args.empty() || !call_args[0].isRef())
                    return Value::null();
                target = _cha.resolveVirtual(
                    _heap[call_args[0].ref].klass,
                    instr.method.methodName.view());
            }

            Value result;
            if (target && target->hasBody() &&
                target->owner()->name() != "sierra.Nondet") {
                result = invoke(target, std::move(call_args), depth + 1);
            } else if (target &&
                       target->owner()->name() == "sierra.Nondet") {
                result =
                    Value::ofInt(static_cast<int64_t>(_rng() % 3));
            } else {
                framework::KnownApis apis(_app.module());
                ApiKind kind = apis.classify(instr.method);
                result = intrinsic(kind, instr, method, call_args);
            }
            if (instr.dst >= 0) {
                reg(instr.dst) = result;
                clear_prov(instr.dst);
            }
            break;
          }
          case Opcode::Return:
            return reg(instr.srcs[0]);
          case Opcode::ReturnVoid:
          case Opcode::Throw:
            return Value::null();
          case Opcode::If: {
            note_guard(instr.srcs[0]);
            note_guard(instr.srcs[1]);
            bool taken = air::evalCond(
                instr.cond, reg(instr.srcs[0]).asCondInt(),
                reg(instr.srcs[1]).asCondInt());
            if (taken) {
                pc = instr.target;
                continue;
            }
            break;
          }
          case Opcode::IfZ: {
            note_guard(instr.srcs[0]);
            bool taken = air::evalCond(
                instr.cond, reg(instr.srcs[0]).asCondInt(), 0);
            if (taken) {
                pc = instr.target;
                continue;
            }
            break;
          }
          case Opcode::Goto:
            pc = instr.target;
            continue;
          case Opcode::MonitorEnter:
          case Opcode::MonitorExit:
            // Within one trace, events run to completion on their
            // thread, so monitors never block; acquire/release is a
            // no-op with (vacuous) HB semantics here.
            break;
        }
        ++pc;
    }
    return Value::null();
}

void
Interpreter::execute(PendingEvent ev)
{
    TraceEvent te;
    te.id = static_cast<int>(_trace.events.size());
    te.label = ev.label;
    te.kind = ev.kind;
    te.onMainLooper = ev.onMainLooper;
    te.creator = ev.creator;
    if (ev.creator >= 0)
        te.hbPreds.push_back(ev.creator);
    // FIFO on the main looper: two events posted by the same creator
    // execute in posting order (a forced ordering even for a predictive
    // detector).
    if (ev.queueSeq >= 0 && ev.creator >= 0) {
        auto key = std::make_pair(ev.creator, ev.looperRef);
        auto it = _lastPostedBy.find(key);
        if (it != _lastPostedBy.end())
            te.hbPreds.push_back(it->second);
        _lastPostedBy[key] = te.id;
    }
    _trace.events.push_back(te);
    _currentEvent = te.id;

    Value result;
    if (ev.method)
        result = invoke(ev.method, ev.args, 0);

    // AsyncTask continuation: doInBackground's completion posts
    // onPostExecute back to the main looper.
    if (ev.asyncTaskRef >= 0 && ev.kind == "async-bg") {
        const std::string &cls = _heap[ev.asyncTaskRef].klass;
        const Method *postm = _cha.resolveVirtual(cls, "onPostExecute");
        if (postm && postm->hasBody()) {
            PendingEvent pe;
            pe.label = cls + ".onPostExecute";
            pe.kind = "async-post";
            pe.method = postm;
            pe.args = {Value::ofRef(ev.asyncTaskRef), result};
            pe.onMainLooper = true;
            pe.creator = _currentEvent;
            post(std::move(pe));
        }
    }
    _currentEvent = -1;
}

void
Interpreter::fireLifecycle(int act_ref, const std::string &activity,
                           const std::string &cb, int creator)
{
    const Method *m = _cha.resolveVirtual(activity, cb);
    PendingEvent ev;
    ev.label = activity + "." + cb;
    ev.kind = "lifecycle";
    ev.method = (m && m->hasBody()) ? m : nullptr;
    ev.args = {Value::ofRef(act_ref)};
    ev.onMainLooper = true;
    ev.creator = creator;
    execute(std::move(ev));
}

void
Interpreter::driveActivity(const std::string &activity)
{
    if (!_app.module().getClass(activity))
        return;
    int act_ref = newObject(activity);
    if (const Method *init = _cha.resolveVirtual(activity, "<init>")) {
        if (init->hasBody())
            invoke(init, {Value::ofRef(act_ref)}, 0);
    }

    // Lifecycle chain edges: consecutive lifecycle events are ordered
    // (delivered in state-machine order by the framework).
    int last_lifecycle = -1;
    auto lifecycle = [&](const std::string &cb) {
        fireLifecycle(act_ref, activity, cb, last_lifecycle);
        last_lifecycle = static_cast<int>(_trace.events.size()) - 1;
    };

    lifecycle("onCreate");
    lifecycle("onStart");
    lifecycle("onResume");

    // Manifest receivers are registered by the system before the app
    // becomes interactive (creator: none).
    for (const auto &spec : _app.manifest().receivers) {
        if (!spec.declaredInManifest ||
            !_app.module().getClass(spec.className)) {
            continue;
        }
        int r = newObject(spec.className);
        if (const Method *init =
                _cha.resolveVirtual(spec.className, "<init>")) {
            if (init->hasBody()) {
                // Receivers that need the activity get it.
                std::vector<Value> args{Value::ofRef(r)};
                if (init->numParams() >= 1)
                    args.push_back(Value::ofRef(act_ref));
                invoke(init, std::move(args), 0);
            }
        }
        _receivers.emplace_back(r, -1);
    }

    bool resumed = true;
    int iterations = 0;
    while (_eventBudget > 0 && iterations++ < _opts.maxEvents) {
        --_eventBudget;
        int choice = static_cast<int>(_rng() % 8);
        switch (choice) {
          case 0:
          case 1: { // drain one event from a random non-empty looper
            std::vector<int> ready;
            for (auto &[looper, queue] : _looperQueues) {
                if (!queue.empty())
                    ready.push_back(looper);
            }
            if (ready.empty())
                break;
            auto &queue = _looperQueues[ready[_rng() % ready.size()]];
            PendingEvent ev = std::move(queue.front());
            queue.pop_front();
            execute(std::move(ev));
            break;
          }
          case 2: { // run a background body
            if (_background.empty())
                break;
            size_t idx = _rng() % _background.size();
            PendingEvent ev = std::move(_background[idx]);
            _background.erase(_background.begin() + idx);
            execute(std::move(ev));
            break;
          }
          case 3: { // GUI event (dynamic listeners + XML widgets)
            if (!resumed)
                break;
            struct GuiChoice {
                const Method *m;
                std::vector<Value> args;
                std::string label;
                int creator;
            };
            std::vector<GuiChoice> choices;
            for (const auto &reg : _listeners) {
                const Method *m = _cha.resolveVirtual(
                    _heap[reg.listener].klass, reg.callback);
                if (!m || !m->hasBody())
                    continue;
                choices.push_back({m,
                                   {Value::ofRef(reg.listener),
                                    Value::ofRef(reg.view)},
                                   _heap[reg.listener].klass + "." +
                                       reg.callback,
                                   reg.registrar});
            }
            const framework::Layout *layout =
                _app.layoutFor(activity);
            if (layout) {
                for (const auto &w : layout->widgets()) {
                    if (w.xmlOnClick.empty())
                        continue;
                    const Method *m =
                        _cha.resolveVirtual(activity, w.xmlOnClick);
                    if (!m || !m->hasBody())
                        continue;
                    auto vit = _viewObjects.find(w.id);
                    Value view =
                        vit != _viewObjects.end()
                            ? Value::ofRef(vit->second)
                            : Value::null();
                    choices.push_back({m,
                                       {Value::ofRef(act_ref), view},
                                       activity + "." + w.xmlOnClick,
                                       -1});
                }
            }
            if (choices.empty())
                break;
            GuiChoice &c = choices[_rng() % choices.size()];
            PendingEvent ev;
            ev.label = c.label;
            ev.kind = "gui";
            ev.method = c.m;
            ev.args = c.args;
            ev.onMainLooper = true;
            ev.creator = c.creator;
            execute(std::move(ev));
            break;
          }
          case 4: // pause/resume cycle
            lifecycle("onPause");
            lifecycle("onResume");
            break;
          case 5: { // broadcast delivery
            if (_receivers.empty())
                break;
            auto [recv, registrar] =
                _receivers[_rng() % _receivers.size()];
            const Method *m = _cha.resolveVirtual(
                _heap[recv].klass, "onReceive");
            if (!m || !m->hasBody())
                break;
            PendingEvent ev;
            ev.label = _heap[recv].klass + ".onReceive";
            ev.kind = "receive";
            ev.method = m;
            ev.args = {Value::ofRef(recv), Value::ofRef(act_ref),
                       Value::ofRef(newObject(names::intent))};
            ev.onMainLooper = true;
            ev.creator = registrar;
            execute(std::move(ev));
            break;
          }
          case 6: { // service events
            if (_app.manifest().services.empty())
                break;
            const auto &svc = _app.manifest()
                                  .services[_rng() %
                                            _app.manifest()
                                                .services.size()];
            const char *cb = _rng() % 2 ? "onCreate" : "onStartCommand";
            const Method *m = _cha.resolveVirtual(svc.className, cb);
            if (!m || !m->hasBody())
                break;
            PendingEvent ev;
            ev.label = svc.className + "." + cb;
            ev.kind = "service";
            ev.method = m;
            ev.args = {Value::ofRef(newObject(svc.className))};
            if (m->numParams() >= 1)
                ev.args.push_back(Value::ofRef(newObject(names::intent)));
            ev.onMainLooper = true;
            ev.creator = -1;
            execute(std::move(ev));
            break;
          }
          case 7: // stop/restart cycle
            lifecycle("onPause");
            lifecycle("onStop");
            lifecycle("onRestart");
            lifecycle("onStart");
            lifecycle("onResume");
            break;
        }
    }

    lifecycle("onPause");
    lifecycle("onStop");
    lifecycle("onDestroy");

    // Drain whatever is still pending (the looper keeps running).
    // Note: executing an event may insert a new looper key into
    // _looperQueues mid-iteration; std::map insertion keeps iterators
    // valid, and the outer while() re-sweeps, so nothing is lost.
    int drain = 0;
    bool any = true;
    while (any && drain < _opts.maxEvents) {
        any = false;
        for (auto &[looper, queue] : _looperQueues) {
            if (queue.empty())
                continue;
            PendingEvent ev = std::move(queue.front());
            queue.pop_front();
            execute(std::move(ev));
            ++drain;
            any = true;
        }
    }
    for (auto &ev : _background) {
        if (drain++ >= 2 * _opts.maxEvents)
            break;
        execute(std::move(ev));
    }
    _background.clear();
    _listeners.clear();
    _receivers.clear();
}

Trace
Interpreter::run()
{
    _eventBudget = _opts.maxEvents;
    for (const auto &activity : _app.manifest().activities)
        driveActivity(activity);
    return std::move(_trace);
}

Value
Interpreter::evalStatic(const std::string &class_name,
                        const std::string &method_name,
                        std::vector<Value> args)
{
    const Method *m = _cha.resolveStatic(class_name, method_name);
    if (!m || !m->hasBody() || !m->isStatic())
        return Value::null();
    if (_currentEvent < 0) {
        TraceEvent te;
        te.id = static_cast<int>(_trace.events.size());
        te.label = class_name + "." + method_name;
        te.kind = "eval";
        _trace.events.push_back(te);
        _currentEvent = te.id;
    }
    return invoke(m, std::move(args), 0);
}

Value
Interpreter::staticField(const std::string &key) const
{
    auto it = _statics.find(key);
    return it == _statics.end() ? Value::null() : it->second;
}

} // namespace sierra::dynamic
