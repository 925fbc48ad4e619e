#include "builder.hh"

#include "klass.hh"
#include "logging.hh"
#include "module.hh"

namespace sierra::air {

MethodBuilder::MethodBuilder(Method *method)
    : _method(method), _module(method->owner()->module()),
      _nextReg(method->firstTempReg())
{
    SIERRA_ASSERT(method->instrs().empty(),
                  "builder requires an empty method: ",
                  method->qualifiedName());
}

int
MethodBuilder::newReg()
{
    return _nextReg++;
}

int
MethodBuilder::emit(const Instruction &instr)
{
    SIERRA_ASSERT(!_finished, "emit after finish()");
    int idx = nextIndex();
    _method->instrs().push_back(instr);
    return idx;
}

void
MethodBuilder::constInt(int dst, int64_t value)
{
    Instruction i;
    i.op = Opcode::ConstInt;
    i.dst = dst;
    i.intValue = value;
    emit(i);
}

void
MethodBuilder::constStr(int dst, std::string_view value)
{
    Instruction i;
    i.op = Opcode::ConstStr;
    i.dst = dst;
    i.strValue = _module.intern(value);
    emit(i);
}

void
MethodBuilder::constNull(int dst)
{
    Instruction i;
    i.op = Opcode::ConstNull;
    i.dst = dst;
    emit(i);
}

void
MethodBuilder::move(int dst, int src)
{
    Instruction i;
    i.op = Opcode::Move;
    i.dst = dst;
    i.srcs = _module.regs({src});
    emit(i);
}

void
MethodBuilder::binOp(int dst, BinOpKind op, int lhs, int rhs)
{
    Instruction i;
    i.op = Opcode::BinOp;
    i.dst = dst;
    i.binop = op;
    i.srcs = _module.regs({lhs, rhs});
    emit(i);
}

void
MethodBuilder::unOp(int dst, UnOpKind op, int src)
{
    Instruction i;
    i.op = Opcode::UnOp;
    i.dst = dst;
    i.unop = op;
    i.srcs = _module.regs({src});
    emit(i);
}

int
MethodBuilder::newObject(int dst, std::string_view class_name)
{
    Instruction i;
    i.op = Opcode::New;
    i.dst = dst;
    i.typeName = _module.intern(class_name);
    return emit(i);
}

int
MethodBuilder::newArray(int dst, std::string_view elem_class, int length_reg)
{
    Instruction i;
    i.op = Opcode::NewArray;
    i.dst = dst;
    i.typeName = _module.intern(elem_class);
    i.srcs = _module.regs({length_reg});
    return emit(i);
}

void
MethodBuilder::getField(int dst, int obj, const FieldSpec &field)
{
    Instruction i;
    i.op = Opcode::GetField;
    i.dst = dst;
    i.srcs = _module.regs({obj});
    i.field = _module.fieldRef(field.className, field.fieldName);
    emit(i);
}

void
MethodBuilder::putField(int obj, const FieldSpec &field, int value)
{
    Instruction i;
    i.op = Opcode::PutField;
    i.srcs = _module.regs({obj, value});
    i.field = _module.fieldRef(field.className, field.fieldName);
    emit(i);
}

void
MethodBuilder::getStatic(int dst, const FieldSpec &field)
{
    Instruction i;
    i.op = Opcode::GetStatic;
    i.dst = dst;
    i.field = _module.fieldRef(field.className, field.fieldName);
    emit(i);
}

void
MethodBuilder::putStatic(const FieldSpec &field, int value)
{
    Instruction i;
    i.op = Opcode::PutStatic;
    i.srcs = _module.regs({value});
    i.field = _module.fieldRef(field.className, field.fieldName);
    emit(i);
}

void
MethodBuilder::arrayGet(int dst, int arr, int idx)
{
    Instruction i;
    i.op = Opcode::ArrayGet;
    i.dst = dst;
    i.srcs = _module.regs({arr, idx});
    emit(i);
}

void
MethodBuilder::arrayPut(int arr, int idx, int value)
{
    Instruction i;
    i.op = Opcode::ArrayPut;
    i.srcs = _module.regs({arr, idx, value});
    emit(i);
}

int
MethodBuilder::invoke(int dst, InvokeKind kind, const MethodSpec &method,
                      std::span<const int> args)
{
    Instruction i;
    i.op = Opcode::Invoke;
    i.dst = dst;
    i.invokeKind = kind;
    i.method = _module.methodRef(method.className, method.methodName,
                                 static_cast<int>(args.size()));
    i.srcs = _module.regs(args.data(), args.size());
    return emit(i);
}

namespace {

/** `receiver` followed by `args`, in a stack buffer when it fits. */
class ReceiverArgs
{
  public:
    ReceiverArgs(int receiver, std::initializer_list<int> args)
    {
        if (args.size() + 1 > kInline)
            _heap.resize(args.size() + 1);
        int *out = data();
        out[0] = receiver;
        std::copy(args.begin(), args.end(), out + 1);
        _size = args.size() + 1;
    }
    std::span<const int>
    span()
    {
        return {data(), _size};
    }

  private:
    static constexpr size_t kInline = 8;
    int *data() { return _heap.empty() ? _inline : _heap.data(); }
    int _inline[kInline];
    std::vector<int> _heap;
    size_t _size{0};
};

} // namespace

int
MethodBuilder::call(int receiver, std::string_view class_name,
                    std::string_view method_name,
                    std::initializer_list<int> args)
{
    ReceiverArgs all(receiver, args);
    return invoke(-1, InvokeKind::Virtual, {class_name, method_name},
                  all.span());
}

int
MethodBuilder::callTo(int dst, int receiver, std::string_view class_name,
                      std::string_view method_name,
                      std::initializer_list<int> args)
{
    ReceiverArgs all(receiver, args);
    return invoke(dst, InvokeKind::Virtual, {class_name, method_name},
                  all.span());
}

int
MethodBuilder::callStatic(int dst, std::string_view class_name,
                          std::string_view method_name,
                          std::initializer_list<int> args)
{
    return invoke(dst, InvokeKind::Static, {class_name, method_name},
                  args);
}

Label
MethodBuilder::newLabel()
{
    Label l;
    l.id = static_cast<int>(_labelTargets.size());
    _labelTargets.push_back(-1);
    return l;
}

void
MethodBuilder::bind(Label label)
{
    SIERRA_ASSERT(label.id >= 0 &&
                  label.id < static_cast<int>(_labelTargets.size()),
                  "bad label");
    SIERRA_ASSERT(_labelTargets[label.id] == -1, "label bound twice");
    _labelTargets[label.id] = nextIndex();
}

void
MethodBuilder::iff(int lhs, CondKind cond, int rhs, Label target)
{
    Instruction i;
    i.op = Opcode::If;
    i.cond = cond;
    i.srcs = _module.regs({lhs, rhs});
    int idx = emit(i);
    _patches.emplace_back(idx, target.id);
}

void
MethodBuilder::ifz(int src, CondKind cond, Label target)
{
    Instruction i;
    i.op = Opcode::IfZ;
    i.cond = cond;
    i.srcs = _module.regs({src});
    int idx = emit(i);
    _patches.emplace_back(idx, target.id);
}

void
MethodBuilder::gotoLabel(Label target)
{
    Instruction i;
    i.op = Opcode::Goto;
    int idx = emit(i);
    _patches.emplace_back(idx, target.id);
}

void
MethodBuilder::ret(int src)
{
    Instruction i;
    i.op = Opcode::Return;
    i.srcs = _module.regs({src});
    emit(i);
}

void
MethodBuilder::retVoid()
{
    Instruction i;
    i.op = Opcode::ReturnVoid;
    emit(i);
}

void
MethodBuilder::throwReg(int src)
{
    Instruction i;
    i.op = Opcode::Throw;
    i.srcs = _module.regs({src});
    emit(i);
}

void
MethodBuilder::nop()
{
    Instruction i;
    i.op = Opcode::Nop;
    emit(i);
}

void
MethodBuilder::monitorEnter(int obj)
{
    Instruction i;
    i.op = Opcode::MonitorEnter;
    i.srcs = _module.regs({obj});
    emit(i);
}

void
MethodBuilder::monitorExit(int obj)
{
    Instruction i;
    i.op = Opcode::MonitorExit;
    i.srcs = _module.regs({obj});
    emit(i);
}

void
MethodBuilder::finish()
{
    SIERRA_ASSERT(!_finished, "finish() called twice");
    auto &instrs = _method->instrs();
    if (instrs.empty() || !instrs.back().isTerminator())
        retVoid();
    for (const auto &[instr_idx, label_id] : _patches) {
        int target = _labelTargets[label_id];
        SIERRA_ASSERT(target >= 0, "unbound label in ",
                      _method->qualifiedName());
        instrs[instr_idx].target = target;
    }
    _method->setNumRegisters(_nextReg);
    _finished = true;
}

} // namespace sierra::air
