#include "instruction.hh"

#include <sstream>

#include "logging.hh"

namespace sierra::air {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::ConstInt: return "const-int";
      case Opcode::ConstStr: return "const-str";
      case Opcode::ConstNull: return "const-null";
      case Opcode::Move: return "move";
      case Opcode::BinOp: return "binop";
      case Opcode::UnOp: return "unop";
      case Opcode::New: return "new";
      case Opcode::NewArray: return "new-array";
      case Opcode::GetField: return "getfield";
      case Opcode::PutField: return "putfield";
      case Opcode::GetStatic: return "getstatic";
      case Opcode::PutStatic: return "putstatic";
      case Opcode::ArrayGet: return "aget";
      case Opcode::ArrayPut: return "aput";
      case Opcode::Invoke: return "invoke";
      case Opcode::Return: return "return";
      case Opcode::ReturnVoid: return "return-void";
      case Opcode::If: return "if";
      case Opcode::IfZ: return "ifz";
      case Opcode::Goto: return "goto";
      case Opcode::Throw: return "throw";
      case Opcode::MonitorEnter: return "monitor-enter";
      case Opcode::MonitorExit: return "monitor-exit";
    }
    panic("unreachable opcode");
}

const char *
condName(CondKind c)
{
    switch (c) {
      case CondKind::Eq: return "eq";
      case CondKind::Ne: return "ne";
      case CondKind::Lt: return "lt";
      case CondKind::Le: return "le";
      case CondKind::Gt: return "gt";
      case CondKind::Ge: return "ge";
    }
    panic("unreachable cond");
}

const char *
binopName(BinOpKind b)
{
    switch (b) {
      case BinOpKind::Add: return "add";
      case BinOpKind::Sub: return "sub";
      case BinOpKind::Mul: return "mul";
      case BinOpKind::Div: return "div";
      case BinOpKind::Rem: return "rem";
      case BinOpKind::And: return "and";
      case BinOpKind::Or: return "or";
      case BinOpKind::Xor: return "xor";
    }
    panic("unreachable binop");
}

const char *
unopName(UnOpKind u)
{
    switch (u) {
      case UnOpKind::Not: return "not";
      case UnOpKind::Neg: return "neg";
    }
    panic("unreachable unop");
}

const char *
invokeKindName(InvokeKind k)
{
    switch (k) {
      case InvokeKind::Virtual: return "virtual";
      case InvokeKind::Static: return "static";
      case InvokeKind::Special: return "special";
      case InvokeKind::Interface: return "interface";
    }
    panic("unreachable invoke kind");
}

bool
condFromName(std::string_view name, CondKind &out)
{
    static const struct { const char *n; CondKind k; } table[] = {
        {"eq", CondKind::Eq}, {"ne", CondKind::Ne}, {"lt", CondKind::Lt},
        {"le", CondKind::Le}, {"gt", CondKind::Gt}, {"ge", CondKind::Ge},
    };
    for (const auto &e : table) {
        if (name == e.n) {
            out = e.k;
            return true;
        }
    }
    return false;
}

bool
binopFromName(std::string_view name, BinOpKind &out)
{
    static const struct { const char *n; BinOpKind k; } table[] = {
        {"add", BinOpKind::Add}, {"sub", BinOpKind::Sub},
        {"mul", BinOpKind::Mul}, {"div", BinOpKind::Div},
        {"rem", BinOpKind::Rem}, {"and", BinOpKind::And},
        {"or", BinOpKind::Or}, {"xor", BinOpKind::Xor},
    };
    for (const auto &e : table) {
        if (name == e.n) {
            out = e.k;
            return true;
        }
    }
    return false;
}

bool
unopFromName(std::string_view name, UnOpKind &out)
{
    if (name == "not") {
        out = UnOpKind::Not;
        return true;
    }
    if (name == "neg") {
        out = UnOpKind::Neg;
        return true;
    }
    return false;
}

bool
invokeKindFromName(std::string_view name, InvokeKind &out)
{
    static const struct { const char *n; InvokeKind k; } table[] = {
        {"virtual", InvokeKind::Virtual}, {"static", InvokeKind::Static},
        {"special", InvokeKind::Special},
        {"interface", InvokeKind::Interface},
    };
    for (const auto &e : table) {
        if (name == e.n) {
            out = e.k;
            return true;
        }
    }
    return false;
}

CondKind
negateCond(CondKind c)
{
    switch (c) {
      case CondKind::Eq: return CondKind::Ne;
      case CondKind::Ne: return CondKind::Eq;
      case CondKind::Lt: return CondKind::Ge;
      case CondKind::Le: return CondKind::Gt;
      case CondKind::Gt: return CondKind::Le;
      case CondKind::Ge: return CondKind::Lt;
    }
    panic("unreachable cond");
}

bool
evalCond(CondKind c, int64_t lhs, int64_t rhs)
{
    switch (c) {
      case CondKind::Eq: return lhs == rhs;
      case CondKind::Ne: return lhs != rhs;
      case CondKind::Lt: return lhs < rhs;
      case CondKind::Le: return lhs <= rhs;
      case CondKind::Gt: return lhs > rhs;
      case CondKind::Ge: return lhs >= rhs;
    }
    panic("unreachable cond");
}

int64_t
evalBinOp(BinOpKind b, int64_t lhs, int64_t rhs)
{
    switch (b) {
      case BinOpKind::Add: return lhs + rhs;
      case BinOpKind::Sub: return lhs - rhs;
      case BinOpKind::Mul: return lhs * rhs;
      case BinOpKind::Div: return rhs == 0 ? 0 : lhs / rhs;
      case BinOpKind::Rem: return rhs == 0 ? 0 : lhs % rhs;
      case BinOpKind::And: return lhs & rhs;
      case BinOpKind::Or: return lhs | rhs;
      case BinOpKind::Xor: return lhs ^ rhs;
    }
    panic("unreachable binop");
}

namespace {

std::string
reg(int r)
{
    return "r" + std::to_string(r);
}

std::string
escapeStr(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

std::string
Instruction::toString() const
{
    std::ostringstream os;
    switch (op) {
      case Opcode::Nop:
        os << "nop";
        break;
      case Opcode::ConstInt:
        os << reg(dst) << " = const " << intValue;
        break;
      case Opcode::ConstStr:
        os << reg(dst) << " = const \"" << escapeStr(strValue) << "\"";
        break;
      case Opcode::ConstNull:
        os << reg(dst) << " = null";
        break;
      case Opcode::Move:
        os << reg(dst) << " = " << reg(srcs[0]);
        break;
      case Opcode::BinOp:
        os << reg(dst) << " = " << binopName(binop) << " " << reg(srcs[0])
           << ", " << reg(srcs[1]);
        break;
      case Opcode::UnOp:
        os << reg(dst) << " = " << unopName(unop) << " " << reg(srcs[0]);
        break;
      case Opcode::New:
        os << reg(dst) << " = new " << typeName;
        break;
      case Opcode::NewArray:
        os << reg(dst) << " = new-array " << typeName << "[" << reg(srcs[0])
           << "]";
        break;
      case Opcode::GetField:
        os << reg(dst) << " = getfield " << reg(srcs[0]) << "."
           << field.toString();
        break;
      case Opcode::PutField:
        os << "putfield " << reg(srcs[0]) << "." << field.toString()
           << " = " << reg(srcs[1]);
        break;
      case Opcode::GetStatic:
        os << reg(dst) << " = getstatic " << field.toString();
        break;
      case Opcode::PutStatic:
        os << "putstatic " << field.toString() << " = " << reg(srcs[0]);
        break;
      case Opcode::ArrayGet:
        os << reg(dst) << " = aget " << reg(srcs[0]) << "[" << reg(srcs[1])
           << "]";
        break;
      case Opcode::ArrayPut:
        os << "aput " << reg(srcs[0]) << "[" << reg(srcs[1]) << "] = "
           << reg(srcs[2]);
        break;
      case Opcode::Invoke: {
        if (dst >= 0)
            os << reg(dst) << " = ";
        os << "invoke-" << invokeKindName(invokeKind) << " "
           << method.toString() << "(";
        for (size_t i = 0; i < srcs.size(); ++i) {
            if (i)
                os << ", ";
            os << reg(srcs[i]);
        }
        os << ")";
        break;
      }
      case Opcode::Return:
        os << "return " << reg(srcs[0]);
        break;
      case Opcode::ReturnVoid:
        os << "return-void";
        break;
      case Opcode::If:
        os << "if " << reg(srcs[0]) << " " << condName(cond) << " "
           << reg(srcs[1]) << " goto @" << target;
        break;
      case Opcode::IfZ:
        os << "ifz " << reg(srcs[0]) << " " << condName(cond) << " goto @"
           << target;
        break;
      case Opcode::Goto:
        os << "goto @" << target;
        break;
      case Opcode::Throw:
        os << "throw " << reg(srcs[0]);
        break;
      case Opcode::MonitorEnter:
        os << "monitor-enter " << reg(srcs[0]);
        break;
      case Opcode::MonitorExit:
        os << "monitor-exit " << reg(srcs[0]);
        break;
    }
    return os.str();
}

} // namespace sierra::air
