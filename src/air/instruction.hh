/**
 * @file
 * AIR instruction set.
 *
 * AIR methods are flat vectors of register-machine instructions with
 * index-based branch targets, mirroring the shape of Dalvik bytecode
 * closely enough for the SIERRA analyses: allocation sites, virtual
 * dispatch, field accesses, and conditional control flow are all explicit.
 */

#ifndef SIERRA_AIR_INSTRUCTION_HH
#define SIERRA_AIR_INSTRUCTION_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "name.hh"

namespace sierra::air {

/** Opcodes of the AIR register machine. */
enum class Opcode : uint8_t {
    Nop,
    ConstInt,  //!< dst <- intValue
    ConstStr,  //!< dst <- strValue
    ConstNull, //!< dst <- null
    Move,      //!< dst <- srcs[0]
    BinOp,     //!< dst <- srcs[0] binop srcs[1]
    UnOp,      //!< dst <- unop srcs[0]
    New,       //!< dst <- new typeName (allocation site)
    NewArray,  //!< dst <- new typeName[srcs[0]]
    GetField,  //!< dst <- srcs[0].field
    PutField,  //!< srcs[0].field <- srcs[1]
    GetStatic, //!< dst <- field (static)
    PutStatic, //!< field <- srcs[0] (static)
    ArrayGet,  //!< dst <- srcs[0][srcs[1]]
    ArrayPut,  //!< srcs[0][srcs[1]] <- srcs[2]
    Invoke,    //!< dst <- call method(srcs...); receiver is srcs[0] unless
               //!< the invoke kind is Static
    Return,    //!< return srcs[0]
    ReturnVoid,
    If,        //!< if (srcs[0] cond srcs[1]) goto target
    IfZ,       //!< if (srcs[0] cond 0/null) goto target
    Goto,      //!< goto target
    Throw,     //!< throw srcs[0]
    MonitorEnter, //!< acquire the monitor of srcs[0]
    MonitorExit,  //!< release the monitor of srcs[0]
};

/** Dispatch flavor of an Invoke instruction. */
enum class InvokeKind : uint8_t {
    Virtual,   //!< dynamic dispatch on the receiver's class
    Static,    //!< no receiver
    Special,   //!< constructor / explicit super call; no dynamic dispatch
    Interface, //!< like Virtual, through an interface type
};

/** Branch conditions for If/IfZ. */
enum class CondKind : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/** Binary arithmetic/logical operators. */
enum class BinOpKind : uint8_t { Add, Sub, Mul, Div, Rem, And, Or, Xor };

/** Unary operators. */
enum class UnOpKind : uint8_t { Not, Neg };

/** A named instance or static field on a named class. */
struct FieldRef {
    Name className;
    Name fieldName;

    bool operator==(const FieldRef &o) const
    {
        return className == o.className && fieldName == o.fieldName;
    }
    std::string toString() const { return dotted(className, fieldName); }
};

/**
 * A symbolic method reference.
 *
 * AIR has no overloading; methods are identified by (class, name). The
 * argument count is kept for verification only.
 */
struct MethodRef {
    Name className;
    Name methodName;
    int numArgs{0}; //!< including the receiver for non-static invokes

    bool operator==(const MethodRef &o) const
    {
        return className == o.className && methodName == o.methodName;
    }
    std::string toString() const { return dotted(className, methodName); }
};

/** A field to reference, by name; MethodBuilder interns it. */
struct FieldSpec {
    std::string_view className;
    std::string_view fieldName;
};

/** A method to reference, by name; MethodBuilder interns it. */
struct MethodSpec {
    std::string_view className;
    std::string_view methodName;
    int numArgs{0};
};

/**
 * One AIR instruction.
 *
 * A single struct (rather than a virtual hierarchy) keeps instruction
 * storage dense; only the fields relevant to the opcode are meaningful.
 * Every name is a handle into the module's NameTable and the source
 * registers live in the module's arena, so an instruction owns no heap
 * memory (and is trivially destructible).
 */
struct Instruction {
    Opcode op{Opcode::Nop};
    InvokeKind invokeKind{InvokeKind::Virtual};
    CondKind cond{CondKind::Eq};
    BinOpKind binop{BinOpKind::Add};
    UnOpKind unop{UnOpKind::Not};
    int dst{-1};                //!< destination register, -1 if none
    int target{-1};             //!< branch target (instruction index)
    RegList srcs;               //!< source registers (invoke args etc.)
    int64_t intValue{0};        //!< ConstInt payload
    Name strValue;              //!< ConstStr payload
    Name typeName;              //!< New/NewArray class name
    FieldRef field;             //!< Get/Put{Field,Static} target
    MethodRef method;           //!< Invoke target

    bool isBranch() const
    {
        return op == Opcode::If || op == Opcode::IfZ || op == Opcode::Goto;
    }
    bool isConditionalBranch() const
    {
        return op == Opcode::If || op == Opcode::IfZ;
    }
    bool isTerminator() const
    {
        return op == Opcode::Return || op == Opcode::ReturnVoid ||
               op == Opcode::Goto || op == Opcode::Throw;
    }
    bool isInvoke() const { return op == Opcode::Invoke; }
    bool writesRegister() const { return dst >= 0; }

    /** Render in AIR textual syntax (without trailing newline). */
    std::string toString() const;
};

/** Printable names for the enum values (used by printer and parser). */
const char *opcodeName(Opcode op);
const char *condName(CondKind c);
const char *binopName(BinOpKind b);
const char *unopName(UnOpKind u);
const char *invokeKindName(InvokeKind k);

/** Inverse lookups; return false when the name is unknown. */
bool condFromName(std::string_view name, CondKind &out);
bool binopFromName(std::string_view name, BinOpKind &out);
bool unopFromName(std::string_view name, UnOpKind &out);
bool invokeKindFromName(std::string_view name, InvokeKind &out);

/** Negate a branch condition (Eq <-> Ne, Lt <-> Ge, ...). */
CondKind negateCond(CondKind c);

/** Evaluate "lhs cond rhs" over concrete integers. */
bool evalCond(CondKind c, int64_t lhs, int64_t rhs);

/** Evaluate a binary operator over concrete integers (Div/Rem by 0 = 0). */
int64_t evalBinOp(BinOpKind b, int64_t lhs, int64_t rhs);

} // namespace sierra::air

#endif // SIERRA_AIR_INSTRUCTION_HH
