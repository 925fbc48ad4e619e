/**
 * @file
 * AIR method bodies.
 */

#ifndef SIERRA_AIR_METHOD_HH
#define SIERRA_AIR_METHOD_HH

#include <string>
#include <vector>

#include "instruction.hh"
#include "name.hh"
#include "type.hh"
#include "util/arena.hh"

namespace sierra::air {

class Klass;

/**
 * A method body: a flat instruction vector over a register file.
 *
 * Register convention: for instance methods register 0 is `this` and
 * registers 1..numParams hold the declared parameters; for static methods
 * registers 0..numParams-1 hold the parameters. Remaining registers are
 * temporaries.
 */
class Method
{
  public:
    /** `arena`, when given (the owning Module's), backs the instruction
     *  storage; without one the body lives on the heap. */
    Method(Klass *owner, Name name, std::vector<Type> param_types,
           Type return_type, bool is_static,
           util::Arena *arena = nullptr)
        : _owner(owner), _name(name),
          _paramTypes(std::move(param_types)),
          _returnType(std::move(return_type)), _isStatic(is_static),
          _instrs(arena)
    {
    }

    Klass *owner() const { return _owner; }
    Name name() const { return _name; }
    /** "ClassName.methodName", the global identity of this method. */
    std::string qualifiedName() const;

    const std::vector<Type> &paramTypes() const { return _paramTypes; }
    const Type &returnType() const { return _returnType; }
    bool isStatic() const { return _isStatic; }
    bool isAbstract() const { return _isAbstract; }
    void setAbstract(bool abstract) { _isAbstract = abstract; }

    /** Number of declared parameters, excluding `this`. */
    int numParams() const { return static_cast<int>(_paramTypes.size()); }
    /** First register index that is a temporary (after this + params). */
    int firstTempReg() const
    {
        return numParams() + (_isStatic ? 0 : 1);
    }
    /** Register holding `this`; panics for static methods via verifier. */
    int thisReg() const { return 0; }
    /** Register holding the idx-th declared parameter. */
    int paramReg(int idx) const { return idx + (_isStatic ? 0 : 1); }

    int numRegisters() const { return _numRegisters; }
    void setNumRegisters(int n) { _numRegisters = n; }

    util::ArenaVector<Instruction> &instrs() { return _instrs; }
    const util::ArenaVector<Instruction> &instrs() const
    {
        return _instrs;
    }
    int numInstrs() const { return static_cast<int>(_instrs.size()); }

    const Instruction &instr(int idx) const { return _instrs[idx]; }

    /** A method with no body (abstract or framework-modeled). */
    bool hasBody() const { return !_instrs.empty(); }

    MethodRef ref() const;

  private:
    Klass *_owner;
    Name _name;
    std::vector<Type> _paramTypes;
    Type _returnType;
    bool _isStatic;
    bool _isAbstract{false};
    int _numRegisters{0};
    util::ArenaVector<Instruction> _instrs;
};

} // namespace sierra::air

#endif // SIERRA_AIR_METHOD_HH
