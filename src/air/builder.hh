/**
 * @file
 * Fluent construction API for AIR method bodies.
 *
 * The corpus generators and the harness generator build code through this
 * builder; labels hide instruction indices until finish() patches them.
 * Names are interned into the method's module as they are emitted, and
 * register lists are copied into its arena.
 */

#ifndef SIERRA_AIR_BUILDER_HH
#define SIERRA_AIR_BUILDER_HH

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "method.hh"

namespace sierra::air {

class Module;

/** An unresolved branch target handed out by MethodBuilder::newLabel(). */
struct Label {
    int id{-1};
};

/**
 * Builds one Method body instruction by instruction.
 *
 * Typical use:
 * @code
 *   MethodBuilder b(method);
 *   int r = b.newReg();
 *   b.constInt(r, 1);
 *   Label done = b.newLabel();
 *   b.ifz(r, CondKind::Eq, done);
 *   ...
 *   b.bind(done);
 *   b.returnVoid();
 *   b.finish();
 * @endcode
 */
class MethodBuilder
{
  public:
    /** Wrap a freshly created, empty method. */
    explicit MethodBuilder(Method *method);

    /** Allocate a fresh temporary register. */
    int newReg();

    /** Register holding `this` for instance methods. */
    int thisReg() const { return _method->thisReg(); }
    /** Register holding declared parameter idx. */
    int paramReg(int idx) const { return _method->paramReg(idx); }

    // --- constants and moves ------------------------------------------
    void constInt(int dst, int64_t value);
    void constStr(int dst, std::string_view value);
    void constNull(int dst);
    void move(int dst, int src);
    void binOp(int dst, BinOpKind op, int lhs, int rhs);
    void unOp(int dst, UnOpKind op, int src);

    // --- heap ---------------------------------------------------------
    /** Allocation site; returns the instruction index (site id). */
    int newObject(int dst, std::string_view class_name);
    int newArray(int dst, std::string_view elem_class, int length_reg);
    void getField(int dst, int obj, const FieldSpec &field);
    void putField(int obj, const FieldSpec &field, int value);
    void getStatic(int dst, const FieldSpec &field);
    void putStatic(const FieldSpec &field, int value);
    void arrayGet(int dst, int arr, int idx);
    void arrayPut(int arr, int idx, int value);

    // --- calls --------------------------------------------------------
    /**
     * Emit an invoke; args include the receiver first for non-static
     * kinds. Returns the instruction index (call site id).
     */
    int invoke(int dst, InvokeKind kind, const MethodSpec &method,
               std::span<const int> args);
    int
    invoke(int dst, InvokeKind kind, const MethodSpec &method,
           std::initializer_list<int> args)
    {
        return invoke(dst, kind, method,
                      std::span<const int>(args.begin(), args.size()));
    }
    /** invoke-virtual sugar: receiver + args, discarding the result. */
    int call(int receiver, std::string_view class_name,
             std::string_view method_name,
             std::initializer_list<int> args = {});
    /** invoke-virtual sugar with a result register. */
    int callTo(int dst, int receiver, std::string_view class_name,
               std::string_view method_name,
               std::initializer_list<int> args = {});
    /** invoke-static sugar. */
    int callStatic(int dst, std::string_view class_name,
                   std::string_view method_name,
                   std::initializer_list<int> args = {});

    // --- control flow -------------------------------------------------
    Label newLabel();
    /** Bind a label to the next emitted instruction. */
    void bind(Label label);
    void iff(int lhs, CondKind cond, int rhs, Label target);
    void ifz(int src, CondKind cond, Label target);
    void gotoLabel(Label target);
    void ret(int src);
    void retVoid();
    void throwReg(int src);
    void nop();

    // --- synchronization ----------------------------------------------
    void monitorEnter(int obj);
    void monitorExit(int obj);

    /** Current next-instruction index (useful for site bookkeeping). */
    int nextIndex() const
    {
        return static_cast<int>(_method->instrs().size());
    }

    /**
     * Patch labels, set the register count and (unless the body already
     * ends in a terminator) append return-void. Must be called once.
     */
    void finish();

    Method *method() const { return _method; }

  private:
    int emit(const Instruction &instr);

    Method *_method;
    Module &_module;
    int _nextReg;
    bool _finished{false};
    std::vector<int> _labelTargets;            //!< label id -> instr index
    std::vector<std::pair<int, int>> _patches; //!< (instr index, label id)
};

} // namespace sierra::air

#endif // SIERRA_AIR_BUILDER_HH
