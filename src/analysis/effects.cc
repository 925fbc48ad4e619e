#include "effects.hh"

#include <vector>

namespace sierra::analysis {

using air::Instruction;
using air::InvokeKind;
using air::Method;
using air::Opcode;

namespace {

std::string
canonicalStaticKey(const ClassHierarchy &cha, const air::FieldRef &field)
{
    // Must match PointsToResult::staticKey so the race-stage prefilter
    // compares apples to apples.
    std::string decl =
        cha.declaringClassOfField(field.className, field.fieldName);
    if (decl.empty())
        decl = field.className;
    return decl + "." + field.fieldName;
}

/** CHA-resolve the possible bodies of one invoke. An empty result or
 *  any bodyless target means the call's effects are unknown. */
void
resolveTargets(const ClassHierarchy &cha, const Instruction &instr,
               std::vector<const Method *> &out, bool &unknown)
{
    out.clear();
    switch (instr.invokeKind) {
      case InvokeKind::Static: {
        const Method *t = cha.resolveStatic(instr.method.className,
                                            instr.method.methodName);
        if (t)
            out.push_back(t);
        break;
      }
      case InvokeKind::Special: {
        const Method *t = cha.resolveVirtual(instr.method.className,
                                             instr.method.methodName);
        if (t)
            out.push_back(t);
        break;
      }
      case InvokeKind::Virtual:
      case InvokeKind::Interface: {
        for (const air::Klass *k :
             cha.concreteSubtypes(instr.method.className)) {
            const Method *t =
                cha.resolveVirtual(k->name(), instr.method.methodName);
            if (t)
                out.push_back(t);
        }
        break;
      }
    }
    if (out.empty()) {
        unknown = true;
        return;
    }
    for (const Method *t : out) {
        if (!t->hasBody())
            unknown = true;
    }
}

/** Union `from` into `into`; true if anything was added. */
bool
unionInto(FieldEffects::Summary &into, const FieldEffects::Summary &from)
{
    bool changed = false;
    auto mergeSet = [&](FieldEffects::EffectSet &dst,
                        const FieldEffects::EffectSet &src) {
        changed |= dst.bits.unionWith(src.bits);
    };
    mergeSet(into.instanceWrites, from.instanceWrites);
    mergeSet(into.instanceReads, from.instanceReads);
    mergeSet(into.staticWrites, from.staticWrites);
    mergeSet(into.staticReads, from.staticReads);
    auto mergeFlag = [&](bool &dst, bool src) {
        if (src && !dst) {
            dst = true;
            changed = true;
        }
    };
    mergeFlag(into.writesArrays, from.writesArrays);
    mergeFlag(into.readsArrays, from.readsArrays);
    mergeFlag(into.callsUnknown, from.callsUnknown);
    return changed;
}

} // namespace

FieldEffects::FieldEffects(const air::Module &module,
                           const ClassHierarchy &cha)
{
    _unknown.callsUnknown = true;

    auto bind = [this](Summary &s) {
        s.instanceWrites.names = &_keys;
        s.instanceReads.names = &_keys;
        s.staticWrites.names = &_keys;
        s.staticReads.names = &_keys;
    };
    bind(_unknown);
    auto add = [this](EffectSet &set, std::string_view key) {
        set.bits.insert(static_cast<int>(_keys.intern(key)));
    };

    // Deterministic method order: module class order, declaration order.
    std::vector<const Method *> methods;
    for (const air::Klass *k : module.classes()) {
        for (const auto &m : k->methods()) {
            if (m->hasBody())
                methods.push_back(m);
        }
    }

    // Seed with each method's direct effects and record call edges.
    std::unordered_map<const Method *, std::vector<const Method *>>
        callees;
    std::vector<const Method *> targets;
    for (const Method *m : methods) {
        Summary &s = _summaries[m];
        bind(s);
        std::vector<const Method *> &edges = callees[m];
        for (int i = 0; i < m->numInstrs(); ++i) {
            const Instruction &instr = m->instr(i);
            switch (instr.op) {
              case Opcode::GetField:
                add(s.instanceReads, instr.field.fieldName.view());
                break;
              case Opcode::PutField:
                add(s.instanceWrites, instr.field.fieldName.view());
                break;
              case Opcode::GetStatic:
                add(s.staticReads, canonicalStaticKey(cha, instr.field));
                break;
              case Opcode::PutStatic:
                add(s.staticWrites,
                    canonicalStaticKey(cha, instr.field));
                break;
              case Opcode::ArrayGet:
                s.readsArrays = true;
                break;
              case Opcode::ArrayPut:
                s.writesArrays = true;
                break;
              case Opcode::Invoke:
                resolveTargets(cha, instr, targets, s.callsUnknown);
                for (const Method *t : targets) {
                    if (t->hasBody())
                        edges.push_back(t);
                }
                break;
              default:
                break;
            }
        }
    }

    // Fixpoint: propagate callee effects up until stable. Effect sets
    // only grow, so this terminates; round-robin over the fixed method
    // order keeps it deterministic.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const Method *m : methods) {
            Summary &s = _summaries[m];
            for (const Method *t : callees[m])
                changed |= unionInto(s, _summaries[t]);
        }
    }
}

const FieldEffects::Summary &
FieldEffects::of(const Method *method) const
{
    auto it = _summaries.find(method);
    return it == _summaries.end() ? _unknown : it->second;
}

bool
FieldEffects::mayConflict(const Summary &a, const Summary &b)
{
    if (a.callsUnknown || b.callsUnknown)
        return true;
    if ((a.writesArrays && (b.readsArrays || b.writesArrays)) ||
        (b.writesArrays && (a.readsArrays || a.writesArrays)))
        return true;
    auto intersects = [](const EffectSet &x, const EffectSet &y) {
        return x.bits.intersects(y.bits);
    };
    return intersects(a.instanceWrites, b.instanceWrites) ||
           intersects(a.instanceWrites, b.instanceReads) ||
           intersects(b.instanceWrites, a.instanceReads) ||
           intersects(a.staticWrites, b.staticWrites) ||
           intersects(a.staticWrites, b.staticReads) ||
           intersects(b.staticWrites, a.staticReads);
}

int
FieldEffects::numPure() const
{
    int n = 0;
    for (const auto &[m, s] : _summaries) {
        (void)m;
        if (s.isPure())
            ++n;
    }
    return n;
}

} // namespace sierra::analysis
