#include "access.hh"

#include "air/logging.hh"
#include "analysis/array_keys.hh"

namespace sierra::race {

using air::Instruction;
using air::Opcode;
using analysis::FieldKey;
using analysis::NodeId;
using analysis::PointsToResult;

std::string
MemLoc::toString(const PointsToResult &r) const
{
    if (isStatic)
        return "static " + key.str();
    return r.objects.toString(obj, r.sites) + "." + key.str();
}

bool
locsMayAlias(const MemLoc &a, const MemLoc &b)
{
    if (a == b)
        return true;
    if (a.isStatic || b.isStatic || a.obj != b.obj)
        return false;
    if (!a.key.isArray() || !b.key.isArray())
        return false;
    // Same array object: a wildcard (unknown-index) access may alias
    // any element; two distinct constant indices do not alias.
    return a.key.isWildcard() || b.key.isWildcard();
}

std::string
Access::toString(const PointsToResult &r) const
{
    std::string out = isWrite ? "write " : "read ";
    out += fieldName + " at " + r.sites.toString(site);
    (void)r;
    return out;
}

std::vector<Access>
extractAccesses(const PointsToResult &result)
{
    std::vector<Access> out;
    for (NodeId n = 0; n < result.cg.numNodes(); ++n) {
        const air::Method *m = result.cg.node(n).method;
        if (!m->hasBody())
            continue;
        const air::Klass *owner = m->owner();
        if (owner->isSynthetic())
            continue; // harness code
        bool app_code = !owner->isFramework();
        for (int i = 0; i < m->numInstrs(); ++i) {
            const Instruction &instr = m->instr(i);
            Access a;
            a.node = n;
            a.instrIdx = i;
            a.inAppCode = app_code;
            switch (instr.op) {
              case Opcode::GetField:
              case Opcode::PutField: {
                a.isWrite = instr.op == Opcode::PutField;
                a.fieldName = instr.field.fieldName;
                for (analysis::ObjId o :
                     result.pointsTo(n, instr.srcs[0])) {
                    MemLoc loc;
                    loc.obj = o;
                    loc.key = result.fieldKey(o, instr.field);
                    a.locs.push_back(loc);
                }
                const air::Field *f = result.cha.resolveField(
                    instr.field.className, instr.field.fieldName);
                a.refTyped = f && f->type.isReference();
                break;
              }
              case Opcode::GetStatic:
              case Opcode::PutStatic: {
                a.isWrite = instr.op == Opcode::PutStatic;
                a.fieldName = instr.field.fieldName;
                MemLoc loc;
                loc.isStatic = true;
                loc.key = result.staticKey(instr.field);
                a.locs.push_back(loc);
                const air::Field *f = result.cha.resolveField(
                    instr.field.className, instr.field.fieldName);
                a.refTyped = f && f->type.isReference();
                break;
              }
              case Opcode::ArrayGet:
              case Opcode::ArrayPut: {
                a.isWrite = instr.op == Opcode::ArrayPut;
                a.isArrayElem = true;
                analysis::ConstVal idx = result.constOf(n, instr.srcs[1]);
                bool exact = result.options.indexSensitiveArrays &&
                             idx.isConst();
                a.fieldName = exact ? "$elem#" + std::to_string(idx.value)
                                    : "$elems";
                for (analysis::ObjId o :
                     result.pointsTo(n, instr.srcs[0])) {
                    MemLoc loc;
                    loc.obj = o;
                    loc.key =
                        exact ? result.internKey(
                                    analysis::arrayElementKey(
                                        result.objects.get(o).klassName,
                                        idx.value),
                                    FieldKey::kArray)
                              : result.wildcardKey(o);
                    a.locs.push_back(loc);
                }
                a.refTyped = true;
                break;
              }
              default:
                continue;
            }
            if (a.locs.empty())
                continue;
            a.site = result.sites.find(m, i);
            if (a.site == analysis::kNoSite) {
                // The site was never interned (the node was processed,
                // so this should not happen) -- skip defensively.
                continue;
            }
            out.push_back(std::move(a));
        }
    }
    return out;
}

} // namespace sierra::race
