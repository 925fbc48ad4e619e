#include "lint.hh"

#include <algorithm>
#include <set>

#include "air/logging.hh"
#include "cfg.hh"
#include "dataflow.hh"
#include "framework/known_api.hh"
#include "nullflow.hh"

namespace sierra::analysis {

using air::Instruction;
using air::Method;
using air::Opcode;
using air::Severity;
using air::VerifyIssue;

namespace {

/** Forward must-analysis: registers definitely assigned on every path
 *  from method entry. Meet is set intersection. */
struct DefiniteAssignment {
    using Domain = std::vector<char>;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Forward;

    int numRegisters;
    int firstTempReg;

    Domain
    boundary() const
    {
        Domain d(static_cast<size_t>(numRegisters), 0);
        for (int r = 0; r < firstTempReg; ++r)
            d[r] = 1; // `this` and parameters
        return d;
    }

    bool
    merge(Domain &into, const Domain &from) const
    {
        bool changed = false;
        for (size_t r = 0; r < into.size(); ++r) {
            if (into[r] && !from[r]) {
                into[r] = 0;
                changed = true;
            }
        }
        return changed;
    }

    void
    transfer(int, const Instruction &instr, Domain &d) const
    {
        if (instr.dst >= 0)
            d[instr.dst] = 1;
    }
};

/**
 * Forward may-analysis of the monitor nesting depth: how many monitors
 * might still be held at an instruction. Merge is max (a warning fires
 * if *some* path reaches the post with a lock held); depth is clamped
 * to [0, 8] so unmatched enters/exits cannot diverge the fixpoint.
 */
struct MonitorDepth {
    using Domain = int;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Forward;

    Domain boundary() const { return 0; }

    bool
    merge(Domain &into, const Domain &from) const
    {
        if (from > into) {
            into = from;
            return true;
        }
        return false;
    }

    void
    transfer(int, const Instruction &instr, Domain &d) const
    {
        if (instr.op == Opcode::MonitorEnter)
            d = std::min(d + 1, 8);
        else if (instr.op == Opcode::MonitorExit)
            d = std::max(d - 1, 0);
    }
};

/** The "post"-family APIs: the argument runs later on a looper queue,
 *  so a monitor held at the call protects none of its execution. */
bool
isPostLikeApi(framework::ApiKind kind)
{
    switch (kind) {
      case framework::ApiKind::HandlerPost:
      case framework::ApiKind::HandlerSendMessage:
      case framework::ApiKind::ViewPost:
      case framework::ApiKind::RunOnUiThread:
        return true;
      default:
        return false;
    }
}

/** Value-producing instructions with no side effect: eliding one only
 *  loses the register value, so an unread destination is a dead store.
 *  Loads, calls and allocations are excluded (effects / site identity),
 *  as are bodies where the value may escape some other way. */
bool
isPureValueOp(Opcode op)
{
    switch (op) {
      case Opcode::ConstInt:
      case Opcode::ConstStr:
      case Opcode::ConstNull:
      case Opcode::Move:
      case Opcode::BinOp:
      case Opcode::UnOp:
        return true;
      default:
        return false;
    }
}

void
lintInto(const Method &method, const framework::KnownApis *apis,
         std::vector<VerifyIssue> &out)
{
    if (!method.hasBody())
        return;
    const Cfg cfg(method);

    auto at = [&](int idx) {
        return strCat(method.qualifiedName(), "@", idx);
    };

    // Entry-reachability of blocks (instruction-level, via the CFG).
    std::vector<char> block_reachable(cfg.numBlocks(), 0);
    {
        std::vector<int> stack{cfg.entryBlock()};
        block_reachable[cfg.entryBlock()] = 1;
        while (!stack.empty()) {
            int b = stack.back();
            stack.pop_back();
            for (int s : cfg.blocks()[b].succs) {
                if (!block_reachable[s]) {
                    block_reachable[s] = 1;
                    stack.push_back(s);
                }
            }
        }
    }

    DefiniteAssignment assigned{method.numRegisters(),
                                method.firstTempReg()};
    DataflowResult<DefiniteAssignment::Domain> defs =
        solveDataflow(cfg, assigned);
    for (const BasicBlock &block : cfg.blocks()) {
        if (block.first > block.last || !defs.reached[block.id])
            continue;
        DefiniteAssignment::Domain env = defs.atEntry[block.id];
        for (int i = block.first; i <= block.last; ++i) {
            const Instruction &instr = method.instr(i);
            for (int src : instr.srcs) {
                if (!env[src]) {
                    out.push_back(
                        {at(i),
                         strCat("register r", src,
                                " may be used before assignment"),
                         Severity::Error});
                }
            }
            assigned.transfer(i, instr, env);
        }
    }

    for (const BasicBlock &block : cfg.blocks()) {
        if (block.first > block.last)
            continue; // synthetic exit
        if (block_reachable[block.id])
            continue;
        out.push_back(
            {at(block.first),
             strCat("unreachable basic block (instructions ",
                    block.first, "..", block.last, ")"),
             Severity::Warning});
    }

    MonitorDepth monitors;
    DataflowResult<MonitorDepth::Domain> held =
        solveDataflow(cfg, monitors);
    for (const BasicBlock &block : cfg.blocks()) {
        if (block.first > block.last || !held.reached[block.id])
            continue;
        MonitorDepth::Domain depth = held.atEntry[block.id];
        for (int i = block.first; i <= block.last; ++i) {
            const Instruction &instr = method.instr(i);
            if (instr.op == Opcode::Invoke && depth > 0) {
                // With a module-backed classifier the super chain
                // resolves app subclasses of Handler etc.; without
                // one, direct framework references still match.
                framework::ApiKind kind =
                    apis ? apis->classify(instr.method)
                         : framework::KnownApis::classifyExact(
                               instr.method.className,
                               instr.method.methodName);
                if (isPostLikeApi(kind)) {
                    out.push_back(
                        {at(i),
                         strCat(instr.method.toString(),
                                " called with a monitor held; "
                                "the posted callback runs after "
                                "the critical section and may "
                                "race or re-enter it"),
                         Severity::Warning});
                }
            }
            monitors.transfer(i, instr, depth);
        }
    }

    const Liveness live(cfg);
    for (const BasicBlock &block : cfg.blocks()) {
        if (block.first > block.last || !block_reachable[block.id])
            continue; // dead code is flagged above, not here
        for (int i = block.first; i <= block.last; ++i) {
            const Instruction &instr = method.instr(i);
            if (instr.dst < 0 || !isPureValueOp(instr.op))
                continue;
            if (!live.liveAfter(i, instr.dst)) {
                out.push_back({at(i), strCat("dead store to r", instr.dst),
                               Severity::Warning});
            }
        }
    }
}

/**
 * Resolve the object register `reg`, as of instruction `limit`, to the
 * instance field that keeps it alive across callbacks: either the
 * register was loaded from a field, or it holds a fresh allocation the
 * method also stores into one. Walks back through move chains; returns
 * "" when no field is found (the object dies with the method frame).
 */
std::string
fieldKeyOf(const Method &method, int limit, int reg)
{
    for (int i = limit - 1; i >= 0; --i) {
        const Instruction &in = method.instr(i);
        if (in.dst != reg)
            continue;
        if (in.op == Opcode::Move) {
            reg = in.srcs[0];
            continue;
        }
        if (in.op == Opcode::GetField)
            return in.field.toString();
        if (in.op == Opcode::New) {
            for (int j = 0; j < method.numInstrs(); ++j) {
                const Instruction &st = method.instr(j);
                if (st.op == Opcode::PutField && st.srcs[1] == reg)
                    return st.field.toString();
            }
            return {};
        }
        return {};
    }
    return {};
}

/**
 * Forward must-analysis over one teardown callback: the set of
 * registration keys unregistered/cleared on *every* path so far. Meet
 * is set intersection; keys are "recv:<field>" for unregisterReceiver
 * and "lsn:<field>#<setter>" for a null listener store.
 */
struct MustTeardown {
    using Domain = std::set<std::string>;
    static constexpr DataflowDirection kDirection =
        DataflowDirection::Forward;

    const Cfg *cfg;
    const framework::KnownApis *apis;

    Domain boundary() const { return {}; }

    bool
    merge(Domain &into, const Domain &from) const
    {
        bool changed = false;
        for (auto it = into.begin(); it != into.end();) {
            if (!from.count(*it)) {
                it = into.erase(it);
                changed = true;
            } else {
                ++it;
            }
        }
        return changed;
    }

    void
    transfer(int idx, const Instruction &instr, Domain &d) const
    {
        if (instr.op != Opcode::Invoke || instr.srcs.size() < 2)
            return;
        framework::ApiKind kind = apis->classify(instr.method);
        if (kind == framework::ApiKind::UnregisterReceiver) {
            std::string key =
                fieldKeyOf(cfg->method(), idx, instr.srcs[1]);
            if (!key.empty())
                d.insert("recv:" + key);
        } else if (kind == framework::ApiKind::SetListener &&
                   isListenerClear(*cfg, idx)) {
            std::string key =
                fieldKeyOf(cfg->method(), idx, instr.srcs[0]);
            if (!key.empty())
                d.insert("lsn:" + key + "#" + instr.method.methodName);
        }
    }
};

/** Keys a class must-unregister in at least one teardown callback. */
std::set<std::string>
mustTeardownKeys(const air::Klass &klass,
                 const framework::KnownApis &apis)
{
    std::set<std::string> satisfied;
    for (const auto &m : klass.methods()) {
        if (!m->hasBody())
            continue;
        const std::string &n = m->name();
        if (n != "onPause" && n != "onStop" && n != "onDestroy")
            continue;
        const Cfg cfg(*m);
        MustTeardown problem{&cfg, &apis};
        DataflowResult<MustTeardown::Domain> r =
            solveDataflow(cfg, problem);
        // Meet over every reached return block: a key counts only if
        // all normal exits of this callback have seen the unregister.
        std::set<std::string> at_exit;
        bool first = true;
        for (const BasicBlock &block : cfg.blocks()) {
            if (block.first > block.last || !r.reached[block.id])
                continue;
            Opcode last = m->instr(block.last).op;
            if (last != Opcode::Return && last != Opcode::ReturnVoid)
                continue;
            if (first) {
                at_exit = r.atExit[block.id];
                first = false;
            } else {
                problem.merge(at_exit, r.atExit[block.id]);
            }
        }
        satisfied.insert(at_exit.begin(), at_exit.end());
    }
    return satisfied;
}

/**
 * The leaked-registration check: registrations made in lifecycle setup
 * callbacks that no teardown callback of the same class provably undoes
 * stay enabled past the component's useful lifetime — the classic
 * unregistered-receiver leak, and exactly the windows the enablement
 * refutation stage cannot close.
 */
void
lintLeakedRegistrations(const air::Klass &klass,
                        const framework::KnownApis &apis,
                        std::vector<VerifyIssue> &out)
{
    std::set<std::string> satisfied;
    bool satisfied_computed = false;
    for (const auto &m : klass.methods()) {
        if (!m->hasBody())
            continue;
        const std::string &n = m->name();
        if (n != "onCreate" && n != "onStart" && n != "onResume")
            continue;
        const Cfg cfg(*m);
        for (int i = 0; i < m->numInstrs(); ++i) {
            const Instruction &instr = m->instr(i);
            if (instr.op != Opcode::Invoke || instr.srcs.size() < 2)
                continue;
            framework::ApiKind kind = apis.classify(instr.method);
            std::string key;
            std::string message;
            if (kind == framework::ApiKind::RegisterReceiver) {
                std::string field =
                    fieldKeyOf(*m, i, instr.srcs[1]);
                if (field.empty()) {
                    message = "registered receiver is never stored in "
                              "a field and is not unregistered in any "
                              "teardown callback "
                              "(onPause/onStop/onDestroy)";
                } else {
                    key = "recv:" + field;
                    message = strCat(
                        "receiver ", field,
                        " registered here is not unregistered in any "
                        "teardown callback (onPause/onStop/onDestroy)");
                }
            } else if (kind == framework::ApiKind::SetListener &&
                       !isListenerClear(cfg, i)) {
                // Only listeners on field-held (long-lived) views leak;
                // views fetched from the activity's own layout die with
                // the view tree.
                std::string field =
                    fieldKeyOf(*m, i, instr.srcs[0]);
                if (field.empty())
                    continue;
                key = "lsn:" + field + "#" + instr.method.methodName;
                message = strCat(
                    "listener set on ", field,
                    " is not cleared in any teardown callback "
                    "(onPause/onStop/onDestroy)");
            } else {
                continue;
            }
            if (!key.empty()) {
                if (!satisfied_computed) {
                    satisfied = mustTeardownKeys(klass, apis);
                    satisfied_computed = true;
                }
                if (satisfied.count(key))
                    continue;
            }
            out.push_back({strCat(m->qualifiedName(), "@", i),
                           std::move(message), Severity::Warning});
        }
    }
}

} // namespace

std::vector<VerifyIssue>
lintMethod(const Method &method)
{
    std::vector<VerifyIssue> out;
    lintInto(method, nullptr, out);
    return air::dedupeIssues(std::move(out));
}

std::vector<VerifyIssue>
lintModule(const air::Module &module)
{
    const framework::KnownApis apis(module);
    std::vector<VerifyIssue> out;
    for (const air::Klass *k : module.classes()) {
        for (const auto &m : k->methods())
            lintInto(*m, &apis, out);
        lintLeakedRegistrations(*k, apis, out);
    }
    return air::dedupeIssues(std::move(out));
}

} // namespace sierra::analysis
