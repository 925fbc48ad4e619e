#include "rules.hh"

#include <array>
#include <map>
#include <set>
#include <unordered_map>

#include "air/logging.hh"
#include "util/trace.hh"

namespace sierra::hb {

using analysis::Action;
using analysis::ActionKind;
using analysis::DominatorTree;
using analysis::EntryEventSite;
using analysis::NodeId;
using analysis::PointsToResult;
using analysis::SiteId;
using analysis::SpawnEdge;

namespace {

/** State budget of one rule-5 ICFG reachability query; an exhausted
 *  query answers conservatively (reachable). */
constexpr int kRule5MaxStates = 200000;

} // namespace

class HbBuilder::Impl
{
  public:
    Impl(const PointsToResult &r, const analysis::EntryPlan &plan,
         const framework::App &app)
        : _r(r), _plan(plan), _app(app)
    {
    }

    std::unique_ptr<Shbg> build();

  private:
    void ruleInvocation(Shbg &g);
    void ruleAsyncChains(Shbg &g);
    void ruleHarnessDominance(Shbg &g);
    void ruleGuiModel(Shbg &g);
    void ruleIntraProcDom(Shbg &g);
    void ruleInterProcDom(Shbg &g);
    void ruleInterActionTrans(Shbg &g);

    /** Same-looper test for the post-order rules. */
    bool
    sameLooper(int a, int b) const
    {
        analysis::ObjId la = _r.looperOfAction(a);
        analysis::ObjId lb = _r.looperOfAction(b);
        return la >= 0 && la == lb;
    }

    /** Removal-reachability: can e2 execute when e1's program point is
     *  removed from action `act`'s ICFG? */
    bool reachableWithout(int act, NodeId n1, int e1, NodeId n2, int e2);

    const PointsToResult &_r;
    const analysis::EntryPlan &_plan;
    const framework::App &_app;

    //! SiteId of a harness event site -> its description
    std::unordered_map<SiteId, const EntryEventSite *> _harnessSites;
    //! action -> harness event site it was spawned at (if any)
    std::unordered_map<int, const EntryEventSite *> _actionSite;
};

std::unique_ptr<Shbg>
HbBuilder::Impl::build()
{
    SIERRA_TRACE_SPAN(span, "hb", "shbg.build", std::string());
    auto g = std::make_unique<Shbg>(_r.actions.size());

    // Index the harness event sites by interned SiteId, and map actions
    // spawned in the harness to their site descriptions. Sites were
    // interned during the pointer analysis; unvisited ones are absent.
    for (const auto &ev : _plan.eventSites) {
        SiteId s = _r.sites.find(ev.method, ev.instrIdx);
        if (s != analysis::kNoSite)
            _harnessSites[s] = &ev;
    }
    for (const Action &a : _r.actions.all()) {
        auto it = _harnessSites.find(a.creationSite);
        if (it != _harnessSites.end() && a.creator == _r.rootAction)
            _actionSite[a.id] = it->second;
    }

    ruleInvocation(*g);
    ruleAsyncChains(*g);
    ruleHarnessDominance(*g);
    ruleGuiModel(*g);
    ruleIntraProcDom(*g);
    ruleInterProcDom(*g);
    ruleInterActionTrans(*g);
    return g;
}

void
HbBuilder::Impl::ruleInvocation(Shbg &g)
{
    for (const Action &a : _r.actions.all()) {
        if (a.creator >= 0)
            g.addEdge(a.creator, a.id, HbRule::Invocation);
    }
}

void
HbBuilder::Impl::ruleAsyncChains(Shbg &g)
{
    // Group AsyncTask phase actions by their execute() site + creator.
    std::map<std::pair<SiteId, int>, std::array<int, 3>> chains;
    for (const Action &a : _r.actions.all()) {
        int slot = -1;
        if (a.kind == ActionKind::AsyncPre)
            slot = 0;
        else if (a.kind == ActionKind::AsyncBackground)
            slot = 1;
        else if (a.kind == ActionKind::AsyncPost)
            slot = 2;
        if (slot < 0)
            continue;
        auto key = std::make_pair(a.creationSite, a.creator);
        auto it = chains.find(key);
        if (it == chains.end())
            it = chains.emplace(key, std::array<int, 3>{-1, -1, -1})
                     .first;
        it->second[slot] = a.id;
    }
    for (const auto &[key, slots] : chains) {
        int prev = -1;
        for (int id : slots) {
            if (id < 0)
                continue;
            if (prev >= 0)
                g.addEdge(prev, id, HbRule::AsyncChain);
            prev = id;
        }
    }
}

void
HbBuilder::Impl::ruleHarnessDominance(Shbg &g)
{
    // Rule 2 (and the dominance part of rule 3): harness event sites are
    // invoked synchronously on the main thread, so pre-dominance between
    // sites orders their actions. Distinct call sites of the same
    // callback are distinct actions, which is exactly the "onStart '1'"
    // vs "onStart '2'" split of Fig. 5.
    const DominatorTree &dom = _r.dominators(*_plan.mainMethod);
    std::vector<std::pair<int, const EntryEventSite *>> acts(
        _actionSite.begin(), _actionSite.end());
    for (const auto &[id_a, ev_a] : acts) {
        for (const auto &[id_b, ev_b] : acts) {
            if (id_a == id_b)
                continue;
            if (!dom.instrDominates(ev_a->instrIdx, ev_b->instrIdx))
                continue;
            bool lifecycle =
                ev_a->kind == ActionKind::Lifecycle &&
                ev_b->kind == ActionKind::Lifecycle;
            g.addEdge(id_a, id_b,
                      lifecycle ? HbRule::Lifecycle : HbRule::GuiOrder);
        }
    }
}

void
HbBuilder::Impl::ruleGuiModel(Shbg &g)
{
    // Identify the lifecycle anchors: the initial onResume and the final
    // onPause/onStop/onDestroy (the harness sites outside the loop).
    int first_resume = -1;
    std::vector<int> finals;
    for (const auto &[id, ev] : _actionSite) {
        if (ev->kind != ActionKind::Lifecycle || ev->inEventLoop)
            continue;
        if (ev->callbackName == "onResume")
            first_resume = id;
        else if (ev->callbackName == "onPause" ||
                 ev->callbackName == "onStop" ||
                 ev->callbackName == "onDestroy")
            finals.push_back(id);
    }

    // GUI events require a resumed, visible activity: they follow the
    // first onResume and precede the final onPause/onStop/onDestroy.
    std::vector<const Action *> guis;
    for (const Action &a : _r.actions.all()) {
        if (a.kind == ActionKind::Gui || a.kind == ActionKind::XmlGui)
            guis.push_back(&a);
    }
    for (const Action *gui : guis) {
        if (first_resume >= 0)
            g.addEdge(first_resume, gui->id, HbRule::GuiOrder);
        for (int f : finals)
            g.addEdge(gui->id, f, HbRule::GuiOrder);
    }

    // Layout "enabledAfter" constraints (Fig. 6's onClick2 < onClick3).
    for (const auto &[activity, layout] : _app.layouts()) {
        for (const auto &widget : layout.widgets()) {
            for (int dep : widget.enabledAfter) {
                for (const Action *before : guis) {
                    if (before->widgetId != dep)
                        continue;
                    for (const Action *after : guis) {
                        if (after->widgetId == widget.id) {
                            g.addEdge(before->id, after->id,
                                      HbRule::GuiOrder);
                        }
                    }
                }
            }
        }
    }
}

void
HbBuilder::Impl::ruleIntraProcDom(Shbg &g)
{
    // Rule 4: two posting sites in the same call-graph node, targeting
    // the same looper: if the first dominates the second, the posted
    // actions execute in that order (looper FIFO).
    const auto &spawns = _r.cg.spawns();
    for (size_t i = 0; i < spawns.size(); ++i) {
        for (size_t j = 0; j < spawns.size(); ++j) {
            if (i == j)
                continue;
            const SpawnEdge &s1 = spawns[i];
            const SpawnEdge &s2 = spawns[j];
            if (s1.creator != s2.creator ||
                s1.actionId == s2.actionId)
                continue;
            const air::Method *m = _r.sites.methodOf(s1.site);
            if (m == _plan.mainMethod)
                continue; // harness sites: handled by rule 2
            if (!analysis::isQueuePosted(
                    _r.actions.get(s1.actionId).kind) ||
                !analysis::isQueuePosted(
                    _r.actions.get(s2.actionId).kind))
                continue;
            if (!sameLooper(s1.actionId, s2.actionId))
                continue;
            if (g.reaches(s1.actionId, s2.actionId))
                continue;
            const DominatorTree &dom = _r.dominators(*m);
            if (dom.instrDominates(_r.sites.instrOf(s1.site),
                                   _r.sites.instrOf(s2.site))) {
                g.addEdge(s1.actionId, s2.actionId,
                          HbRule::IntraProcDom);
            }
        }
    }
}

bool
HbBuilder::Impl::reachableWithout(int act, NodeId n1, int e1, NodeId n2,
                                  int e2)
{
    // BFS over (node, instr) states of action `act`'s ICFG, skipping
    // the removed point (n1, e1). Calls descend into in-action callees,
    // and a call only *continues* when some callee's exit is reachable
    // (context-insensitive return linkage): stepping over a call whose
    // body is blocked by the removed site would make removal
    // meaningless. Calls with no in-action callee (framework
    // intrinsics) fall through directly.
    const Action &a = _r.actions.get(act);
    if (a.entryNode < 0)
        return true; // no body: be conservative
    std::set<std::pair<NodeId, int>> visited;
    std::vector<std::pair<NodeId, int>> work{{a.entryNode, 0}};
    // Return linkage, built lazily: callee node -> caller resume
    // points discovered when the call was expanded.
    std::map<NodeId, std::set<std::pair<NodeId, int>>> resume_points;
    int budget = kRule5MaxStates;
    while (!work.empty()) {
        auto [n, i] = work.back();
        work.pop_back();
        if (n == n1 && i == e1)
            continue; // removed point
        if (n == n2 && i == e2)
            return true;
        if (!visited.insert({n, i}).second)
            continue;
        if (--budget <= 0)
            return true; // budget exhausted: conservatively reachable
        const air::Method *m = _r.cg.node(n).method;
        if (i >= m->numInstrs())
            continue;
        const air::Instruction &instr = m->instr(i);
        if (instr.isInvoke()) {
            SiteId s = _r.sites.find(m, i);
            bool has_callee = false;
            for (const auto &edge : _r.cg.edgesOf(n)) {
                if (edge.site != s)
                    continue;
                if (!_r.cg.actionsOf(edge.callee).count(act))
                    continue;
                has_callee = true;
                work.emplace_back(edge.callee, 0);
                // Register the resume point; if the callee's exit was
                // already reached, resume immediately.
                auto [it, fresh] = resume_points[edge.callee].insert(
                    {n, i + 1});
                (void)it;
                if (fresh &&
                    visited.count({edge.callee, -1})) {
                    work.emplace_back(n, i + 1);
                }
            }
            if (!has_callee)
                work.emplace_back(n, i + 1);
            continue; // successors come via return linkage
        }
        switch (instr.op) {
          case air::Opcode::Goto:
            work.emplace_back(n, instr.target);
            break;
          case air::Opcode::If:
          case air::Opcode::IfZ:
            work.emplace_back(n, instr.target);
            work.emplace_back(n, i + 1);
            break;
          case air::Opcode::Return:
          case air::Opcode::ReturnVoid:
          case air::Opcode::Throw: {
            // The node's exit is reachable: resume every registered
            // caller; mark with the (node, -1) sentinel so later-
            // registered callers resume too. Throw counts as an exit
            // (over-approximate reachability -> fewer HB edges, the
            // sound direction).
            if (visited.insert({n, -1}).second) {
                for (const auto &resume : resume_points[n])
                    work.push_back(resume);
            }
            break;
          }
          default:
            work.emplace_back(n, i + 1);
            break;
        }
    }
    return false;
}

void
HbBuilder::Impl::ruleInterProcDom(Shbg &g)
{
    // Rule 5: posting sites in different methods of the same action.
    const auto &spawns = _r.cg.spawns();
    for (size_t i = 0; i < spawns.size(); ++i) {
        for (size_t j = 0; j < spawns.size(); ++j) {
            if (i == j)
                continue;
            const SpawnEdge &s1 = spawns[i];
            const SpawnEdge &s2 = spawns[j];
            if (s1.actionId == s2.actionId)
                continue;
            const air::Method *m1 = _r.sites.methodOf(s1.site);
            const air::Method *m2 = _r.sites.methodOf(s2.site);
            if (m1 == _plan.mainMethod || m2 == _plan.mainMethod)
                continue;
            if (s1.creator == s2.creator)
                continue; // rule 4's case
            if (!analysis::isQueuePosted(
                    _r.actions.get(s1.actionId).kind) ||
                !analysis::isQueuePosted(
                    _r.actions.get(s2.actionId).kind))
                continue;
            if (!sameLooper(s1.actionId, s2.actionId))
                continue;
            if (g.reaches(s1.actionId, s2.actionId) ||
                g.reaches(s2.actionId, s1.actionId))
                continue;
            // Common enclosing action of both posting nodes.
            const auto &acts1 = _r.cg.actionsOf(s1.creator);
            const auto &acts2 = _r.cg.actionsOf(s2.creator);
            int common = -1;
            for (int a : acts1) {
                if (acts2.count(a)) {
                    common = a;
                    break;
                }
            }
            if (common < 0)
                continue;
            if (!reachableWithout(common, s1.creator,
                                  _r.sites.instrOf(s1.site), s2.creator,
                                  _r.sites.instrOf(s2.site))) {
                g.addEdge(s1.actionId, s2.actionId,
                          HbRule::InterProcDom);
            }
        }
    }
}

void
HbBuilder::Impl::ruleInterActionTrans(Shbg &g)
{
    // Rule 6, iterated with the closure (rule 7) to a fixpoint: if
    // A1 < A2, A1 posts A3, A2 posts A4, and A3/A4 target the same
    // looper, then A3 < A4 (Fig. 7; needs looper atomicity).
    const auto &actions = _r.actions.all();
    bool changed = true;
    int rounds = 0;
    while (changed) {
        changed = false;
        if (++rounds > 64) {
            warn("rule 6 fixpoint did not settle after 64 rounds");
            break;
        }
        for (const Action &a3 : actions) {
            if (a3.creator < 0 || !analysis::isQueuePosted(a3.kind))
                continue;
            for (const Action &a4 : actions) {
                if (a4.creator < 0 || a4.id == a3.id)
                    continue;
                if (!analysis::isQueuePosted(a4.kind))
                    continue;
                if (a3.creator == a4.creator)
                    continue;
                if (!sameLooper(a3.id, a4.id))
                    continue;
                if (!g.reaches(a3.creator, a4.creator))
                    continue;
                if (g.reaches(a3.id, a4.id) || g.reaches(a4.id, a3.id))
                    continue;
                g.addEdge(a3.id, a4.id, HbRule::InterActionTrans);
                changed = true;
            }
        }
    }
}

HbBuilder::HbBuilder(const PointsToResult &result,
                     const analysis::EntryPlan &plan,
                     const framework::App &app)
    : _impl(std::make_unique<Impl>(result, plan, app))
{
}

HbBuilder::~HbBuilder() = default;

std::unique_ptr<Shbg>
HbBuilder::build()
{
    return _impl->build();
}

} // namespace sierra::hb
