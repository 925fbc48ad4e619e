/**
 * @file
 * Context-sensitive Andersen-style pointer analysis with on-the-fly call
 * graph construction and action discovery (paper Sections 3.1 and 3.3).
 *
 * This is the reproduction's substitute for WALA's pointer analysis plus
 * SIERRA's action-sensitive context-selector plugin. The engine:
 *  - builds the call graph on the fly from the harness entry,
 *  - reifies concurrency actions at framework API sites (Handler.post,
 *    AsyncTask.execute, Thread.start, registerReceiver, setOn*Listener,
 *    ...) and at harness event sites,
 *  - attributes call-graph nodes to the actions that can execute them,
 *  - resolves findViewById through the layout model using the
 *    InflatedViewContext abstraction,
 *  - tracks which looper each Handler is bound to (paper Section 4.4).
 *
 * Memory layout (see docs/INTERNALS.md "Memory layout & interning"):
 * points-to sets are dense bitsets (util::ObjBitset) spilling into the
 * result's arena; field/static keys are interned u32 FieldIds in the
 * result's deterministic string table; the worklist engine uses
 * version-signature delta propagation to skip re-executing instructions
 * whose inputs are unchanged since their last visit.
 */

#ifndef SIERRA_ANALYSIS_POINTS_TO_HH
#define SIERRA_ANALYSIS_POINTS_TO_HH

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "action.hh"
#include "callgraph.hh"
#include "cfg.hh"
#include "class_hierarchy.hh"
#include "context.hh"
#include "dominators.hh"
#include "entry_plan.hh"
#include "field_key.hh"
#include "framework/app.hh"
#include "heap.hh"
#include "sites.hh"
#include "util/arena.hh"
#include "util/bitset.hh"
#include "util/intern.hh"

namespace sierra::analysis {

/** Dense points-to / id set (ascending iteration, like std::set). */
using ObjSet = util::ObjBitset;

/** Options controlling one pointer-analysis run. */
struct PointsToOptions {
    ContextOptions ctx;
    int maxActions{4096}; //!< backstop against runaway action creation
    /**
     * Optional app-level hierarchy shared across harness tasks. The
     * hierarchy is a pure function of the module and immutable after
     * construction, so one instance can serve every per-harness solver
     * (the detector builds it once per analyze()). Shared ownership:
     * results outlive the detector call that spawned them, so each
     * result co-owns the hierarchy it references. Null: the result
     * builds and owns its own.
     */
    std::shared_ptr<const ClassHierarchy> sharedCha;
    /**
     * Give array accesses with constant indices per-element locations
     * instead of one "$elems" summary (the paper's future-work citation
     * of Dillig et al.; removes the index-insensitivity FP class).
     */
    bool indexSensitiveArrays{false};
};

/** Solver work counters, filled by every run (plain increments on the
 *  solving thread — no atomics, no overhead knob). The metric name
 *  catalog in docs/OBSERVABILITY.md maps these to registry names. */
struct PtaStats {
    int64_t worklistIterations{0}; //!< nodes popped off the worklist
    int64_t localPasses{0};        //!< per-node inner fixpoint passes
    int64_t instrVisits{0};        //!< instruction transfer applications
    //! instruction visits skipped because the version signature of the
    //! instruction's inputs was unchanged since its last execution
    //! (delta propagation; surfaced as `pta.delta_props`)
    int64_t deltaSkips{0};
};

/** A flow-insensitive constant lattice value for one register. */
struct ConstVal {
    enum class State { Bottom, Const, Top };
    State state{State::Bottom};
    int64_t value{0};

    bool isConst() const { return state == State::Const; }
};

/** Everything the downstream stages (HB, race, symbolic) consume. */
class PointsToResult
{
  public:
    /** Bump-pointer arena owning bitset spill storage and call-graph
     *  edge arrays. Declared first so it is destroyed last. */
    util::Arena arena;
    /** Deterministic field/static key table. Populated by the serial
     *  phases; mutable because later stages intern keys through the
     *  const fieldKey()/staticKey(). Owned, like the whole result, by
     *  one harness task, which is also why the other mutable members
     *  below (the per-method CFGs and dominator trees, the key memo)
     *  need no lock. */
    mutable util::StringInterner keys;

    SiteTable sites;
    ContextTable contexts;
    ObjectTable objects;
    CallGraph cg;
    ActionRegistry actions;

  private:
    //! The hierarchy this result reads: the caller's shared app-level
    //! instance, or one built here. Co-owned so the result stays valid
    //! after the detector locals that supplied it are gone. Declared
    //! before `cha` so the reference below can bind to it.
    std::shared_ptr<const ClassHierarchy> _chaPtr;

  public:
    //! Hierarchy facts (read-only view of `_chaPtr`).
    const ClassHierarchy &cha;
    PointsToOptions options;
    PtaStats stats;

    NodeId rootNode{-1};
    int rootAction{-1};

    //! per-node, per-register points-to sets
    std::vector<std::vector<ObjSet>> regPts;
    //! (object, interned "Class.field" id) -> points-to set
    std::map<std::pair<ObjId, FieldId>, ObjSet> fieldPts;
    //! interned "Class.field" id -> points-to set for statics
    std::map<FieldId, ObjSet> staticPts;
    //! per-node return-value points-to sets
    std::vector<ObjSet> returnPts;
    //! per-node, per-register constant lattice
    std::vector<std::vector<ConstVal>> regConst;
    //! Handler object -> Looper object it posts to
    std::unordered_map<ObjId, ObjId> handlerLooper;
    //! the main looper's abstract object
    ObjId mainLooperObj{-1};

    explicit PointsToResult(
        const air::Module &module,
        std::shared_ptr<const ClassHierarchy> shared_cha = nullptr)
        : _chaPtr(shared_cha
                      ? std::move(shared_cha)
                      : std::make_shared<ClassHierarchy>(module)),
          cha(*_chaPtr)
    {
        cg.setArena(&arena);
    }

    const ObjSet &pointsTo(NodeId node, int reg) const;
    ConstVal constOf(NodeId node, int reg) const;

    /** The CFG of a method with a body, built on the first ask. Every
     *  stage of the harness shares it; the reference stays valid for
     *  the life of the result. */
    const Cfg &cfg(const air::Method &m) const;
    /** The dominator tree over cfg(m), built on the first ask. */
    const DominatorTree &dominators(const air::Method &m) const;

    /**
     * Canonical "DeclaringClass.field" key for an access through `obj`,
     * interned. The key lookups below are memoised by the address of
     * `field`, so `field` must be an instruction operand of the module
     * (it outlives the result); a memo hit skips only the re-interning
     * of a string already interned, so key ids do not depend on it.
     */
    FieldKey fieldKey(ObjId obj, const air::FieldRef &field) const;
    /** Key of a static field: its declaring class via the hierarchy. */
    FieldKey staticKey(const air::FieldRef &field) const;
    /** The field's declared "Class.field" key, no hierarchy walk (what
     *  a write through an ambiguous base may touch). */
    FieldKey declaredKey(const air::FieldRef &field) const;
    /** An array object's unknown-index element key (arrayWildcardKey). */
    FieldKey wildcardKey(ObjId obj) const;

    /** Intern an externally built key string (array element keys). */
    FieldKey
    internKey(std::string_view s, uint8_t flags = 0) const
    {
        return FieldKey::intern(keys, s, flags);
    }

    /** The string behind an interned key id. */
    const std::string &keyName(FieldId id) const { return keys.name(id); }

    /** Looper object an action's events are delivered to, or -1 for
     *  background-thread actions. */
    ObjId looperOfAction(int action_id) const;

    /** Count of actions excluding the synthetic harness root. */
    int numRealActions() const;

  private:
    static const ObjSet _emptySet;

    //! memo slots of keys that are not per object
    static constexpr ObjId kStaticSlot = -1;
    static constexpr ObjId kDeclaredSlot = -2;

    template <typename Make>
    FieldKey memoKey(const air::FieldRef *field, ObjId slot,
                     Make make) const;

    struct MethodFacts {
        Cfg cfg;
        std::unique_ptr<DominatorTree> dom;
        explicit MethodFacts(const air::Method &m) : cfg(m) {}
    };
    //! per-method facts; map nodes never move, so references handed
    //! out stay valid
    mutable std::unordered_map<const air::Method *, MethodFacts>
        _methodFacts;

    struct KeyMemoHash {
        size_t
        operator()(const std::pair<const air::FieldRef *, ObjId> &p) const
        {
            return std::hash<const void *>()(p.first) * 1000003u ^
                   std::hash<int>()(p.second);
        }
    };
    //! (field operand, object or slot) -> key; a null field with an
    //! object is that array object's element wildcard
    mutable std::unordered_map<std::pair<const air::FieldRef *, ObjId>,
                               FieldKey, KeyMemoHash>
        _keyMemo;
};

/**
 * The analysis driver: run() produces a PointsToResult for one harness.
 */
class PointsToAnalysis
{
  public:
    PointsToAnalysis(const framework::App &app, const EntryPlan &plan,
                     PointsToOptions options = {});
    ~PointsToAnalysis();

    std::unique_ptr<PointsToResult> run();

  private:
    class Engine;
    std::unique_ptr<Engine> _engine;
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_POINTS_TO_HH
