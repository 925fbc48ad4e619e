/**
 * @file
 * Race patterns for corpus apps.
 *
 * Each pattern injects classes/callbacks into an activity and seeds the
 * app's ground truth. The catalog mirrors the paper's scenarios:
 *
 *  - asyncNewsRace      Fig. 1: AsyncTask vs. scroll on an adapter
 *  - receiverDbRace     Fig. 2: BroadcastReceiver vs. lifecycle DB
 *  - guardedTimer       Fig. 8: ad-hoc sync refutable by symbolic exec
 *  - computedGuard      Fig. 8 with a computed guard value: refutable
 *                       only with (IFDS) constant facts
 *  - messageGuard       Section 5: Message.what constant propagation
 *  - orderedPosts       HB rule 4 negative (posting order)
 *  - threadRace         background thread vs. GUI read
 *  - actionAliasTrap    Section 3.3: action-sensitivity ablation
 *  - serviceStaticRace  static field, service vs. activity
 *  - lifecycleSafe      ordered lifecycle accesses (negative)
 *  - guiFlowSafe        enabledAfter GUI ordering (negative)
 *  - implicitDepTrap    Section 6.5: implicit dependency (known FP)
 *  - connectionRace     onServiceConnected vs onDestroy (true race)
 *  - handlerThreadRace  custom background looper (HandlerThread):
 *                       unordered posts race, FIFO posts do not
 *  - executorRace       Executor pool task vs GUI read (true race)
 *  - arrayIndexTrap     Section 6.5: index-insensitive array (known FP)
 *  - workSession        Section 3.3 ablation amplifier (per-action
 *                       sessions falsely alias without AS contexts)
 *  - lockGuarded        background thread and GUI callback hold the
 *                       same field monitor (FP without lock sets)
 *  - localScratch       method-local buffers (pruned by escape
 *                       analysis; never a race)
 *  - interprocGuard     guard cleared through a 9-deep setter chain:
 *                       refutable only with interprocedural constants
 *  - useAfterDestroy    field nulled in onDestroy, dereferenced from a
 *                       posted task (IFDS use-after-destroy client)
 *  - deadlockCycle      two background threads acquire two field
 *                       monitors in opposite orders (UNDEAD-style
 *                       cyclic acquisition; the deadlock stage must
 *                       report the A->B->A cycle)
 *  - deadlockOrdered    both threads acquire the monitors in the same
 *                       order (negative control: no cycle)
 *  - iccStartActivity   sender writes a static from a worker thread
 *                       and startActivity()s an explicit-Intent target
 *                       whose onCreate reads it: a cross-component
 *                       race visible only with ICC modeling
 *  - iccPendingIntent   same shape through a field-stored PendingIntent
 *                       fired from a GUI handler (atypical ICC)
 *  - registeredWindow   receiver registered onCreate / unregistered
 *                       onPause: a true race inside the window plus a
 *                       post-teardown FP the enablement stage refutes
 *  - unregisteredFpTrap receiverDbRace with the teardown in onPause:
 *                       the onDestroy read is a pure enablement FP
 *  - removedCallback    Handler.post in onCreate, removeCallbacks in
 *                       onPause: the onDestroy read is a pure
 *                       enablement FP
 *  - nullSourceCrash    the racing worker write is the ref field's
 *                       only store (no initialization), so the losing
 *                       GUI read dereferences null: nullflow HARMFUL
 *  - guardedNullRead    same race but every handler use sits behind a
 *                       null check on the field itself: the report
 *                       survives with nullflow severity GUARDED
 *  - iccNullCrash       iccStartActivity with a ref-typed static whose
 *                       sole write is the sender's worker: the
 *                       launched activity's unguarded onCreate read is
 *                       a cross-component nullflow HARMFUL
 */

#ifndef SIERRA_CORPUS_PATTERNS_HH
#define SIERRA_CORPUS_PATTERNS_HH

#include "app_factory.hh"

namespace sierra::corpus {

void addAsyncNewsRace(AppFactory &f, ActivityBuilder &act);
void addReceiverDbRace(AppFactory &f, ActivityBuilder &act);
void addGuardedTimer(AppFactory &f, ActivityBuilder &act);
void addComputedGuard(AppFactory &f, ActivityBuilder &act);
void addMessageGuard(AppFactory &f, ActivityBuilder &act);
void addOrderedPosts(AppFactory &f, ActivityBuilder &act);
void addThreadRace(AppFactory &f, ActivityBuilder &act);
void addActionAliasTrap(AppFactory &f, ActivityBuilder &act);
void addServiceStaticRace(AppFactory &f, ActivityBuilder &act);
void addLifecycleSafe(AppFactory &f, ActivityBuilder &act);
void addGuiFlowSafe(AppFactory &f, ActivityBuilder &act);
void addImplicitDepTrap(AppFactory &f, ActivityBuilder &act);
void addConnectionRace(AppFactory &f, ActivityBuilder &act);
void addHandlerThreadRace(AppFactory &f, ActivityBuilder &act);
void addExecutorRace(AppFactory &f, ActivityBuilder &act);
void addArrayIndexTrap(AppFactory &f, ActivityBuilder &act);
void addWorkSession(AppFactory &f, ActivityBuilder &act);
void addLockGuarded(AppFactory &f, ActivityBuilder &act);
void addLocalScratch(AppFactory &f, ActivityBuilder &act);
void addInterprocGuard(AppFactory &f, ActivityBuilder &act);
void addUseAfterDestroy(AppFactory &f, ActivityBuilder &act);
void addDeadlockCycle(AppFactory &f, ActivityBuilder &act);
void addDeadlockOrdered(AppFactory &f, ActivityBuilder &act);
void addIccStartActivity(AppFactory &f, ActivityBuilder &act);
void addIccPendingIntent(AppFactory &f, ActivityBuilder &act);
void addRegisteredWindow(AppFactory &f, ActivityBuilder &act);
void addUnregisteredFpTrap(AppFactory &f, ActivityBuilder &act);
void addRemovedCallback(AppFactory &f, ActivityBuilder &act);
void addNullSourceCrash(AppFactory &f, ActivityBuilder &act);
void addGuardedNullRead(AppFactory &f, ActivityBuilder &act);
void addIccNullCrash(AppFactory &f, ActivityBuilder &act);

/**
 * A click listener set in onCreate on a field-held `findViewById` view
 * writes a field; onPause clears the listener with
 * `setOnClickListener(null)`; a Runnable posted from onStop reads the
 * field (seeded FpTrap). No click can run after the clear, so the pair
 * is a pure enablement FP of the listener-disable typestate. With
 * `clear_in_pause` false the onPause clear is left out and the pair is
 * a real race. Not in the catalog, the named apps or the generator: a
 * fixture for the enablement stage's listener clearing.
 */
void addClearedListener(AppFactory &f, ActivityBuilder &act,
                        bool clear_in_pause = true);

/** All pattern functions, for sweep-style corpus generation. */
using PatternFn = void (*)(AppFactory &, ActivityBuilder &);
struct PatternEntry {
    const char *name;
    PatternFn fn;
    int seededTrueRaces; //!< TrueRace locations this pattern seeds
    int seededTraps;     //!< FpTrap locations this pattern seeds
    int seededDeadlocks{0}; //!< cyclic-acquisition findings seeded
};
const std::vector<PatternEntry> &patternCatalog();

/**
 * The frozen pool random corpus generation draws from: the first 21
 * catalog entries, pinned forever. Growing patternCatalog() must NOT
 * reshuffle the pseudo-random pattern assignment of existing synthetic
 * apps (it would invalidate every golden report), so random draws index
 * this pool; new patterns reach apps only through explicit signature
 * lists.
 */
const std::vector<PatternEntry> &randomPatternPool();

} // namespace sierra::corpus

#endif // SIERRA_CORPUS_PATTERNS_HH
