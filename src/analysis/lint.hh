/**
 * @file
 * AIR lint: flow-sensitive diagnostics on top of the structural
 * verifier, built on the dataflow framework (analysis/dataflow.hh).
 *
 * Five checks:
 *  - use-before-def (Error): an instruction reads a register that is
 *    not definitely assigned on every path from method entry
 *    (parameters and `this` count as assigned);
 *  - unreachable-block (Warning): a basic block no path from entry
 *    reaches;
 *  - dead-store (Warning): a side-effect-free value-producing
 *    instruction (const/move/arith) whose destination is never read
 *    before being overwritten;
 *  - lock-held-at-post (Warning): a Handler.post/sendMessage/View.post
 *    call site that some path reaches with a monitor still held — the
 *    posted callback runs later on another queue, so the monitor
 *    protects nothing it does, and re-acquiring it there is a classic
 *    event-loop deadlock/ordering trap;
 *  - leaked-registration (Warning): a registerReceiver or
 *    setOnXxxListener in a lifecycle setup callback (onCreate, onStart,
 *    onResume) whose registered object no teardown callback (onPause,
 *    onStop, onDestroy) of the same class must-unregisters or
 *    must-clears. The registration is matched to its teardown through
 *    the instance field holding the receiver (or, for listeners, the
 *    long-lived field holding the view); listeners set on views the
 *    activity owns through findViewById die with the view tree and are
 *    not flagged. "Must" is literal: the unregister has to happen on
 *    every path through some teardown callback, computed by a forward
 *    intersection dataflow. This check needs the whole class (setup
 *    and teardown methods), so it runs under lintModule only.
 *
 * Diagnostics reuse air::VerifyIssue so verifier and lint output can be
 * merged, deduplicated, and printed uniformly.
 */

#ifndef SIERRA_ANALYSIS_LINT_HH
#define SIERRA_ANALYSIS_LINT_HH

#include <vector>

#include "air/verifier.hh"

namespace sierra::analysis {

/** Lint one method body; no-op for bodyless methods. */
std::vector<air::VerifyIssue>
lintMethod(const air::Method &method);

/** Lint every method body in the module; issues are de-duplicated and
 *  ordered by module class/method declaration order. */
std::vector<air::VerifyIssue>
lintModule(const air::Module &module);

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_LINT_HH
