/**
 * @file
 * Concurrency actions (paper Sections 3.3 and 4.2).
 *
 * An action reifies one unit of event handling: a lifecycle callback
 * invocation, a GUI event, a posted message/runnable, a thread body, or a
 * system event. Actions are the nodes of the Static Happens-Before Graph
 * and the first component of action-sensitive contexts.
 */

#ifndef SIERRA_ANALYSIS_ACTION_HH
#define SIERRA_ANALYSIS_ACTION_HH

#include <string>
#include <vector>

#include "sites.hh"
#include "util/flat_map.hh"

namespace sierra::analysis {

/** Classes of actions (paper Table 1, column 1). */
enum class ActionKind {
    HarnessRoot,     //!< the synthetic harness main (not a real event)
    Lifecycle,       //!< onCreate/onStart/... invocation site
    Gui,             //!< dynamically registered GUI listener callback
    XmlGui,          //!< layout-XML registered GUI callback
    PostedRunnable,  //!< Handler.post / View.post / runOnUiThread body
    PostedMessage,   //!< Handler.sendMessage -> handleMessage
    AsyncPre,        //!< AsyncTask.onPreExecute
    AsyncBackground, //!< AsyncTask.doInBackground
    AsyncPost,       //!< AsyncTask.onPostExecute
    ThreadRun,       //!< Thread.start -> run
    ExecutorRun,     //!< Executor.execute -> run
    Receive,         //!< BroadcastReceiver.onReceive
    ServiceCreate,   //!< Service onCreate/onStartCommand
    ServiceConnected,//!< ServiceConnection.onServiceConnected
};

const char *actionKindName(ActionKind k);

/**
 * True for actions that are enqueued on a looper's message queue at a
 * program point inside their creator (Handler.post / sendMessage and
 * kin). Only these obey the looper-FIFO argument behind HB rules 4-6;
 * synchronously invoked callbacks (lifecycle, GUI) and system-triggered
 * events (receivers, services) do not.
 */
bool isQueuePosted(ActionKind k);

/** Which executor runs an action. */
enum class ThreadAffinity {
    MainLooper,   //!< the UI thread's looper
    Background,   //!< a fresh background thread
    CustomLooper, //!< a non-main looper (Handler bound to it)
};

const char *threadAffinityName(ThreadAffinity a);

/** One action (SHBG node). */
struct Action {
    int id{-1};
    ActionKind kind{ActionKind::HarnessRoot};
    std::string label;        //!< human-readable, e.g. "A.onCreate"
    std::string callbackName; //!< entry callback method name
    std::string entryClass;   //!< class whose callback runs
    int creator{-1};          //!< creating action id; -1 for roots
    SiteId creationSite{kNoSite}; //!< site in the creator that spawned it
    int entryNode{-1};        //!< call-graph node id of the entry
    ThreadAffinity affinity{ThreadAffinity::MainLooper};
    int looperObj{-1};        //!< ObjId of the target looper, -1 = n/a
    int widgetId{-1};         //!< GUI actions: the widget's view id
    int messageWhat{-1};      //!< PostedMessage: constant what, -1 unknown

    bool
    runsOnLooper() const
    {
        return affinity != ThreadAffinity::Background;
    }
};

/** Owning registry of all actions discovered for one harness. */
class ActionRegistry
{
  public:
    /** Create an action; (kind, creator, creationSite, callback, class)
     *  is the identity key — re-creation returns the existing id. */
    int create(ActionKind kind, int creator, SiteId creation_site,
               const std::string &entry_class,
               const std::string &callback_name);

    Action &get(int id) { return _actions[id]; }
    const Action &get(int id) const { return _actions[id]; }

    int size() const { return static_cast<int>(_actions.size()); }
    const std::vector<Action> &all() const { return _actions; }
    std::vector<Action> &all() { return _actions; }

  private:
    std::vector<Action> _actions;
    util::IdIndex _index;
};

} // namespace sierra::analysis

#endif // SIERRA_ANALYSIS_ACTION_HH
