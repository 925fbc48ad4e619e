#include "action.hh"

#include "air/logging.hh"

namespace sierra::analysis {

const char *
actionKindName(ActionKind k)
{
    switch (k) {
      case ActionKind::HarnessRoot: return "harness-root";
      case ActionKind::Lifecycle: return "lifecycle";
      case ActionKind::Gui: return "gui";
      case ActionKind::XmlGui: return "xml-gui";
      case ActionKind::PostedRunnable: return "posted-runnable";
      case ActionKind::PostedMessage: return "posted-message";
      case ActionKind::AsyncPre: return "async-pre";
      case ActionKind::AsyncBackground: return "async-background";
      case ActionKind::AsyncPost: return "async-post";
      case ActionKind::ThreadRun: return "thread-run";
      case ActionKind::ExecutorRun: return "executor-run";
      case ActionKind::Receive: return "receive";
      case ActionKind::ServiceCreate: return "service-create";
      case ActionKind::ServiceConnected: return "service-connected";
    }
    panic("unreachable action kind");
}

bool
isQueuePosted(ActionKind k)
{
    return k == ActionKind::PostedRunnable ||
           k == ActionKind::PostedMessage;
}

const char *
threadAffinityName(ThreadAffinity a)
{
    switch (a) {
      case ThreadAffinity::MainLooper: return "main-looper";
      case ThreadAffinity::Background: return "background";
      case ThreadAffinity::CustomLooper: return "custom-looper";
    }
    panic("unreachable thread affinity");
}

int
ActionRegistry::create(ActionKind kind, int creator, SiteId creation_site,
                       const std::string &entry_class,
                       const std::string &callback_name)
{
    // Hashed by the ids only: actions that share them and differ in
    // entry are rare, and the equality test tells them apart.
    uint64_t h = util::hashMix(0, static_cast<uint64_t>(kind));
    h = util::hashMix(h, static_cast<uint64_t>(creator));
    h = util::hashMix(h, static_cast<uint64_t>(creation_site));
    int found = _index.find(h, [&](int id) {
        const Action &a = _actions[static_cast<size_t>(id)];
        return a.kind == kind && a.creator == creator &&
               a.creationSite == creation_site &&
               a.entryClass == entry_class &&
               a.callbackName == callback_name;
    });
    if (found >= 0)
        return found;
    Action a;
    a.id = static_cast<int>(_actions.size());
    a.kind = kind;
    a.creator = creator;
    a.creationSite = creation_site;
    a.entryClass = entry_class;
    a.callbackName = callback_name;
    a.label = entry_class + "." + callback_name;
    _actions.push_back(std::move(a));
    _index.insert(h, _actions.back().id);
    return _actions.back().id;
}

} // namespace sierra::analysis
