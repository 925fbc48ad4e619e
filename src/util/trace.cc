#include "trace.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <vector>

#include "json.hh"

namespace sierra::util::trace {

namespace detail {
std::atomic<bool> g_collecting{false};
} // namespace detail

namespace {

struct Event {
    char phase;       //!< 'B', 'E', or 'i'
    int tid;          //!< stable per-thread track id
    int64_t tsNs;     //!< nanoseconds since session start
    const char *cat;  //!< category (string literal, stored by pointer)
    std::string name;
    std::string args; //!< complete JSON object, or empty
};

struct Session {
    std::mutex mutex;
    std::vector<Event> events;
    //! tid -> track name; process-lifetime so pool workers named
    //! before start() keep their names across sessions
    std::map<int, std::string> threadNames;
    std::chrono::steady_clock::time_point epoch;
};

Session &
session()
{
    static Session s;
    return s;
}

/** Stable per-thread track id, assigned on first use. The main thread
 *  usually claims 0 but nothing relies on that. */
int
tidOf()
{
    static std::atomic<int> next{0};
    thread_local int tid = next.fetch_add(1);
    return tid;
}

/** Append one event. Timestamps are taken under the session lock so
 *  the epoch written by start() is properly synchronized. */
void
record(char phase, const char *cat, std::string name,
       std::string args)
{
    Session &s = session();
    int tid = tidOf();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!detail::g_collecting.load(std::memory_order_relaxed))
        return; // stopped between the caller's check and here
    int64_t ts = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - s.epoch)
                     .count();
    s.events.push_back(
        {phase, tid, ts, cat, std::move(name), std::move(args)});
}

} // namespace

void
start()
{
    Session &s = session();
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.events.clear();
        s.epoch = std::chrono::steady_clock::now();
        int tid = tidOf();
        if (!s.threadNames.count(tid))
            s.threadNames[tid] = "main";
        detail::g_collecting.store(true, std::memory_order_relaxed);
    }
}

void
stop()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    detail::g_collecting.store(false, std::memory_order_relaxed);
}

void
clear()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.events.clear();
}

size_t
eventCount()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.events.size();
}

void
beginSpan(const char *cat, std::string name, std::string args)
{
    if (!enabled())
        return;
    record('B', cat, std::move(name), std::move(args));
}

void
endSpan(const char *cat, std::string name)
{
    record('E', cat, std::move(name), "");
}

void
instant(const char *cat, std::string name, std::string args)
{
    if (!enabled())
        return;
    record('i', cat, std::move(name), std::move(args));
}

void
setThreadName(const std::string &name)
{
    Session &s = session();
    int tid = tidOf();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.threadNames[tid] = name;
}

std::string
arg(const std::string &key, const std::string &value)
{
    return "{\"" + jsonEscape(key) + "\":\"" + jsonEscape(value) +
           "\"}";
}

std::string
toJson()
{
    Session &s = session();
    std::lock_guard<std::mutex> lock(s.mutex);

    std::string out = "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &event) {
        if (!first)
            out += ",\n";
        else
            out += "\n";
        first = false;
        out += event;
    };

    // Metadata first: name the tracks that actually carry events.
    std::map<int, bool> seen;
    for (const Event &e : s.events)
        seen[e.tid] = true;
    for (const auto &[tid, name] : s.threadNames) {
        if (!seen.count(tid))
            continue;
        emit("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
             jsonEscape(name) + "\"}}");
    }

    char ts[64];
    for (const Event &e : s.events) {
        std::snprintf(ts, sizeof(ts), "%.3f",
                      static_cast<double>(e.tsNs) / 1e3);
        std::string ev = "{\"ph\":\"";
        ev += e.phase;
        ev += "\",\"pid\":0,\"tid\":" + std::to_string(e.tid) +
              ",\"ts\":" + ts + ",\"cat\":\"" + jsonEscape(e.cat) +
              "\",\"name\":\"" + jsonEscape(e.name) + "\"";
        if (e.phase == 'i')
            ev += ",\"s\":\"t\"";
        if (!e.args.empty())
            ev += ",\"args\":" + e.args;
        ev += "}";
        emit(ev);
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
writeJson(const std::string &path)
{
    stop();
    std::ofstream file(path);
    if (!file)
        return false;
    file << toJson();
    return static_cast<bool>(file);
}

} // namespace sierra::util::trace
