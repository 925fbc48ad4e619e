#include "serve.hh"

#include <istream>
#include <ostream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "framework/app_text.hh"

namespace sierra::serve {

ServeSession::ServeSession(const ServeOptions &options)
    : _options(options)
{
    _store = options.storeDir.empty()
                 ? std::make_unique<analysis::store::Store>()
                 : std::make_unique<analysis::store::Store>(
                       options.storeDir);
}

ServeSession::~ServeSession() = default;

std::string
ServeSession::errorResponse(int64_t id, const std::string &code,
                            const std::string &message)
{
    _metrics.add("serve.errors");
    Json err = Json::object();
    err.set("code", Json::str(code));
    err.set("message", Json::str(message));
    Json response = Json::object();
    response.set("id", Json::integer(id));
    response.set("error", std::move(err));
    return response.dump();
}

std::string
ServeSession::handleLine(const std::string &line)
{
    _metrics.add("serve.requests");
    Json request;
    std::string parse_error;
    if (!Json::parse(line, request, parse_error))
        return errorResponse(0, "bad-json", parse_error);
    if (!request.isObject())
        return errorResponse(0, "bad-json",
                             "request must be a JSON object");
    return handle(request);
}

std::string
ServeSession::handle(const Json &request)
{
    const Json *id_field = request.field("id");
    if (!id_field || id_field->kind() != Json::Kind::Int)
        return errorResponse(0, "missing-field",
                             "\"id\" (integer) is required");
    const int64_t id = id_field->asInt();

    const Json *kind_field = request.field("kind");
    if (!kind_field || kind_field->kind() != Json::Kind::Str)
        return errorResponse(id, "missing-field",
                             "\"kind\" (string) is required");
    const std::string &kind = kind_field->asStr();

    // Pre-cancellation: the loop is serial, so a `cancel` naming a
    // future id deterministically rejects that id when it arrives.
    if (_canceled.count(id)) {
        _canceled.erase(id);
        _metrics.add("serve.canceled");
        return errorResponse(id, "canceled",
                             "request " + std::to_string(id) +
                                 " was canceled");
    }

    Json result = Json::object();

    if (kind == "ping") {
        result.set("pong", Json::boolean(true));
    } else if (kind == "hello") {
        result.set("server", Json::str("sierra"));
        result.set("schemaVersion",
                   Json::integer(kProtocolSchemaVersion));
        result.set("store", Json::str(_store->onDisk() ? "disk"
                                                       : "memory"));
    } else if (kind == "analyze") {
        const Json *app_field = request.field("app");
        if (!app_field || app_field->kind() != Json::Kind::Str)
            return errorResponse(id, "missing-field",
                                 "\"app\" (string) is required");
        SierraOptions options;
        options.jobs = _options.jobs;
        const Json *jobs_field = request.field("jobs");
        if (jobs_field && jobs_field->kind() == Json::Kind::Int)
            options.jobs = static_cast<int>(jobs_field->asInt());

        framework::AppTextResult parsed =
            framework::parseAppText(app_field->asStr());
        if (!parsed.ok()) {
            return errorResponse(
                id, "parse-error",
                parsed.error + " (line " +
                    std::to_string(parsed.errorLine) + ")");
        }
        IncrementalAnalyzer analyzer(*_store, &_metrics);
        IncrementalResult r = analyzer.analyze(*parsed.app, options);

        result.set("app", Json::str(r.report.app));
        result.set("harnesses", Json::integer(r.harnessesTotal));
        result.set("races", Json::integer(r.report.racyPairs));
        result.set("afterRefutation",
                   Json::integer(r.report.afterRefutation));
        Json store_info = Json::object();
        store_info.set("harnessesReused",
                       Json::integer(r.harnessesReused));
        store_info.set("harnessesComputed",
                       Json::integer(r.harnessesComputed));
        store_info.set("methodsTotal", Json::integer(r.methodsTotal));
        result.set("store", std::move(store_info));
        result.set("report", Json::str(r.reportText));
    } else if (kind == "stats") {
        Json counters = Json::object();
        for (const auto &[name, value] : _metrics.counters())
            counters.set(name, Json::integer(value));
        result.set("counters", std::move(counters));
        const analysis::store::StoreStats &s = _store->stats();
        Json store_stats = Json::object();
        store_stats.set("gets", Json::integer(s.gets));
        store_stats.set("hits", Json::integer(s.hits));
        store_stats.set("puts", Json::integer(s.puts));
        store_stats.set("diskReads", Json::integer(s.diskReads));
        store_stats.set("bytesWritten", Json::integer(s.bytesWritten));
        result.set("store", std::move(store_stats));
    } else if (kind == "cancel") {
        const Json *target_field = request.field("target");
        if (!target_field ||
            target_field->kind() != Json::Kind::Int)
            return errorResponse(id, "missing-field",
                                 "\"target\" (integer) is required");
        _canceled.insert(target_field->asInt());
        result.set("target", Json::integer(target_field->asInt()));
    } else if (kind == "shutdown") {
        _done = true;
        result.set("shutdown", Json::boolean(true));
    } else {
        return errorResponse(id, "unknown-kind",
                             "unknown request kind \"" + kind + "\"");
    }

    Json response = Json::object();
    response.set("id", Json::integer(id));
    response.set("result", std::move(result));
    return response.dump();
}

int
serveLoop(std::istream &in, std::ostream &out,
          const ServeOptions &options)
{
    ServeSession session(options);
    int handled = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        out << session.handleLine(line) << "\n";
        out.flush();
        ++handled;
        if (session.done())
            break;
    }
    return handled;
}

int
serveSocket(const std::string &path, const ServeOptions &options,
            std::ostream &err)
{
    int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        err << "serve: cannot create socket\n";
        return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        err << "serve: socket path too long: " << path << "\n";
        ::close(listener);
        return 1;
    }
    ::unlink(path.c_str());
    path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 1) != 0) {
        err << "serve: cannot bind " << path << "\n";
        ::close(listener);
        return 1;
    }

    // One session for the daemon's lifetime: the store persists
    // across connections, so a reconnecting client warm-starts.
    ServeSession session(options);
    while (!session.done()) {
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            break;
        std::string buffer;
        char chunk[4096];
        while (!session.done()) {
            ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<size_t>(n));
            size_t nl;
            while ((nl = buffer.find('\n')) != std::string::npos) {
                std::string line = buffer.substr(0, nl);
                buffer.erase(0, nl + 1);
                if (line.empty())
                    continue;
                std::string response =
                    session.handleLine(line) + "\n";
                size_t off = 0;
                while (off < response.size()) {
                    ssize_t w = ::write(fd, response.data() + off,
                                        response.size() - off);
                    if (w <= 0)
                        break;
                    off += static_cast<size_t>(w);
                }
                if (session.done())
                    break;
            }
        }
        ::close(fd);
    }
    ::close(listener);
    ::unlink(path.c_str());
    return 0;
}

} // namespace sierra::serve
