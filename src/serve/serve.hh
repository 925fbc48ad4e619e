/**
 * @file
 * The `sierra serve` daemon: a long-running analysis service speaking
 * newline-delimited JSON (docs/DAEMON_PROTOCOL.md is the normative
 * wire description; protocol_examples_test replays its examples
 * verbatim against ServeLoop).
 *
 * The loop is transport-agnostic and strictly serial: it reads one
 * request line, answers one response line, in order. Determinism is a
 * feature -- byte-identical request streams produce byte-identical
 * response streams (timing and pids never appear on the wire), which
 * is what lets the protocol doc's examples be executable tests.
 *
 * Transports: stdin/stdout (`sierra serve`) or a Unix domain socket
 * (`sierra serve --socket PATH`), one connection at a time.
 */

#ifndef SIERRA_SERVE_SERVE_HH
#define SIERRA_SERVE_SERVE_HH

#include <iosfwd>
#include <memory>
#include <set>
#include <string>

#include "incremental.hh"
#include "protocol.hh"

namespace sierra::serve {

/** Wire-protocol schema version (bump on breaking changes). */
inline constexpr int kProtocolSchemaVersion = 2;

struct ServeOptions {
    std::string storeDir; //!< empty = memory-only store
    int jobs{0};          //!< default pipeline jobs (0 = auto)
};

/**
 * One daemon session over a request/response stream pair. Owns the
 * artifact store (disk-backed when ServeOptions::storeDir is set) and
 * the metrics registry the `stats` request reports from.
 */
class ServeSession
{
  public:
    explicit ServeSession(const ServeOptions &options);
    ~ServeSession();

    /** Handle one raw request line; returns the response line
     *  (without the trailing newline). */
    std::string handleLine(const std::string &line);

    /** True once a `shutdown` request was answered. */
    bool done() const { return _done; }

    const util::metrics::Registry &metrics() const { return _metrics; }

  private:
    std::string handle(const Json &request);
    std::string errorResponse(int64_t id, const std::string &code,
                              const std::string &message);

    ServeOptions _options;
    std::unique_ptr<analysis::store::Store> _store;
    util::metrics::Registry _metrics;
    std::set<int64_t> _canceled; //!< ids marked by `cancel`
    bool _done{false};
};

/**
 * Run a full session: read jsonl requests from `in`, write jsonl
 * responses to `out`, until EOF or a `shutdown` request. Returns the
 * number of requests handled.
 */
int serveLoop(std::istream &in, std::ostream &out,
              const ServeOptions &options);

/** Serve over a Unix domain socket at `path` (created, mode 0600;
 *  removed on exit). Accepts one connection at a time; returns 0 on
 *  clean shutdown, nonzero on socket errors (message to `err`). */
int serveSocket(const std::string &path, const ServeOptions &options,
                std::ostream &err);

} // namespace sierra::serve

#endif // SIERRA_SERVE_SERVE_HH
