/** @file Shared helpers for building tiny apps inside tests. */

#ifndef SIERRA_TESTS_TEST_HELPERS_HH
#define SIERRA_TESTS_TEST_HELPERS_HH

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "corpus/app_factory.hh"
#include "harness/harness.hh"
#include "sierra/detector.hh"

namespace sierra::test {

/** A built app together with its harness plans and detector. */
struct Pipeline {
    corpus::BuiltApp built;
    std::unique_ptr<SierraDetector> detector;

    framework::App &app() { return *built.app; }
};

/** Build an app from a factory-filling callback and wrap a detector. */
template <typename Fill>
Pipeline
makePipeline(const std::string &name, Fill fill)
{
    corpus::AppFactory factory(name);
    fill(factory);
    Pipeline p{factory.finish(), nullptr};
    p.detector = std::make_unique<SierraDetector>(*p.built.app);
    return p;
}

/** Find an action by label substring; -1 if absent. */
inline int
findAction(const analysis::PointsToResult &r, const std::string &needle)
{
    for (const auto &a : r.actions.all()) {
        if (a.label.find(needle) != std::string::npos)
            return a.id;
    }
    return -1;
}

/** Count actions of one kind. */
inline int
countActions(const analysis::PointsToResult &r, analysis::ActionKind k)
{
    int n = 0;
    for (const auto &a : r.actions.all()) {
        if (a.kind == k)
            ++n;
    }
    return n;
}

/** The direct SHBG edge from -> to; null if there is none. */
inline const hb::HbEdge *
directEdge(const hb::Shbg &g, int from, int to)
{
    for (const hb::HbEdge &e : g.directEdges()) {
        if (e.from == from && e.to == to)
            return &e;
    }
    return nullptr;
}

/** True if some surviving race in the report is on the given key. */
inline bool
reportsKey(const AppReport &report, const std::string &key)
{
    for (const auto &race : report.races) {
        if (!race.refuted && race.fieldKey == key)
            return true;
    }
    return false;
}

/**
 * A fresh file in the temp directory, removed again on scope exit.
 * mkstemps creates it atomically under a unique name, so concurrently
 * running tests never share a path.
 */
class TempFile
{
  public:
    explicit TempFile(const std::string &suffix)
    {
        std::string path =
            (std::filesystem::temp_directory_path() / "sierra-XXXXXX")
                .string() +
            suffix;
        int fd = ::mkstemps(path.data(), static_cast<int>(suffix.size()));
        if (fd < 0)
            throw std::runtime_error("cannot create a temp file");
        ::close(fd);
        _path = path;
    }
    ~TempFile() { std::remove(_path.c_str()); }
    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

} // namespace sierra::test

#endif // SIERRA_TESTS_TEST_HELPERS_HH
