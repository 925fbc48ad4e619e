/**
 * @file
 * Scaffolding for building corpus apps: activity builders that let
 * several race patterns contribute code to shared lifecycle callbacks.
 */

#ifndef SIERRA_CORPUS_APP_FACTORY_HH
#define SIERRA_CORPUS_APP_FACTORY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "air/builder.hh"
#include "framework/app.hh"
#include "ground_truth.hh"

namespace sierra::corpus {

/** A built corpus app plus its seeded ground truth. */
struct BuiltApp {
    std::unique_ptr<framework::App> app;
    GroundTruth truth;
};

/**
 * Collects per-callback code snippets for one Activity class and
 * materializes the callback methods at finalize() time.
 *
 * Snippets receive a MethodBuilder whose register 0 is `this`.
 */
class ActivityBuilder
{
  public:
    ActivityBuilder(framework::App &app, std::string name);

    const std::string &name() const { return _name; }
    air::Klass *klass() const { return _klass; }
    framework::Layout &layout() { return _layout; }

    /** Append code to a lifecycle callback (onCreate, onStart, ...). */
    void on(const std::string &callback,
            std::function<void(air::MethodBuilder &)> code);

    /** Declare a field on the activity; returns its canonical key. */
    std::string addField(const std::string &name, air::Type type);

    /** Create the callback methods and attach the layout. Call once. */
    void finalize();

  private:
    framework::App &_app;
    std::string _name;
    air::Klass *_klass;
    framework::Layout _layout;
    std::map<std::string,
             std::vector<std::function<void(air::MethodBuilder &)>>>
        _snippets;
    bool _finalized{false};
};

/**
 * Builds one app: manifest, activities, patterns.
 *
 * Typical use: construct, addActivity() a few times, apply patterns
 * from patterns.hh, then finish().
 */
class AppFactory
{
  public:
    explicit AppFactory(const std::string &app_name);

    framework::App &app() { return *_built.app; }
    GroundTruth &truth() { return _built.truth; }

    /** Create an activity class (registered in the manifest). */
    ActivityBuilder &addActivity(const std::string &name);

    /** Register a manifest service class (caller defines the class). */
    void addManifestService(const std::string &class_name);
    /** Register a manifest receiver class. */
    void addManifestReceiver(const std::string &class_name);

    /** A fresh app-unique view id. */
    int nextViewId() { return _nextViewId++; }
    /** A fresh app-unique suffix for class/field names. */
    int nextUnique() { return _nextUnique++; }

    /** Finalize all activities and return the app. */
    BuiltApp finish();

  private:
    BuiltApp _built;
    std::vector<std::unique_ptr<ActivityBuilder>> _activities;
    int _nextViewId{1000};
    int _nextUnique{0};
    bool _finished{false};
};

/** Shorthand: a field of a class, to hand to a MethodBuilder. */
inline air::FieldSpec
fieldRef(std::string_view klass, std::string_view field)
{
    return {klass, field};
}

} // namespace sierra::corpus

#endif // SIERRA_CORPUS_APP_FACTORY_HH
