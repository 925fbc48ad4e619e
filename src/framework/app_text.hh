/**
 * @file
 * On-disk app format: a single text file bundling the manifest, the
 * layouts, and the AIR classes -- the reproduction's "APK file".
 *
 * Grammar (header first, then plain AIR classes):
 *
 *   app "Name" {
 *       activity NewsActivity main
 *       activity SettingsActivity
 *       service SyncService
 *       receiver NetReceiver action "net.DATA_READY"
 *       layout NewsActivity {
 *           widget 1001 "rvNews" android.widget.RecycleView
 *           widget 1002 "btnGo" android.widget.Button \
 *                  onclick onGo after 1001
 *       }
 *   }
 *   class NewsActivity extends android.app.Activity { ... }
 *
 * `printAppText` writes this format (app classes only; framework and
 * synthetic classes are omitted) and `parseAppText` reads it back, so
 * apps round-trip through disk.
 */

#ifndef SIERRA_FRAMEWORK_APP_TEXT_HH
#define SIERRA_FRAMEWORK_APP_TEXT_HH

#include <memory>
#include <string>
#include <string_view>

#include "app.hh"

namespace sierra::framework {

/** Result of parsing an app file. */
struct AppTextResult {
    std::unique_ptr<App> app; //!< null on failure
    std::string error;
    int errorLine{0};

    bool ok() const { return app != nullptr; }
};

/** Parse an app bundle (header + AIR classes) from text. The framework
 *  model classes are installed into the resulting module. */
AppTextResult parseAppText(std::string_view text);

/** Serialize an app into the bundle format (app classes only). With
 *  `with_bodies` false the instruction lines are omitted -- the
 *  structural "shape" the analysis store hashes; this projection does
 *  not round-trip. */
std::string printAppText(const App &app, bool with_bodies = true);

} // namespace sierra::framework

#endif // SIERRA_FRAMEWORK_APP_TEXT_HH
