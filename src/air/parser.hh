/**
 * @file
 * Parser for the AIR textual format produced by printer.hh.
 *
 * The textual format is the analysis-facing analogue of an APK: corpus
 * apps can be written by hand in it, and printed modules round-trip.
 */

#ifndef SIERRA_AIR_PARSER_HH
#define SIERRA_AIR_PARSER_HH

#include <memory>
#include <string>
#include <string_view>

#include "module.hh"

namespace sierra::air {

/** Success/failure of a parse; never throws. */
struct ParseStatus {
    bool ok{true};
    std::string error;
    int errorLine{0};
};

/** The outcome of parsing a standalone module. */
struct ParseResult {
    std::unique_ptr<Module> module; //!< null on failure
    ParseStatus status;

    bool ok() const { return module != nullptr; }
};

/** Parse classes from AIR text into an existing module. On failure
 *  the module keeps what was parsed before the error, down to a
 *  partly built class, method or instruction. */
ParseStatus parseInto(Module &module, std::string_view text);

/** Parse a whole module from AIR text. */
ParseResult parseModule(std::string_view text);

} // namespace sierra::air

#endif // SIERRA_AIR_PARSER_HH
