/**
 * @file
 * The hostile-input sweeps of parser_robustness_test.cc, as plain input
 * lists: air_parser_diff_test.cc replays every one of them against the
 * reference parser. The mutation and truncation helpers also drive the
 * store decoder sweeps (store_decoder_diff_test.cc) and the jsonl
 * protocol sweeps (serve_sweep_test.cc).
 */

#ifndef SIERRA_TESTS_PARSER_SWEEPS_HH
#define SIERRA_TESTS_PARSER_SWEEPS_HH

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "air/printer.hh"
#include "corpus/named_apps.hh"
#include "framework/app_text.hh"

namespace sierra::test {

/** Digit runs that overflow int64 or int, on their own or in front of
 *  the digits of an existing number. */
inline const std::vector<std::string> &
overflowDigits()
{
    static const std::vector<std::string> runs = {
        "99999999999999999999", "4294967296", "2147483648"};
    return runs;
}

/** Multi-character pieces the random sweeps draw besides single
 *  characters: the digit runs above, negated, and registers beyond
 *  int. */
inline const std::vector<std::string> &
overflowFragments()
{
    static const std::vector<std::string> fragments = [] {
        std::vector<std::string> out;
        for (const std::string &run : overflowDigits()) {
            out.push_back(run);
            out.push_back("-" + run);
            out.push_back("r" + run);
        }
        return out;
    }();
    return fragments;
}

/** Deterministic pseudo-random input strings. */
inline std::string
randomBytes(std::mt19937 &rng, size_t max_len)
{
    // Bias toward structural characters so we reach deeper parser
    // states than pure noise would.
    static const std::string alphabet =
        "abcXYZ019 _$.:;,=@{}()[]\"\\#<>\n\tclass method field regs "
        "const invoke-virtual return-void if goto app activity widget";
    const auto &fragments = overflowFragments();
    std::string out;
    size_t len = rng() % max_len;
    for (size_t i = 0; i < len; ++i) {
        size_t pick = rng() % (alphabet.size() + fragments.size());
        if (pick < alphabet.size())
            out += alphabet[pick];
        else
            out += fragments[pick - alphabet.size()];
    }
    return out;
}

/** Random AIR module texts. */
inline std::vector<std::string>
randomModuleInputs()
{
    std::mt19937 rng(0xF00D);
    std::vector<std::string> out;
    for (int i = 0; i < 400; ++i)
        out.push_back(randomBytes(rng, 300));
    return out;
}

/** Random app bundles: an app header around random bytes, then more. */
inline std::vector<std::string>
randomBundleInputs()
{
    std::mt19937 rng(0xBEEF);
    std::vector<std::string> out;
    for (int i = 0; i < 400; ++i) {
        std::string input = "app \"x\" {" + randomBytes(rng, 200) + "}";
        input += randomBytes(rng, 200);
        out.push_back(std::move(input));
    }
    return out;
}

/** Copies of `text`, each corrupted at one position: a byte of `junk`
 *  replaces a byte, or an overflow digit run is spliced in front of the
 *  next number. `text` must not be empty. */
inline std::vector<std::string>
mutatedInputs(const std::string &text, uint32_t seed, int count,
              const std::string &junk)
{
    std::mt19937 rng(seed);
    const auto &runs = overflowDigits();
    std::vector<std::string> out;
    for (int i = 0; i < count; ++i) {
        std::string mutated = text;
        size_t pos = rng() % mutated.size();
        size_t pick = rng() % (junk.size() + runs.size());
        if (pick < junk.size()) {
            mutated[pos] = junk[pick];
        } else {
            pos = std::min(mutated.find_first_of("0123456789", pos),
                           mutated.size());
            mutated.insert(pos, runs[pick - junk.size()]);
        }
        out.push_back(std::move(mutated));
    }
    return out;
}

/** Prefixes of `text`, about `pieces` of them, shortest first. */
inline std::vector<std::string>
prefixInputs(const std::string &text, size_t pieces)
{
    std::vector<std::string> out;
    for (size_t cut = 0; cut < text.size();
         cut += std::max<size_t>(1, text.size() / pieces))
        out.push_back(text.substr(0, cut));
    return out;
}

/** A real printed module, each copy corrupted at one position: a junk
 *  character replaces a byte, or an overflow digit run is spliced in
 *  front of the next number (a register, index, target, `regs=` or
 *  constant). */
inline std::vector<std::string>
mutatedModuleInputs()
{
    corpus::BuiltApp built = corpus::buildNamedApp("VuDroid");
    return mutatedInputs(air::printModule(built.app->module()), 0xCAFE,
                         300, "@{}\"x0-.\n(");
}

/** Prefixes of a real app bundle. */
inline std::vector<std::string>
truncatedBundleInputs()
{
    corpus::BuiltApp built = corpus::buildNamedApp("TippyTipper");
    return prefixInputs(framework::printAppText(*built.app), 120);
}

/** An app header of many unmatched braces. */
inline std::string
deepNestingBundle()
{
    std::string input = "app \"x\" ";
    for (int i = 0; i < 5000; ++i)
        input += "{";
    return input;
}

} // namespace sierra::test

#endif // SIERRA_TESTS_PARSER_SWEEPS_HH
