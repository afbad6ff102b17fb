/**
 * @file
 * The one argv layer of the command-line tools. Each tool declares its
 * flags once, as a table of rows (name, value placeholder, help text,
 * setter); parseArgs() walks argv against that table and printUsage()
 * prints the --help text from it, so the accepted flags and the
 * documented ones cannot drift apart.
 *
 * Every rejected value reports in one form,
 *   <tool>: <flag> <rule>, got '<text>'
 * and the tool exits 1. Rules that involve more than one flag stay as
 * plain code in the tool, after the parse.
 */

#ifndef DIVA_COMMON_CLI_H
#define DIVA_COMMON_CLI_H

#include <climits>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.h"

namespace diva::cli
{

/** Applies one flag's value: "" on success, else reject(rule, text). */
using Setter = std::function<std::string(const std::string &value)>;

/** One row of a tool's flag table. */
struct Flag
{
    std::string name;  ///< "--threads"
    std::string value; ///< placeholder ("N", "LIST"); empty = a switch
    std::string help;  ///< one paragraph; printUsage() wraps it
    Setter set;
};

/** A titled block of rows; a tool's table is a list of them. */
struct FlagGroup
{
    std::string title;
    std::vector<Flag> flags;
};

using FlagTable = std::vector<FlagGroup>;

/**
 * Apply argv to `table`. Returns the exit code when the tool should
 * stop now -- 0 after printing --help/-h to `out`, 1 after reporting an
 * unknown flag, a missing value or a rejected value to `err` -- and
 * nullopt when it should run.
 */
std::optional<int> parseArgs(const std::string &tool, int argc,
                             const char *const *argv,
                             const FlagTable &table,
                             std::ostream &out = std::cout,
                             std::ostream &err = std::cerr);

/** The --help text: every row, its help wrapped under its group. */
void printUsage(const std::string &tool, const FlagTable &table,
                std::ostream &os);

/** "<rule>, got '<text>'": the tail of every rejected-value message. */
std::string reject(const std::string &rule, const std::string &text);

/** Print "<tool>: <msg>" to stderr and return exit code 1. */
int fail(const std::string &tool, const std::string &msg);

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &text);

/** One output a tool writes (--csv, --json, ...). */
struct Output
{
    std::string path;
    std::function<void(std::ostream &)> write;
    /** Write to stdout when `path` is empty (else skip the output). */
    bool toStdout = false;
};

/**
 * Write `outputs` in order. False, after "<tool>: cannot write <path>"
 * on stderr, at the first file that cannot be opened.
 */
bool writeOutputs(const std::string &tool,
                  const std::vector<Output> &outputs);

/** Text to a value of type T, and the rule the text must meet. */
template <class T>
struct Parser
{
    std::function<std::optional<T>(const std::string &)> parse;
    std::string rule;
};

/** The largest long long a T can hold. */
template <class T>
constexpr long long
maxOf()
{
    return (unsigned long long)std::numeric_limits<T>::max() >
                   (unsigned long long)LLONG_MAX
               ? LLONG_MAX
               : (long long)std::numeric_limits<T>::max();
}

/** An integer in [lo, hi]. */
template <class T = int>
Parser<T>
integer(long long lo, long long hi = maxOf<T>())
{
    return {[lo, hi](const std::string &text) -> std::optional<T> {
                if (const auto v = parseBoundedIntText(text, lo, hi))
                    return T(*v);
                return std::nullopt;
            },
            hi == LLONG_MAX
                ? "must be an integer >= " + std::to_string(lo)
                : "must be an integer in [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]"};
}

/** A finite real above `lo` (or equal to it when `orEqual`), <= hi. */
Parser<double> real(double lo, bool orEqual = false,
                    double hi = std::numeric_limits<double>::infinity());

/** One name from a fixed list. */
template <class T>
Parser<T>
oneOf(std::vector<std::pair<std::string, T>> names)
{
    std::string rule = "must be one of ";
    for (std::size_t i = 0; i < names.size(); ++i)
        rule += (i ? ", " : "") + names[i].first;
    return {[names](const std::string &text) -> std::optional<T> {
                for (const auto &[name, value] : names)
                    if (text == name)
                        return value;
                return std::nullopt;
            },
            rule};
}

/** `p`, plus the word `name` standing for `value` (e.g. 'auto'). */
template <class T>
Parser<T>
orWord(Parser<T> p, const std::string &name, T value)
{
    return {[p, name, value](const std::string &text) -> std::optional<T> {
                if (text == name)
                    return value;
                return p.parse(text);
            },
            p.rule + " or '" + name + "'"};
}

/** Store one parsed value in `dst`. */
template <class T>
Setter
set(T &dst, Parser<T> p)
{
    return [&dst, p](const std::string &text) {
        const std::optional<T> v = p.parse(text);
        if (!v)
            return reject(p.rule, text);
        dst = *v;
        return std::string();
    };
}

/** Replace `dst` with a non-empty comma list of parsed values. */
template <class T>
Setter
list(std::vector<T> &dst, Parser<T> p)
{
    return [&dst, p](const std::string &text) {
        std::vector<T> items;
        for (const std::string &item : splitList(text)) {
            const std::optional<T> v = p.parse(item);
            if (!v)
                return reject(p.rule, item);
            items.push_back(*v);
        }
        if (items.empty())
            return reject("needs at least one item", text);
        dst = std::move(items);
        return std::string();
    };
}

/** Store the text as given. */
Setter text(std::string &dst);

/** A switch: store `value` in `dst`. */
Setter toggle(bool &dst, bool value = true);

} // namespace diva::cli

#endif // DIVA_COMMON_CLI_H
