#include "common/cli.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/format.h"

namespace diva::cli
{

namespace
{

/** Usage layout: help text starts at this column, wraps before 72. */
constexpr std::size_t kHelpColumn = 22;
constexpr std::size_t kWidth = 72;

const Flag *
findFlag(const FlagTable &table, const std::string &name)
{
    for (const FlagGroup &group : table)
        for (const Flag &flag : group.flags)
            if (flag.name == name)
                return &flag;
    return nullptr;
}

} // namespace

std::optional<int>
parseArgs(const std::string &tool, int argc, const char *const *argv,
          const FlagTable &table, std::ostream &out, std::ostream &err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(tool, table, out);
            return 0;
        }
        const Flag *flag = findFlag(table, arg);
        if (!flag) {
            err << tool << ": unknown option '" << arg
                << "' (see --help)\n";
            return 1;
        }
        std::string value;
        if (!flag->value.empty()) {
            if (i + 1 >= argc) {
                err << tool << ": " << arg << " needs a value\n";
                return 1;
            }
            value = argv[++i];
        }
        const std::string problem = flag->set(value);
        if (!problem.empty()) {
            err << tool << ": " << arg << " " << problem << "\n";
            return 1;
        }
    }
    return std::nullopt;
}

void
printUsage(const std::string &tool, const FlagTable &table,
           std::ostream &os)
{
    os << "usage: " << tool << " [options]\n";
    for (const FlagGroup &group : table) {
        os << "\n" << group.title << ":\n";
        for (const Flag &flag : group.flags) {
            std::string line = "  " + flag.name;
            if (!flag.value.empty())
                line += " " + flag.value;
            line.resize(std::max(line.size() + 2, kHelpColumn), ' ');
            bool bare = true; // no help word on this line yet
            std::istringstream words(flag.help);
            for (std::string word; words >> word;) {
                if (!bare && line.size() + 1 + word.size() > kWidth) {
                    os << line << "\n";
                    line.assign(kHelpColumn, ' ');
                    bare = true;
                }
                line += (bare ? "" : " ") + word;
                bare = false;
            }
            os << line << "\n";
        }
    }
    os << "\n  -h, --help          print this help and exit\n";
}

std::string
reject(const std::string &rule, const std::string &text)
{
    return rule + ", got '" + text + "'";
}

int
fail(const std::string &tool, const std::string &msg)
{
    std::cerr << tool << ": " << msg << "\n";
    return 1;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    for (std::string item; std::getline(ss, item, ',');)
        if (!item.empty())
            out.push_back(item);
    return out;
}

bool
writeOutputs(const std::string &tool, const std::vector<Output> &outputs)
{
    for (const Output &o : outputs) {
        if (o.path.empty()) {
            if (o.toStdout)
                o.write(std::cout);
            continue;
        }
        std::ofstream file(o.path);
        if (!file) {
            fail(tool, "cannot write " + o.path);
            return false;
        }
        o.write(file);
    }
    return true;
}

Parser<double>
real(double lo, bool orEqual, double hi)
{
    const std::string bound = formatDouble(lo);
    std::string rule =
        std::isinf(hi) ? std::string(orEqual ? "must be >= " : "must be > ") +
                             bound
                       : std::string("must be in ") + (orEqual ? "[" : "(") +
                             bound + ", " + formatDouble(hi) + "]";
    return {[lo, orEqual, hi](const std::string &text)
                -> std::optional<double> {
                const std::optional<double> v = parseDoubleText(text);
                if (v && (orEqual ? *v >= lo : *v > lo) && *v <= hi)
                    return v;
                return std::nullopt;
            },
            rule};
}

Setter
text(std::string &dst)
{
    return [&dst](const std::string &value) {
        dst = value;
        return std::string();
    };
}

Setter
toggle(bool &dst, bool value)
{
    return [&dst, value](const std::string &) {
        dst = value;
        return std::string();
    };
}

} // namespace diva::cli
