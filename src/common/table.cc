#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace diva
{

const std::string TextTable::kSeparatorTag = "\x01--";

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    cells.resize(header_.size());
    rows_.push_back(std::move(cells));
    ++numDataRows_;
}

void
TextTable::addSeparator()
{
    rows_.push_back({kSeparatorTag});
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        if (!row.empty() && row[0] == kSeparatorTag)
            continue;
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto printRule = [&]() {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            os << '+' << std::string(widths[c] + 2, '-');
        }
        os << "+\n";
    };
    auto printCells = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            os << "| " << std::left << std::setw(int(widths[c])) << cell
               << ' ';
        }
        os << "|\n";
    };

    printRule();
    printCells(header_);
    printRule();
    for (const auto &row : rows_) {
        if (!row.empty() && row[0] == kSeparatorTag)
            printRule();
        else
            printCells(row);
    }
    printRule();
}

std::string
TextTable::fmt(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

std::string
TextTable::fmtX(double v, int precision)
{
    return fmt(v, precision) + "x";
}

std::string
TextTable::fmtPct(double v, int precision)
{
    return fmt(v * 100.0, precision) + "%";
}

} // namespace diva
