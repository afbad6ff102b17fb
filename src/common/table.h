/**
 * @file
 * Lightweight text-table formatter used by the benchmark harness to
 * print paper-style tables and figure series.
 */

#ifndef DIVA_COMMON_TABLE_H
#define DIVA_COMMON_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace diva
{

/**
 * A simple column-aligned text table. Rows are added as vectors of
 * preformatted cells; print() pads every column to its widest cell.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a data row; short rows are padded with empty cells. */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator row. */
    void addSeparator();

    /** Render the table to the stream. */
    void print(std::ostream &os) const;

    /** Number of data rows (separators excluded). */
    std::size_t numRows() const { return numDataRows_; }

    /** Format a double with the given precision. */
    static std::string fmt(double v, int precision = 2);

    /** Format a value as a multiplier, e.g. "3.60x". */
    static std::string fmtX(double v, int precision = 2);

    /** Format a percentage, e.g. "42.1%". */
    static std::string fmtPct(double v, int precision = 1);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
    std::size_t numDataRows_ = 0;

    static const std::string kSeparatorTag;
};

} // namespace diva

#endif // DIVA_COMMON_TABLE_H
