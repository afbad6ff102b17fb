/**
 * @file
 * Deterministic text formatting shared by every CSV/JSON emitter
 * (sweep, serve, fleet, arrival traces): shortest round-trippable
 * doubles with pinned nan/inf spellings, JSON number tokens that map
 * non-finite values to null, RFC-4180 CSV cell quoting, and JSON
 * string escaping. One definition here keeps the guards identical
 * across emitters instead of drifting per copy.
 *
 * It also holds the one writer of report rows (RowWriter): each row
 * type lists its columns once, and its CSV header, CSV row, failed-run
 * placeholder row and JSON fields all render from that list.
 */

#ifndef DIVA_COMMON_FORMAT_H
#define DIVA_COMMON_FORMAT_H

#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace diva
{

/**
 * Shortest round-trippable decimal form of a double ("0.25", "1e-06").
 * Non-finite values format as "nan" / "inf" / "-inf".
 */
std::string formatDouble(double v);

/** JSON number token for v: formatDouble, or "null" when non-finite. */
std::string jsonNumber(double v);

/** Quote a CSV-unsafe cell per RFC 4180; safe cells pass through. */
std::string csvCell(std::string_view s);

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(std::string_view s);

/** What a report column holds, which fixes how its cells render. */
enum class ColumnKind
{
    kText,    ///< CSV: csvCell; JSON: an escaped string
    kInteger, ///< decimal in both
    kReal,    ///< CSV: formatDouble; JSON: jsonNumber
    kFlag,    ///< CSV: 0 or 1; JSON: false or true
};

/** One column of a report row type. */
struct Column
{
    /** CSV header name; nullptr for a JSON-only column. */
    const char *csv;
    /** JSON key; nullptr for a CSV-only column. */
    const char *json;
    ColumnKind kind;
    /** A failed run's placeholder cell; nullptr prints the run's error. */
    const char *failed = nullptr;
};

/**
 * One row's value in a column. A default-constructed cell has none (a
 * metric the row's backend does not model, a session's pod before it
 * reached one): it renders as an empty CSV cell (integer, flag), `nan`
 * (real) or `-` (text), and as JSON null, never as a fake zero.
 */
struct Cell
{
    Cell() = default;
    Cell(std::string_view s)
        : kind(ColumnKind::kText), modeled(true), text(s) {}
    Cell(const char *s) : Cell(std::string_view(s)) {}
    Cell(const std::string &s) : Cell(std::string_view(s)) {}
    Cell(bool b) : kind(ColumnKind::kFlag), modeled(true), flag(b) {}
    Cell(double v) : kind(ColumnKind::kReal), modeled(true), real(v) {}
    template <std::integral T>
    Cell(T v)
        : kind(ColumnKind::kInteger), modeled(true),
          negative(std::cmp_less(v, 0)),
          magnitude(negative ? 0 - std::uint64_t(v) : std::uint64_t(v))
    {}

    ColumnKind kind = ColumnKind::kText;
    bool modeled = false;
    bool flag = false;
    bool negative = false;
    std::uint64_t magnitude = 0;
    double real = 0.0;
    /** A view of the row's own text: valid while the row is. */
    std::string_view text;
};

/**
 * The one writer of report rows. A row type lists its columns once,
 * as a function taking a writer and a row that calls the writer with
 * each column and the row's cell, in CSV order; the writer's part
 * picks what it appends. The CSV header and a failed run's
 * placeholder row read no cell, so they walk a default-constructed row.
 */
class RowWriter
{
  public:
    enum Part
    {
        kCsvHeader,    ///< the CSV names
        kCsvRow,       ///< the CSV cells
        kCsvFailedRow, ///< each column's placeholder, or `error`
        kJsonFields,   ///< `"key": value` pairs, without braces
    };

    RowWriter(std::string &out, Part part, std::string_view error = {})
        : out_(out), part_(part), error_(error)
    {}

    /**
     * Append column `c`'s part of the row, whose cell is `cell`; a row
     * whose JSON object leaves the column out passes `inJson` false.
     */
    void operator()(const Column &c, const Cell &cell, bool inJson = true);

  private:
    std::string &out_;
    Part part_;
    std::string_view error_;
    const char *sep_ = "";
};

/**
 * The CSV header of a per-run table, whose rows are a run's cells
 * (`runColumns`) followed by one of its items' (`itemColumns`).
 */
template <typename Run, typename Item>
std::string
runTableHeader(void (*runColumns)(RowWriter, const Run &),
               void (*itemColumns)(RowWriter, const Run &, const Item &))
{
    std::string out;
    runColumns(RowWriter(out, RowWriter::kCsvHeader), Run{});
    out += ',';
    itemColumns(RowWriter(out, RowWriter::kCsvHeader), Run{}, Item{});
    return out + '\n';
}

/**
 * Write `run`'s rows of a per-run table: one per item, or a failed
 * run's placeholder row. Rows append into one reused buffer, so a
 * million-item table costs no stream call per row.
 */
template <typename Run, typename Item>
void
writeRunRows(std::ostream &os, void (*runColumns)(RowWriter, const Run &),
             const Run &run,
             void (*itemColumns)(RowWriter, const Run &, const Item &),
             const std::vector<Item> &items)
{
    std::string prefix;
    runColumns(RowWriter(prefix, RowWriter::kCsvRow), run);
    prefix += ',';
    std::string buf;
    if (!run.ok()) {
        buf = prefix;
        itemColumns(RowWriter(buf, RowWriter::kCsvFailedRow, run.error),
                    run, Item{});
        os << buf << '\n';
        return;
    }
    for (const Item &item : items) {
        buf += prefix;
        itemColumns(RowWriter(buf, RowWriter::kCsvRow), run, item);
        buf += '\n';
        if (buf.size() > (1 << 20) - 1024) {
            os.write(buf.data(), std::streamsize(buf.size()));
            buf.clear();
        }
    }
    os.write(buf.data(), std::streamsize(buf.size()));
}

} // namespace diva

#endif // DIVA_COMMON_FORMAT_H
