#include "common/format.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace diva
{

std::string
csvCell(std::string_view s)
{
    if (s.find_first_of(",\"\n") == std::string_view::npos)
        return std::string(s);
    std::string quoted = "\"";
    for (char c : s) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatDouble(double v)
{
    // Non-finite values never round-trip (nan != nan would drive the
    // precision loop to 17 digits) and %g spells them platform-
    // dependently; pin the text form.
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v < 0.0 ? "-inf" : "inf";
    // %.17g round-trips but is noisy; use the shortest precision that
    // parses back exactly, floored at 6 (the historical %g default).
    // The shortest-scientific form's mantissa length *is* that
    // precision -- correctly-rounded printf round-trips at any
    // precision >= it and at none below -- so one to_chars call
    // replaces the old snprintf/sscanf probe loop (which dominated
    // million-row CSV emission).
    char sci[64];
    const auto res =
        std::to_chars(sci, sci + sizeof(sci), v,
                      std::chars_format::scientific);
    int digits = 0;
    for (const char *c = sci; c != res.ptr && *c != 'e'; ++c)
        digits += *c >= '0' && *c <= '9';
    // to_chars with chars_format::general and a precision is defined
    // as printf's "%.*g", without printf's format parsing and locale.
    char buf[64];
    const auto out =
        std::to_chars(buf, buf + sizeof(buf), v,
                      std::chars_format::general, digits < 6 ? 6 : digits);
    return std::string(buf, out.ptr);
}

std::string
jsonNumber(double v)
{
    // JSON has no NaN/Infinity literals; emit null for non-finite.
    return std::isfinite(v) ? formatDouble(v) : "null";
}

void
RowWriter::operator()(const Column &c, const Cell &cell, bool inJson)
{
    const bool json = part_ == kJsonFields;
    const char *name = json ? c.json : c.csv;
    if (!name || (json && !inJson))
        return;
    out_ += sep_;
    sep_ = json ? ", " : ",";
    if (part_ == kCsvHeader) {
        out_ += name;
        return;
    }
    if (part_ == kCsvFailedRow) {
        out_ += c.failed ? std::string(c.failed) : csvCell(error_);
        return;
    }
    if (json)
        out_.append("\"").append(name).append("\": ");
    if (!cell.modeled) {
        out_ += json ? "null"
                : c.kind == ColumnKind::kReal ? "nan"
                : c.kind == ColumnKind::kText ? "-"
                                               : "";
        return;
    }
    DIVA_ASSERT(cell.kind == c.kind, "column '", name,
                "' read another kind of value");
    switch (c.kind) {
      case ColumnKind::kText:
        out_ += json ? '"' + jsonEscape(cell.text) + '"'
                     : csvCell(cell.text);
        break;
      case ColumnKind::kInteger:
        if (cell.negative)
            out_ += '-';
        out_ += std::to_string(cell.magnitude);
        break;
      case ColumnKind::kReal:
        out_ += json ? jsonNumber(cell.real) : formatDouble(cell.real);
        break;
      case ColumnKind::kFlag:
        out_ += json ? (cell.flag ? "true" : "false")
                     : (cell.flag ? "1" : "0");
        break;
    }
}

} // namespace diva
