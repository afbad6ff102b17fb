/**
 * @file
 * Deterministic CSV and JSON emitters for serve results, mirroring the
 * sweep emitters: output is a pure function of the results (one CSV
 * row per tenant per serve run), doubles go through formatDouble /
 * jsonNumber so NaN renders as "nan" in CSV and null in JSON, and a
 * parallel-backed serve emits bytes identical to a serial one.
 *
 * A row is the serve's run-level cells followed by one tenant's; each
 * list of cells is declared once, in emit.cc, and renders through the
 * RowWriter of common/format.h.
 */

#ifndef DIVA_TENANT_EMIT_H
#define DIVA_TENANT_EMIT_H

#include <ostream>
#include <vector>

#include "tenant/serve.h"

namespace diva
{

/**
 * Emit header + one row per tenant per serve run. Failed runs emit a
 * single row of placeholder cells with the error column filled.
 */
void writeServeCsv(std::ostream &os,
                   const std::vector<ServeResult> &serves);

/** Emit the serve runs as one JSON document. */
void writeServeJson(std::ostream &os,
                    const std::vector<ServeResult> &serves);

} // namespace diva

#endif // DIVA_TENANT_EMIT_H
