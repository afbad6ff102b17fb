/**
 * @file
 * Deterministic CSV and JSON emitters for fleet results, mirroring the
 * serve emitters: output is a pure function of the result (one
 * per-tenant CSV with a row per session, one per-pod CSV with a row
 * per pod, one JSON document), doubles go through formatDouble /
 * jsonNumber so NaN renders as "nan" in CSV and null in JSON, and a
 * multi-threaded fleet run emits bytes identical to a serial one.
 * Cache accounting (plan hits/misses) never appears here, so reruns
 * against a warm disk cache stay byte-identical too.
 *
 * A row is the fleet's run-level cells followed by one session's or
 * one pod's; each list of cells is declared once, in emit.cc, and
 * renders through the RowWriter of common/format.h.
 */

#ifndef DIVA_FLEET_EMIT_H
#define DIVA_FLEET_EMIT_H

#include <ostream>

#include "fleet/engine.h"

namespace diva
{

/**
 * Emit header + one row per tenant session. A failed run emits a
 * single row of placeholder cells with the error column filled.
 */
void writeFleetTenantCsv(std::ostream &os, const FleetResult &fleet);

/** Emit header + one row per pod (same error-row convention). */
void writeFleetPodCsv(std::ostream &os, const FleetResult &fleet);

/**
 * Emit the fleet run as one JSON document: the fleet summary and the
 * per-pod reports, plus (with `includeTenants`) every per-tenant
 * record -- off by default because a million-session fleet's tenant
 * array dwarfs everything else.
 */
void writeFleetJson(std::ostream &os, const FleetResult &fleet,
                    bool includeTenants = false);

} // namespace diva

#endif // DIVA_FLEET_EMIT_H
