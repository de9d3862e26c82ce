/**
 * @file
 * Machine-readable finding output shared by the analysis CLIs
 * (nord-lint, nord-statecheck).
 *
 * With --json each finding is printed as one JSON object per line
 * (JSON Lines), so CI can render annotations without scraping the
 * human-readable text:
 *
 *   {"file":"src/sim/kernel.hh","line":42,"rule":"unserialized-member",
 *    "severity":"error","message":"..."}
 *
 * Header-only and std-only: both CLIs build standalone, outside the nord
 * library, exactly like the lint engine itself.
 */

#ifndef NORD_VERIFY_FINDINGS_JSON_HH
#define NORD_VERIFY_FINDINGS_JSON_HH

#include <cstdio>
#include <string>

#include "common/json.hh"

namespace nord {

/** Print one finding as a JSON Lines record on stdout. */
inline void
printFindingJson(const std::string &file, int line,
                 const std::string &rule, const std::string &severity,
                 const std::string &message)
{
    // nord-lint-allow(stdio-side-channel): stdout IS this helper's
    // output channel -- it exists so the analysis CLIs emit findings.
    std::printf("{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\","
                "\"severity\":\"%s\",\"message\":\"%s\"}\n",
                jsonEscape(file).c_str(), line, jsonEscape(rule).c_str(),
                jsonEscape(severity).c_str(), jsonEscape(message).c_str());
}

}  // namespace nord

#endif  // NORD_VERIFY_FINDINGS_JSON_HH
