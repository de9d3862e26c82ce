/**
 * @file
 * Registry of shipped configurations for the verify matrix.
 *
 * Every configuration the examples and benches instantiate is derived from
 * NocConfig defaults plus a (design, mesh shape) choice; this registry
 * enumerates that matrix so nord-verify (and the ctest entry
 * nord_verify_all) can prove properties for *all* shipped operating points
 * rather than whatever subset a test happens to construct.
 */

#ifndef NORD_VERIFY_STATIC_CONFIG_REGISTRY_HH
#define NORD_VERIFY_STATIC_CONFIG_REGISTRY_HH

#include <string>
#include <vector>

#include "network/noc_config.hh"

namespace nord {

/** A named configuration in the shipped matrix. */
struct NamedConfig
{
    std::string name;   ///< e.g. "nord-4x4"
    NocConfig config;
};

/** A config with the given design and mesh shape, defaults otherwise. */
NocConfig makeShippedConfig(PgDesign design, int rows, int cols);

/** Parse a design name ("nopg", "convpg", "convpgopt", "nord").
 *  Returns false when @p name is unknown. */
bool parseDesignName(const std::string &name, PgDesign *out);

/** The shipped matrix: all four designs x {4x4, 8x8}. */
std::vector<NamedConfig> shippedConfigs();

}  // namespace nord

#endif  // NORD_VERIFY_STATIC_CONFIG_REGISTRY_HH
