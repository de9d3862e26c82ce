/**
 * @file
 * Static configuration lint: the diagnosing counterpart of
 * NocConfig::validate().
 *
 * validate() is a hard gate -- it NORD_FATALs the process on the first
 * inconsistency, which is the right behavior at simulator startup but
 * useless for a verification CLI that should enumerate *all* problems of a
 * proposed configuration and keep going. Both read the same rule list,
 * NocConfig::problems() (mesh shape, VC partition and NoRD's dateline
 * requirement, buffer/allocation assumptions, wakeup window, threshold
 * and guard values, audit and fault settings), so a config this lint
 * calls clean is one the simulator accepts. On top of that list the lint
 * adds the structural check validate() deliberately skips because it
 * costs a mesh and a ring: the canonical bypass ring must be a
 * Hamiltonian cycle over mesh links (lintRingOrder(), usable on orders
 * the BypassRing constructor would fatally reject).
 */

#ifndef NORD_VERIFY_STATIC_CONFIG_LINT_HH
#define NORD_VERIFY_STATIC_CONFIG_LINT_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "network/noc_config.hh"

namespace nord {

class MeshTopology;

/** Outcome of a lint pass: empty problems == clean. */
struct LintResult
{
    std::vector<std::string> problems;

    bool ok() const { return problems.empty(); }
    std::string summary() const;
};

/** NocConfig::problems() plus the canonical-ring check (never aborts,
 *  unlike validate()). */
LintResult lintConfig(const NocConfig &config);

/**
 * Lint a proposed bypass-ring node order for @p mesh: Hamiltonian (every
 * node exactly once), every consecutive hop a mesh link, and the order
 * closes into a cycle. Safe to call on orders BypassRing would reject.
 */
LintResult lintRingOrder(const MeshTopology &mesh,
                         const std::vector<NodeId> &order);

}  // namespace nord

#endif  // NORD_VERIFY_STATIC_CONFIG_LINT_HH
