// Network payload of the Majority-Rule baseline (Wolff & Schuster,
// ICDM'03). Split out of majority_rule.hpp so the simulation engine's typed
// Payload variant (sim/payload.hpp) can name the protocol's closed message
// set without pulling in the resource/engine machinery.
#pragma once

#include <memory>

#include "arm/candidates.hpp"
#include "majority/scalable_majority.hpp"

namespace kgrid::majority {

/// One Scalable-Majority message, tagged by the vote instance it belongs to.
/// The candidate is the sending instance's shared copy, so a message stays
/// small in its event slot and never allocates for it; on the wire it
/// travels in full (net/wire).
struct RuleMessage {
  std::shared_ptr<const arm::Candidate> candidate;
  VotePair vote;
};

}  // namespace kgrid::majority
