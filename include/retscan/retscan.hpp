#pragma once

/// retscan — umbrella header: the whole public surface in one include.
///
///   #include "retscan/retscan.hpp"
///
///   retscan::Session session(retscan::FifoSpec{32, 32}, protection);
///   retscan::CampaignResult r = session.run({.kind = ..., .seed = ...});
///
/// Fine-grained alternatives (identical contents, smaller closures):
/// netlist.hpp, coding.hpp, design.hpp, sim.hpp, test.hpp, parallel.hpp,
/// session.hpp, campaign.hpp, runtime.hpp, version.hpp.

#include "retscan/campaign.hpp"
#include "retscan/coding.hpp"
#include "retscan/design.hpp"
#include "retscan/netlist.hpp"
#include "retscan/parallel.hpp"
#include "retscan/runtime.hpp"
#include "retscan/session.hpp"
#include "retscan/sim.hpp"
#include "retscan/test.hpp"
#include "retscan/version.hpp"
