#pragma once

/// retscan public surface — simulation layer.
///
/// The compiled simulation core and its two facades: the scalar Simulator
/// (debug/VCD-friendly) and the 64-lane PackedSim batch engine, plus VCD
/// dumping and the bit-vector / RNG utilities their APIs traffic in.
/// A Session (retscan/session.hpp) picks among these automatically; include
/// this directly only to drive a simulator by hand.

#include "sim/artifact_store.hpp"   // CompiledArtifactStore (warm starts)
#include "sim/compiled_netlist.hpp" // CompiledNetlist (shared compiled core)
#include "sim/packed_sim.hpp"       // PackedSim, LaneWord, lane helpers
#include "sim/simulator.hpp"        // Simulator
#include "sim/vcd.hpp"              // VcdWriter
#include "util/bitvec.hpp"          // BitVec
#include "util/lfsr.hpp"            // Lfsr
#include "util/rng.hpp"             // Rng
