#pragma once

/// retscan public surface — coding layer.
///
/// The behavioral codecs behind the state-monitoring blocks: CRC-16
/// signatures, Hamming / SEC-DED correction, MISR compaction, and the
/// chain-protector wrappers the behavioral validation tier runs on.

#include "coding/crc.hpp"        // Crc16
#include "coding/hamming.hpp"    // HammingCode
#include "coding/misr.hpp"       // Misr
#include "coding/protectors.hpp" // HammingChainProtector, CrcChainProtector
#include "coding/secded.hpp"     // SecDed
