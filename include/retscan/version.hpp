#pragma once

/// retscan public API version. Mirrors the CMake project(VERSION) and the
/// retscanConfigVersion.cmake compatibility file; bump all three together.
/// The public surface is everything reachable from the include/retscan/ tree —
/// internals under src/ (installed as retscan/detail/) carry no stability
/// promise.

#define RETSCAN_VERSION_MAJOR 14
#define RETSCAN_VERSION_MINOR 0
#define RETSCAN_VERSION_PATCH 0
#define RETSCAN_VERSION_STRING "14.0.0"

/// Single comparable number: major * 10000 + minor * 100 + patch, so
/// `#if RETSCAN_VERSION_NUMBER >= 20100` gates on "2.1.0 or later".
#define RETSCAN_VERSION_NUMBER                                  \
  (RETSCAN_VERSION_MAJOR * 10000 + RETSCAN_VERSION_MINOR * 100 + \
   RETSCAN_VERSION_PATCH)

namespace retscan {

constexpr int kVersionMajor = RETSCAN_VERSION_MAJOR;
constexpr int kVersionMinor = RETSCAN_VERSION_MINOR;
constexpr int kVersionPatch = RETSCAN_VERSION_PATCH;

/// "14.0.0" — the canonical version string (also printed by `retscan
/// --version`).
constexpr const char* version_string() noexcept { return RETSCAN_VERSION_STRING; }

}  // namespace retscan
