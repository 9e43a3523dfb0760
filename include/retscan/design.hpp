#pragma once

/// retscan public surface — protected-design layer.
///
/// The reliability-aware synthesis step (Fig. 4 of the paper) and its
/// products: ProtectedDesign (retention scan chains + monitoring /
/// correction blocks + test concatenation), the retention-session drivers
/// that run the Fig. 3(b) power-gating protocol, the design-space
/// synthesizer, the error injectors and the electrical corruption models.

#include "core/protected_design.hpp" // ProtectionConfig, ProtectedDesign, sessions
#include "core/synthesizer.hpp"      // ReliabilitySynthesizer, CostRow
#include "inject/injector.hpp"       // ErrorInjector, ErrorLocation
#include "power/corruption.hpp"      // CorruptionModel, CorruptionParameters
#include "power/pg_fsm.hpp"          // PgControllerFsm, PgState
#include "power/recovery.hpp"        // RecoveryAnalyzer, RecoveryCosts
#include "power/rush_current.hpp"    // RushCurrentModel, RushParameters
#include "scan/scan_insert.hpp"      // ScanChains, TestModeConfig
#include "scan/scan_io.hpp"          // scan_snapshot, scan_restore
