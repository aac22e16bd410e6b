// PSM-E: parallel OPS5 production-system engine.
//
// Umbrella header for the public API. See README.md for a tour and
// examples/ for runnable programs.
#pragma once

#include "analysis/network_analysis.hpp"  // IWYU pragma: export
#include "analysis/parallelism.hpp"       // IWYU pragma: export
#include "common/symbol_table.hpp"  // IWYU pragma: export
#include "common/value.hpp"         // IWYU pragma: export
#include "engine/engine.hpp"        // IWYU pragma: export
#include "obs/observability.hpp"    // IWYU pragma: export
#include "ops5/program.hpp"         // IWYU pragma: export
#include "rete/printer.hpp"         // IWYU pragma: export
#include "workloads/workloads.hpp"  // IWYU pragma: export
#include "world/batch_engine.hpp"   // IWYU pragma: export
