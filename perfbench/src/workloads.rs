//! The two in-process workload configs. Both use a DDR4-class geometry of
//! 16 banks × 32K rows, so per-row device state (tens of MB) overflows L2
//! and the settle kernel pays real memory traffic, as it would on the full
//! paper grid.

use rh_cli::SweepConfig;
use rh_core::{DataPattern, Geometry};

/// Activations per cell. Sized so one sweep takes a few seconds on two
/// threads: enough tREFW windows per cell that run coalescing and refresh
/// reach steady state, few enough that a run holds several sweeps.
const HAMMER_GRID_ACTIVATIONS: u64 = 400_000;
const FUTURE_CHIPS_ACTIVATIONS: u64 = 250_000;

fn ddr4_geometry() -> Geometry {
    Geometry {
        channels: 1,
        ranks: 1,
        banks: 16,
        rows_per_bank: 32_768,
    }
}

/// The sweep config of an in-process workload, with the sweep's root seed
/// taken from the benchmark's `--seed`.
pub fn config(workload: &str, seed: u64) -> Result<SweepConfig, String> {
    let base = SweepConfig {
        seed,
        geometry: ddr4_geometry(),
        ..SweepConfig::default()
    };
    match workload {
        // The paper's grid for today's chips: HC_first down to the 2k
        // region, single/double/2-16-sided attacks, every mitigation arm
        // plus the PARA sweep, pattern-agnostic victim model.
        "hammer_grid" => Ok(SweepConfig {
            activations: HAMMER_GRID_ACTIVATIONS,
            hc_firsts: vec![16_000, 8_000, 4_000, 2_000],
            sides: vec![2, 4, 8, 16],
            ..base
        }),
        // Section 8's projected chips: HC_first 1024 down to 128, an
        // 8-sided attack, three data patterns under on-die ECC.
        "future_chips" => Ok(SweepConfig {
            activations: FUTURE_CHIPS_ACTIVATIONS,
            hc_firsts: vec![1_024, 512, 256, 128],
            sides: vec![8],
            data_patterns: vec![
                DataPattern::Solid,
                DataPattern::Checkerboard,
                DataPattern::RowStripe,
            ],
            ecc_codeword_bits: 128,
            ..base
        }),
        other => Err(format!(
            "unknown in-process workload '{other}' (expected hammer_grid or future_chips)"
        )),
    }
}
