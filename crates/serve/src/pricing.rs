//! Pricing one micro-batch against the `recsim-hw` memory hierarchy.
//!
//! The serving knee comes from three terms with very different scales:
//!
//! * a fixed per-batch overhead (kernel launches, batching bookkeeping) —
//!   the term batching amortizes,
//! * per-example dense compute (bottom MLP, interaction, top MLP) on the
//!   accelerator's sustained FLOP rate,
//! * per-lookup embedding traffic, split by the cache: a *hit* pays one
//!   random-access row read from HBM, a *miss* pays the host DDR read
//!   plus a PCIe message to bring the row over.
//!
//! The closed form prices everything from the `recsim-hw` presets, so the
//! experiment driver and the CLI are self-contained and deterministic.

use recsim_data::ModelConfig;
use recsim_hw::device::v100;
use recsim_hw::memory::{ddr4_dual_socket, hbm2_v100, AccessPattern};
use recsim_hw::units::{Bytes, Flops};
use recsim_hw::Link;

/// Per-batch latency coefficients, all in virtual microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed cost per batch: kernel launches + batching bookkeeping.
    pub batch_overhead_us: f64,
    /// Dense forward compute per example.
    pub per_example_us: f64,
    /// One cached row: HBM random-access read.
    pub hit_us_per_lookup: f64,
    /// One missed row: host DDR random read + a PCIe message.
    pub miss_us_per_lookup: f64,
}

/// Kernel launches per forward pass the fixed overhead charges for
/// (bottom MLP, gathers, interaction, top MLP, sigmoid — a small constant).
const LAUNCHES_PER_BATCH: f64 = 12.0;

impl LatencyModel {
    /// Prices the model's forward pass on a V100-class device with host
    /// DDR behind PCIe 3 — the Big Basin inference slice.
    pub fn closed_form(model: &ModelConfig) -> Self {
        let device = v100(Bytes::from_gib(16));
        let hbm = hbm2_v100(Bytes::from_gib(16));
        let host = ddr4_dual_socket();
        let pcie = Link::pcie3_x16();
        let row = Bytes::new(model.row_bytes());

        let flops = Flops::new(model.forward_flops_per_example());
        let per_example_us = device
            .sustained_flop_rate()
            .execution_time(flops)
            .as_micros();
        let batch_overhead_us = device.kernel_overhead().as_micros() * LAUNCHES_PER_BATCH;
        let hit_us_per_lookup = hbm.access_time(row, AccessPattern::Random).as_micros();
        let miss_us_per_lookup = host.access_time(row, AccessPattern::Random).as_micros()
            + pcie.transfer_time(row, 1).as_micros();
        Self {
            batch_overhead_us,
            per_example_us,
            hit_us_per_lookup,
            miss_us_per_lookup,
        }
    }

    /// Service time of one micro-batch, microseconds.
    pub fn batch_us(&self, batch_size: usize, hits: u64, misses: u64) -> f64 {
        self.batch_overhead_us
            + self.per_example_us * batch_size as f64
            + self.hit_us_per_lookup * hits as f64
            + self.miss_us_per_lookup * misses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelConfig {
        ModelConfig::test_suite(8, 4, 65_536, &[64, 32])
    }

    #[test]
    fn misses_cost_more_than_hits() {
        let m = LatencyModel::closed_form(&model());
        assert!(m.miss_us_per_lookup > m.hit_us_per_lookup * 5.0);
        assert!(m.batch_overhead_us > 0.0);
        assert!(m.per_example_us > 0.0);
    }

    #[test]
    fn batching_amortizes_overhead() {
        let m = LatencyModel::closed_form(&model());
        let single = m.batch_us(1, 8, 0);
        let batched = m.batch_us(32, 256, 0) / 32.0;
        assert!(
            batched < single,
            "per-example batched {batched} vs single {single}"
        );
    }
}
