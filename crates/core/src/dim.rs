//! Dim-silicon sprinting: the under-clocked alternative.
//!
//! The paper's introduction notes that unpowered area can be run *dim* —
//! "either idle or significantly under-clocked" — instead of dark. The
//! natural competitor to fine-grained sprinting is therefore **dim
//! sprinting**: activate *all* cores, but scale V/f down until the chip
//! fits the same power envelope as the k-core nominal-V/f sprint.
//!
//! This module computes the matched operating point and the resulting
//! speedup so the trade-off can be evaluated per workload: parallel
//! scalable code may prefer many slow cores; anything with a serial
//! fraction or sync overheads prefers few fast ones (Amdahl + DVFS math).

use noc_power::chip::{ChipPowerModel, CoreState};
use noc_power::tech::{OperatingPoint, TechNode};
use noc_workload::profile::BenchmarkProfile;
use noc_workload::speedup::ExecutionModel;

/// Voltage/frequency scaling law: frequency tracks voltage roughly linearly
/// in the near-threshold-free region (f = fmax * (V / Vnom)).
fn freq_at(vdd: f64, tech: &TechNode, fmax_ghz: f64) -> f64 {
    fmax_ghz * (vdd / tech.vnom)
}

/// A dim operating configuration: all cores on at a reduced V/f.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimOperation {
    /// The matched operating point.
    pub op: OperatingPoint,
    /// Core power at this point (W, per core).
    pub core_power_w: f64,
    /// Slowdown factor versus nominal frequency (>= 1).
    pub slowdown: f64,
}

/// Computes dim-silicon configurations matched to fine-grained sprints.
///
/// ```
/// use noc_sprinting::dim::DimModel;
///
/// let m = DimModel::paper();
/// // An 8-core budget dims all 16 cores to a sub-nominal V/f point...
/// let dim = m.matched_dim_point(8).expect("feasible");
/// assert!(dim.op.freq_ghz < 2.0);
/// // ...but a 2-core budget cannot even cover 16 rails' leakage.
/// assert!(m.matched_dim_point(2).is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DimModel {
    /// Process node.
    pub tech: TechNode,
    /// Nominal frequency (GHz).
    pub fnom_ghz: f64,
    /// Chip power budget model.
    pub chip: ChipPowerModel,
    /// Total cores.
    pub cores: usize,
}

impl DimModel {
    /// The paper-system model: 16 cores, 2 GHz, 45 nm.
    pub fn paper() -> Self {
        DimModel {
            tech: TechNode::nm45(),
            fnom_ghz: 2.0,
            chip: ChipPowerModel::paper(),
            cores: 16,
        }
    }

    /// Core power (W) of one core at a reduced operating point: dynamic
    /// scales as `V² f`, leakage linearly with `V`; the nominal split is
    /// taken as 70% dynamic / 30% leakage at (Vnom, fnom).
    fn core_power_at(&self, op: &OperatingPoint) -> f64 {
        let p_nom = self.chip.core_power(CoreState::Active);
        let dyn_frac = 0.7;
        let dynamic = p_nom * dyn_frac * op.dynamic_scale(&self.tech, self.fnom_ghz);
        let leak = p_nom * (1.0 - dyn_frac) * op.leakage_scale(&self.tech);
        dynamic + leak
    }

    /// Finds the all-core dim operating point whose **total core power**
    /// matches a `k`-core full-speed sprint (binary search on V; f tracks
    /// V). Returns `None` if even the lowest practical near-threshold
    /// voltage (0.5 Vnom) cannot fit the budget — low sprint levels simply
    /// cannot be matched by dimming, because the leakage floor of sixteen
    /// powered cores exceeds the budget of a few gated-chip cores.
    pub fn matched_dim_point(&self, k: usize) -> Option<DimOperation> {
        assert!(k >= 1 && k <= self.cores, "sprint level out of range");
        let budget = k as f64 * self.chip.core_power(CoreState::Active)
            + (self.cores - k) as f64 * self.chip.core_power(CoreState::Gated);
        let power_at = |v: f64| {
            let op = OperatingPoint::new(v, freq_at(v, &self.tech, self.fnom_ghz));
            self.cores as f64 * self.core_power_at(&op)
        };
        let v_min = 0.5 * self.tech.vnom;
        if power_at(v_min) > budget {
            return None;
        }
        let (mut lo, mut hi) = (v_min, self.tech.vnom);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if power_at(mid) <= budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let op = OperatingPoint::new(lo, freq_at(lo, &self.tech, self.fnom_ghz));
        Some(DimOperation {
            op,
            core_power_w: self.core_power_at(&op),
            slowdown: self.fnom_ghz / op.freq_ghz,
        })
    }

    /// Speedup of dim sprinting (all cores at the matched V/f) over
    /// single-core nominal execution, for a workload: the parallel speedup
    /// at `cores` divided by the frequency slowdown. Returns `None` when no
    /// matched point exists.
    pub fn dim_speedup(&self, profile: &BenchmarkProfile, k: usize) -> Option<f64> {
        let dim = self.matched_dim_point(k)?;
        let model = ExecutionModel::new(*profile);
        Some(model.speedup(self.cores as u32) / dim.slowdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workload::profile::by_name;
    use noc_workload::speedup::OPTIMAL_TOLERANCE;

    #[test]
    fn matched_point_meets_budget() {
        let m = DimModel::paper();
        for k in [2usize, 4, 8, 12] {
            if let Some(dim) = m.matched_dim_point(k) {
                let total = 16.0 * dim.core_power_w;
                let budget = k as f64 * m.chip.core_power(CoreState::Active)
                    + (16 - k) as f64 * m.chip.core_power(CoreState::Gated);
                assert!(total <= budget * 1.001, "k={k}: {total} > {budget}");
                // And it uses most of the budget (binary search tight).
                assert!(
                    total >= budget * 0.95,
                    "k={k} wastes budget: {total} vs {budget}"
                );
            }
        }
    }

    #[test]
    fn tiny_budgets_are_infeasible() {
        // A 1-3 core budget cannot power 16 dim cores even near threshold:
        // the leakage floor of sixteen rails exceeds it.
        let m = DimModel::paper();
        assert!(m.matched_dim_point(1).is_none());
        assert!(m.matched_dim_point(3).is_none());
        assert!(m.matched_dim_point(4).is_some(), "4-core budget fits");
    }

    #[test]
    fn bigger_budget_means_faster_dim_cores() {
        let m = DimModel::paper();
        let d4 = m.matched_dim_point(4).expect("feasible");
        let d12 = m.matched_dim_point(12).expect("feasible");
        assert!(d12.op.freq_ghz > d4.op.freq_ghz);
        assert!(d12.slowdown < d4.slowdown);
    }

    #[test]
    fn serial_workloads_prefer_fine_grained_sprinting() {
        // freqmine: almost all serial — 16 slow cores are much worse than
        // a few fast ones at the same (4-core) power budget.
        let m = DimModel::paper();
        let freqmine = by_name("freqmine").unwrap();
        let model = ExecutionModel::new(freqmine);
        let k = 4;
        let fine = model.speedup(k as u32);
        let dim = m.dim_speedup(&freqmine, k).expect("feasible");
        assert!(
            fine > 1.5 * dim,
            "fine-grained {fine} should dominate dim {dim} on serial code"
        );
    }

    #[test]
    fn peak_then_degrade_also_prefers_fine_grained() {
        // swaptions pays oversubscription at 16 threads regardless of
        // frequency, so dim sprinting loses twice.
        let m = DimModel::paper();
        let swaptions = by_name("swaptions").unwrap();
        let model = ExecutionModel::new(swaptions);
        let k = model.optimal_cores(16, OPTIMAL_TOLERANCE).max(4) as usize;
        let fine = model.speedup(k as u32);
        let dim = m.dim_speedup(&swaptions, k).expect("feasible");
        assert!(fine > dim);
    }

    #[test]
    fn scalable_workloads_narrow_the_gap() {
        // blackscholes scales; dim sprinting is competitive there (the gap
        // versus fine-grained at the same budget is small).
        let m = DimModel::paper();
        let bs = by_name("blackscholes").unwrap();
        let model = ExecutionModel::new(bs);
        let k = 8; // a mid-level power budget
        let fine = model.speedup(k as u32);
        let dim = m.dim_speedup(&bs, k).expect("feasible");
        assert!(
            dim > 0.5 * fine,
            "dim {dim} should be within 2x of fine-grained {fine} on scalable code"
        );
    }
}
