//! End-to-end experiment runners: each method reproduces the measurement
//! behind one of the paper's evaluation figures by wiring the cycle-level
//! simulator, the power models and the thermal models together.

use noc_power::chip::{ChipPowerModel, CoreState};
use noc_power::link::LinkPowerModel;
use noc_power::router::{RouterConfig, RouterPowerModel};
use noc_power::tech::{OperatingPoint, TechNode};
use noc_sim::error::SimError;
use noc_sim::network::{GatingMode, Network};
use noc_sim::probe::Probe;
use noc_sim::routing::{CirculantRouting, RoutingFunction, XyRouting};
use noc_sim::sim::{SimConfig, SimOutcome, Simulation};
use noc_sim::topology::{Topo, TopologySpec};
use noc_sim::traffic::{BurstSchedule, Placement, TrafficGen, TrafficPattern};
use noc_thermal::grid::{TemperatureField, ThermalGrid};
use noc_thermal::sprint::SprintThermalModel;
use noc_workload::profile::BenchmarkProfile;
use noc_workload::speedup::ExecutionModel;
use rand::SeedableRng;

use std::sync::Arc;

use crate::cdor::CdorRouting;
use crate::config::SystemConfig;
use crate::controller::{SprintController, SprintPolicy};
use crate::floorplan::Floorplan;
use crate::gating::GatingPlan;
use crate::metrics::StageBusyTotals;
use crate::runner::{SyntheticBaseline, SyntheticJob};
use crate::sprint_topology::SprintSet;

/// Network performance/power metrics of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkMetrics {
    /// Mean end-to-end packet latency (cycles).
    pub avg_packet_latency: f64,
    /// Mean network (head-injection to delivery) latency (cycles).
    pub avg_network_latency: f64,
    /// Total network power: routers + links, dynamic + leakage (W).
    pub network_power: f64,
    /// Accepted throughput (flits/cycle/node over participating nodes).
    pub accepted_throughput: f64,
    /// Whether the operating point saturated.
    pub saturated: bool,
}

impl NetworkMetrics {
    /// The latency, throughput and saturation figures of `outcome`, with
    /// its separately priced `network_power`.
    fn of(outcome: &SimOutcome, network_power: f64) -> Self {
        NetworkMetrics {
            avg_packet_latency: outcome.stats.avg_packet_latency(),
            avg_network_latency: outcome.stats.avg_network_latency(),
            network_power,
            accepted_throughput: outcome.stats.accepted_throughput(),
            saturated: outcome.stats.saturated,
        }
    }
}

/// Floorplanning variants compared in Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalVariant {
    /// All 16 tiles sprint (Fig. 12a).
    FullSprinting,
    /// Fine-grained sprint on the logical (identity) floorplan (Fig. 12b).
    FineGrained,
    /// Fine-grained sprint with the thermal-aware floorplan (Fig. 12c).
    FineGrainedFloorplanned,
}

/// The experiment harness: system configuration plus all models.
#[derive(Debug)]
pub struct Experiment {
    /// System configuration (Table 1).
    pub system: SystemConfig,
    /// Sprint controller.
    pub controller: SprintController,
    /// Router power model.
    pub router_power: RouterPowerModel,
    /// Link power model (unit-length hop).
    pub link_power: LinkPowerModel,
    /// Chip power model.
    pub chip_power: ChipPowerModel,
    /// Lumped sprint thermal model.
    pub sprint_thermal: SprintThermalModel,
    /// Operating point during sprints.
    pub op: OperatingPoint,
    /// Simulation phases.
    pub sim_config: SimConfig,
    /// Per-pipeline-stage busy-cycle totals, folded in after every network
    /// run. Shared so the sweep service can export them as gauges.
    pub stage_totals: Arc<StageBusyTotals>,
}

impl Experiment {
    /// The paper's full evaluation setup.
    pub fn paper() -> Self {
        Experiment {
            system: SystemConfig::paper(),
            controller: SprintController::paper(),
            router_power: RouterPowerModel::new(TechNode::nm45(), RouterConfig::paper()),
            link_power: LinkPowerModel::paper(),
            chip_power: ChipPowerModel::paper(),
            sprint_thermal: SprintThermalModel::paper(),
            op: OperatingPoint::nominal(),
            sim_config: SimConfig::sweep(),
            stage_totals: Arc::new(StageBusyTotals::new()),
        }
    }

    /// A faster configuration for tests and examples.
    pub fn quick() -> Self {
        Experiment {
            sim_config: SimConfig::quick(),
            ..Self::paper()
        }
    }

    // ------------------------------------------------------------------
    // Network experiments (Figs. 9, 10, 11)
    //
    // Every network operating point is a `SyntheticJob` run by `run_job`:
    // Fig. 11's load sweep directly, and each PARSEC point of Figs. 9 and
    // 10 as the job pair that `policy_jobs` maps a benchmark to. Only
    // `run_network_reactive` varies what a job does not carry (reactive
    // gating, bursts).
    // ------------------------------------------------------------------

    /// Runs one synthetic operating point and hands back its simulation
    /// outcome with the priced metrics. This is the one place a
    /// [`SyntheticJob`]'s baseline becomes a placement, sprint region and
    /// per-node rate, on any topology (see TOPOLOGY.md):
    ///
    /// - `NocSprinting`: the `level`-node sprint region grown from the
    ///   master (convex on a mesh, an arc on a circulant), routed inside it
    ///   with everything outside gated;
    /// - `RandomEndpoints`: the `level` endpoints placed randomly on the
    ///   fully powered network (the paper averages ten such samples via
    ///   distinct seeds);
    /// - `SpreadAggregate`: the paper's "full-sprinting spreads the **same
    ///   amount of traffic** among a fixed fully-functional network" — all
    ///   `N` nodes inject at `rate * level / N`.
    ///
    /// `probe` observes the run without perturbing it.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] on a mesh topology other than the
    /// configured mesh, a degenerate circulant or a level outside
    /// `1..=N`; otherwise propagates simulator errors.
    pub fn run_job(
        &self,
        job: &SyntheticJob,
        probe: Option<&mut (dyn Probe + '_)>,
    ) -> Result<(NetworkMetrics, SimOutcome), SimError> {
        let mesh = self.mesh_spec();
        if job.topology.is_mesh() && job.topology != mesh {
            return Err(SimError::InvalidConfig(format!(
                "topology {} does not match the configured mesh {}",
                job.topology.wire_name(),
                mesh.wire_name()
            )));
        }
        let topo = job
            .topology
            .build()
            .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        // Jobs arrive over the wire: an impossible level is the client's
        // error, not a reason for the daemon to panic.
        if !(1..=topo.len()).contains(&job.level) {
            return Err(SimError::InvalidConfig(format!(
                "sprint level {} outside 1..={}",
                job.level,
                topo.len()
            )));
        }
        let (placement, region, rate) = match job.baseline {
            SyntheticBaseline::NocSprinting => {
                let set = SprintSet::on(topo.clone(), self.controller.master(), job.level);
                let placement = Placement::new(set.active_nodes().to_vec(), topo.as_dyn())?;
                (placement, Some(set), job.rate)
            }
            SyntheticBaseline::RandomEndpoints => {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(job.seed ^ 0x9e37_79b9_7f4a_7c15);
                let placement = Placement::random(job.level, topo.as_dyn(), &mut rng);
                (placement, None, job.rate)
            }
            SyntheticBaseline::SpreadAggregate => {
                let rate = job.rate * job.level as f64 / topo.len() as f64;
                (Placement::full(topo.as_dyn()), None, rate)
            }
        };
        let traffic = TrafficGen::new(
            job.pattern,
            placement,
            rate,
            self.system.packet_len,
            job.seed,
        )?;
        self.simulate(topo, region.as_ref(), traffic, probe)
    }

    /// The configured mesh as a topology spec.
    fn mesh_spec(&self) -> TopologySpec {
        TopologySpec::Mesh {
            width: self.system.mesh_width,
            height: self.system.mesh_height,
        }
    }

    /// Core of every structurally gated run: builds the network on `topo`,
    /// simulates `traffic`, and prices power by powered resources. With a
    /// sprint `region` the network routes inside it (CDOR on a mesh,
    /// in-arc on a circulant) and gates everything outside; without one
    /// it routes over the whole powered network (XY on a mesh, chord-first
    /// on a circulant).
    fn simulate(
        &self,
        topo: Topo,
        region: Option<&SprintSet>,
        traffic: TrafficGen,
        probe: Option<&mut (dyn Probe + '_)>,
    ) -> Result<(NetworkMetrics, SimOutcome), SimError> {
        let on_mesh = topo.as_mesh().is_some();
        let routing: Box<dyn RoutingFunction> = match region {
            Some(set) if on_mesh => Box::new(CdorRouting::new(set)),
            Some(set) => Box::new(CirculantRouting::on_arc(set.mask().to_vec())),
            None if on_mesh => Box::new(XyRouting),
            None => Box::new(CirculantRouting::full()),
        };
        let mut net = Network::with_topology(topo.clone(), self.system.router, routing)?;
        let powered_links = match region {
            Some(set) => {
                net.set_power_mask(set.mask());
                GatingPlan::from_sprint_set(set).links_on().len()
            }
            None => topo.num_directed_links(),
        };
        let powered_routers = net.powered_on_count();
        net.set_counting(false);
        let outcome = Simulation::new(net, traffic, self.sim_config).run_observed(probe)?;
        self.stage_totals.record(&outcome.stage_cycles);
        let power = self.network_power_of(&outcome, powered_routers, powered_links);
        Ok((NetworkMetrics::of(&outcome, power), outcome))
    }

    /// Runs `level` compact sprint nodes under **reactive** router gating
    /// (the traffic-driven alternative of §2): the whole mesh is nominally
    /// powered, but each router self-gates after `idle_threshold` idle
    /// cycles and pays `wakeup_latency` on the next arrival. Supports an
    /// on/off [`BurstSchedule`] to model sporadic computation.
    ///
    /// Power pricing credits each router's leakage+clock by its asleep
    /// fraction and charges wakeup energy per wake event; link drivers stay
    /// powered (router parking gates routers, not wires).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run_network_reactive(
        &self,
        level: usize,
        pattern: TrafficPattern,
        rate: f64,
        idle_threshold: u64,
        wakeup_latency: u64,
        bursts: Option<BurstSchedule>,
        seed: u64,
    ) -> Result<NetworkMetrics, SimError> {
        let mesh = self.system.mesh();
        let set = SprintSet::new(mesh, self.controller.master(), level);
        let placement = Placement::new(set.active_nodes().to_vec(), &mesh)?;
        let mut net = Network::new(mesh, self.system.router, Box::new(XyRouting))?;
        net.set_gating_mode(GatingMode::Reactive {
            idle_threshold,
            wakeup_latency,
        });
        let mut traffic = TrafficGen::new(pattern, placement, rate, self.system.packet_len, seed)?;
        if let Some(b) = bursts {
            traffic = traffic.with_bursts(b);
        }
        let outcome = Simulation::new(net, traffic, self.sim_config).run()?;
        self.stage_totals.record(&outcome.stage_cycles);
        Ok(NetworkMetrics::of(
            &outcome,
            self.network_power_reactive(&outcome),
        ))
    }

    /// Prices a reactive-gating outcome: dynamic power from activity,
    /// per-router static power scaled by awake fraction, plus wakeup
    /// energy; link leakage stays (wires are not parked).
    fn network_power_reactive(&self, outcome: &SimOutcome) -> f64 {
        let cycles = outcome.stats.measure_cycles.max(1);
        let window_s = cycles as f64 * self.op.cycle_seconds();
        let p = self
            .router_power
            .power_from_activity(&self.op, &outcome.activity, cycles);
        let router_dynamic = p.dynamic.total() - p.dynamic.clock;
        let static_per_router = p.leakage.total() + p.dynamic.clock;
        let wake_energy = noc_power::gating::GatingParams::paper_router().wakeup_energy_j;
        let mut router_static = 0.0;
        let mut wake_power = 0.0;
        for &(sleep_cycles, wakeups) in &outcome.sleep_stats {
            let awake_frac = 1.0 - (sleep_cycles.min(cycles) as f64 / cycles as f64);
            router_static += static_per_router * awake_frac;
            wake_power += wakeups as f64 * wake_energy / window_s;
        }
        let mesh = self.system.mesh();
        let link_dynamic = outcome.activity.link_flits as f64
            * self.link_power.energy_per_flit(&self.op)
            / window_s;
        let link_static = self.link_power.leakage(&self.op) * mesh.num_directed_links() as f64;
        router_dynamic + router_static + wake_power + link_dynamic + link_static
    }

    /// Prices a simulation outcome: dynamic power from activity counters,
    /// leakage for every *powered* router and link.
    fn network_power_of(
        &self,
        outcome: &SimOutcome,
        powered_routers: usize,
        powered_links: usize,
    ) -> f64 {
        let cycles = outcome.stats.measure_cycles.max(1);
        let p = self
            .router_power
            .power_from_activity(&self.op, &outcome.activity, cycles);
        // `power_from_activity` includes clock + leakage for ONE router;
        // scale the static parts by the powered count.
        let router_dynamic = p.dynamic.total() - p.dynamic.clock;
        let router_static = (p.leakage.total() + p.dynamic.clock) * powered_routers as f64;
        let window_s = cycles as f64 * self.op.cycle_seconds();
        let link_dynamic = outcome.activity.link_flits as f64
            * self.link_power.energy_per_flit(&self.op)
            / window_s;
        let link_static = self.link_power.leakage(&self.op) * powered_links as f64;
        router_dynamic + router_static + link_dynamic + link_static
    }

    // ------------------------------------------------------------------
    // Core power (Fig. 8)
    // ------------------------------------------------------------------

    /// Time-weighted core-subsystem power for a benchmark under a policy
    /// (W): during the serial phase one sprint core works while the others
    /// idle; during parallel execution all `k` work; non-sprint cores are
    /// idle or gated according to the policy.
    pub fn core_power(&self, policy: SprintPolicy, bench: &BenchmarkProfile) -> f64 {
        let n = self.system.core_count as usize;
        let k = self.controller.sprint_level(policy, bench) as usize;
        let model = ExecutionModel::new(*bench);
        let bd = model.breakdown(k as u32);
        let inactive = if policy.gates_inactive_resources() {
            CoreState::Gated
        } else {
            CoreState::Idle
        };
        let p_active = self.chip_power.core_power(CoreState::Active);
        let p_idle = self.chip_power.core_power(CoreState::Idle);
        let p_inactive = self.chip_power.core_power(inactive);
        let outside = (n - k) as f64 * p_inactive;
        let p_serial = p_active + (k as f64 - 1.0) * p_idle + outside;
        let p_parallel = k as f64 * p_active + outside;
        (bd.serial * p_serial + bd.parallel * p_parallel) / bd.total()
    }

    /// Total chip power during the sprint (cores + L2 + NoC + MC + other),
    /// for the thermal-duration analysis (§4.4).
    pub fn chip_sprint_power(&self, policy: SprintPolicy, bench: &BenchmarkProfile) -> f64 {
        let n = self.system.core_count as usize;
        let k = self.controller.sprint_level(policy, bench) as usize;
        let inactive = if policy.gates_inactive_resources() {
            CoreState::Gated
        } else {
            CoreState::Idle
        };
        // Policies that gate inactive resources (NoC-sprinting, and nominal
        // operation under the NoC-sprinting architecture) also gate the
        // unused network nodes; the conventional baselines keep it all on.
        let noc_nodes_on = if policy.gates_inactive_resources() {
            k
        } else {
            n
        };
        let mut b = self
            .chip_power
            .sprint_breakdown(n, k, inactive, noc_nodes_on);
        // Replace the instantaneous core term with the time-weighted one.
        b.cores = self.core_power(policy, bench);
        b.total()
    }

    // ------------------------------------------------------------------
    // Thermal experiments (Figs. 1, 12; §4.4)
    // ------------------------------------------------------------------

    /// Per-logical-tile power for a sprint level under a variant.
    pub fn tile_powers(&self, variant: ThermalVariant, level: usize) -> Vec<f64> {
        let n = self.system.core_count as usize;
        let set = SprintSet::new(self.system.mesh(), self.controller.master(), level);
        (0..n)
            .map(|i| {
                let node = noc_sim::geometry::NodeId(i);
                let on = match variant {
                    ThermalVariant::FullSprinting => true,
                    _ => set.is_active(node),
                };
                let state = if on {
                    CoreState::Active
                } else {
                    CoreState::Gated
                };
                self.chip_power.tile_power(state, on)
            })
            .collect()
    }

    /// Steady-state heat map for one Fig. 12 variant at a sprint level.
    pub fn heatmap(&self, variant: ThermalVariant, level: usize) -> TemperatureField {
        let mesh = self.system.mesh();
        let grid = ThermalGrid::new(
            usize::from(mesh.width()),
            usize::from(mesh.height()),
            noc_thermal::grid::GridParams::paper_16block(),
        );
        let logical = self.tile_powers(variant, level);
        let power = match variant {
            ThermalVariant::FineGrainedFloorplanned => {
                let set = SprintSet::new(self.system.mesh(), self.controller.master(), level);
                Floorplan::thermal_aware(&set).physical_power(&logical)
            }
            _ => logical,
        };
        grid.steady_state(&power)
    }

    /// Sprint duration until thermal shutdown under a policy (s).
    pub fn sprint_duration(&self, policy: SprintPolicy, bench: &BenchmarkProfile) -> f64 {
        self.sprint_thermal
            .sprint_duration(self.chip_sprint_power(policy, bench))
    }

    /// Chip power of a `level`-core NoC-sprinting configuration running
    /// `bench`, with time-weighted core accounting (W).
    pub fn chip_power_at_level(&self, bench: &BenchmarkProfile, level: usize) -> f64 {
        let n = self.system.core_count as usize;
        assert!((1..=n).contains(&level), "level {level} outside 1..={n}");
        let model = ExecutionModel::new(*bench);
        let bd = model.breakdown(level as u32);
        let mut b = self
            .chip_power
            .sprint_breakdown(n, level, CoreState::Gated, level);
        let p_active = self.chip_power.core_power(CoreState::Active);
        let p_idle = self.chip_power.core_power(CoreState::Idle);
        let p_gated = self.chip_power.core_power(CoreState::Gated);
        let outside = (n - level) as f64 * p_gated;
        let p_serial = p_active + (level as f64 - 1.0) * p_idle + outside;
        let p_parallel = level as f64 * p_active + outside;
        b.cores = (bd.serial * p_serial + bd.parallel * p_parallel) / bd.total();
        b.total()
    }

    /// Expected completion time of `job_seconds` of single-core work when
    /// sprinting at `level`: execution at sprint speed until the thermal
    /// budget expires, then single-core crawl for the remainder (s).
    pub fn completion_time(&self, bench: &BenchmarkProfile, level: usize, job_seconds: f64) -> f64 {
        let model = ExecutionModel::new(*bench);
        let exec = job_seconds * model.time(level as u32);
        let cap = self
            .sprint_thermal
            .sprint_duration(self.chip_power_at_level(bench, level));
        if exec <= cap {
            exec
        } else {
            let done_fraction = cap / exec;
            cap + job_seconds * (1.0 - done_fraction)
        }
    }

    /// The sprint level minimizing *completion time under the thermal
    /// envelope* for a job of `job_seconds` single-core work — the
    /// thermally-aware refinement of the controller's speedup-optimal
    /// choice: long jobs prefer lower levels that can sprint to the end.
    pub fn thermally_optimal_level(&self, bench: &BenchmarkProfile, job_seconds: f64) -> usize {
        let n = self.system.core_count as usize;
        (1..=n)
            .min_by(|&a, &b| {
                self.completion_time(bench, a, job_seconds)
                    .total_cmp(&self.completion_time(bench, b, job_seconds))
            })
            .expect("at least one level")
    }

    /// Melt-plateau (phase 2) duration under a policy (s).
    pub fn melt_duration(&self, policy: SprintPolicy, bench: &BenchmarkProfile) -> f64 {
        self.sprint_thermal
            .phase_durations(self.chip_sprint_power(policy, bench))
            .melt
    }
}

/// The (full-sprinting, NoC-sprinting) pair of jobs that compares the two
/// policies on one PARSEC benchmark (Figs. 9 and 10). Both offer `bench`'s
/// injection rate scaled by `rate_scale` and floored at 0.02 flits/cycle,
/// with `pattern` and `seed`, on the controller's mesh:
///
/// - full-sprinting spreads that load over the whole mesh:
///   [`SyntheticBaseline::SpreadAggregate`] at the full level, so every
///   node injects exactly the rate;
/// - NoC-sprinting runs inside the sprint region at the level the
///   controller picks for `bench`.
///
/// Figs. 9 and 10 use uniform-random traffic. The memory ablation sends the
/// benchmark's `memory_intensity` fraction to the memory controller's node
/// with `TrafficPattern::Hotspot`; one MC port saturates quickly under
/// 16-node full-sprinting, so it derates `rate_scale` to 0.5.
///
/// # Panics
///
/// Panics if the controller is not on a mesh.
pub fn policy_jobs(
    controller: &SprintController,
    bench: &BenchmarkProfile,
    pattern: TrafficPattern,
    rate_scale: f64,
    seed: u64,
) -> (SyntheticJob, SyntheticJob) {
    let mesh = controller.mesh();
    let job = |policy, baseline| SyntheticJob {
        topology: TopologySpec::Mesh {
            width: mesh.width(),
            height: mesh.height(),
        },
        level: controller.sprint_level(policy, bench) as usize,
        pattern,
        rate: (bench.injection_rate * rate_scale).max(0.02),
        seed,
        baseline,
    };
    (
        job(
            SprintPolicy::FullSprinting,
            SyntheticBaseline::SpreadAggregate,
        ),
        job(SprintPolicy::NocSprinting, SyntheticBaseline::NocSprinting),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workload::profile::{by_name, parsec_suite};

    fn exp() -> Experiment {
        Experiment::quick()
    }

    #[test]
    fn fig9_noc_sprinting_cuts_network_latency() {
        let e = exp();
        let dedup = by_name("dedup").unwrap();
        let (full, ns) = policy_jobs(&e.controller, &dedup, TrafficPattern::UniformRandom, 1.0, 7);
        let full = full.run(&e).unwrap();
        let ns = ns.run(&e).unwrap();
        assert!(
            ns.avg_network_latency < full.avg_network_latency,
            "NoC-sprinting {} vs full {}",
            ns.avg_network_latency,
            full.avg_network_latency
        );
    }

    #[test]
    fn fig10_noc_sprinting_cuts_network_power() {
        let e = exp();
        let dedup = by_name("dedup").unwrap();
        let (full, ns) = policy_jobs(
            &e.controller,
            &dedup,
            TrafficPattern::UniformRandom,
            1.0,
            11,
        );
        let full = full.run(&e).unwrap();
        let ns = ns.run(&e).unwrap();
        assert!(
            ns.network_power < 0.6 * full.network_power,
            "NoC-sprinting {} W vs full {} W",
            ns.network_power,
            full.network_power
        );
    }

    #[test]
    fn policy_jobs_map_every_parsec_benchmark() {
        let e = exp();
        let pattern = TrafficPattern::UniformRandom;
        for b in parsec_suite() {
            let (full, ns) = policy_jobs(&e.controller, &b, pattern, 0.5, 9);
            let level = e.controller.sprint_level(SprintPolicy::NocSprinting, &b) as usize;
            assert_eq!(ns.level, level, "{}", b.name);
            // No PARSEC point needs a network of fewer than two nodes.
            assert!(ns.level >= 2, "{} sprints at level {}", b.name, ns.level);
            assert_eq!(ns.baseline, SyntheticBaseline::NocSprinting);
            assert_eq!(full.level, 16, "{}", b.name);
            assert_eq!(full.baseline, SyntheticBaseline::SpreadAggregate);
            let rate = (b.injection_rate * 0.5).max(0.02);
            assert_eq!((full.rate, ns.rate), (rate, rate), "{}", b.name);
        }
    }

    #[test]
    fn fig8_core_power_ordering() {
        // full > naive fine-grained > NoC-sprinting for an intermediate-
        // level benchmark.
        let e = exp();
        let vips = by_name("vips").unwrap();
        let full = e.core_power(SprintPolicy::FullSprinting, &vips);
        let naive = e.core_power(SprintPolicy::NaiveFineGrained, &vips);
        let ns = e.core_power(SprintPolicy::NocSprinting, &vips);
        assert!(full > naive, "full {full} vs naive {naive}");
        assert!(naive > ns, "naive {naive} vs NoC-sprinting {ns}");
    }

    #[test]
    fn fig8_suite_savings_shape() {
        // Paper: fine-grained saves ~25.5% even without gating;
        // NoC-sprinting saves ~69.1% on average. Our analytic workload
        // reproduces the ranking with savings in the right regime.
        let e = exp();
        let suite = parsec_suite();
        let mean = |p: SprintPolicy| {
            suite.iter().map(|b| e.core_power(p, b)).sum::<f64>() / suite.len() as f64
        };
        let full = mean(SprintPolicy::FullSprinting);
        let naive = mean(SprintPolicy::NaiveFineGrained);
        let ns = mean(SprintPolicy::NocSprinting);
        let naive_saving = 1.0 - naive / full;
        let ns_saving = 1.0 - ns / full;
        assert!(
            (0.10..0.45).contains(&naive_saving),
            "naive fine-grained saving {naive_saving}"
        );
        assert!(
            (0.40..0.80).contains(&ns_saving),
            "NoC-sprinting saving {ns_saving}"
        );
        assert!(ns_saving > naive_saving + 0.15);
    }

    #[test]
    fn blackscholes_leaves_no_gating_room() {
        // "except for blackscholes and bodytrack which achieve the optimal
        // performance speedup in full-sprinting and hence leave no space
        // for power-gating".
        let e = exp();
        let bs = by_name("blackscholes").unwrap();
        let full = e.core_power(SprintPolicy::FullSprinting, &bs);
        let ns = e.core_power(SprintPolicy::NocSprinting, &bs);
        assert!(
            ns > 0.85 * full,
            "blackscholes should save little: {ns} vs {full}"
        );
    }

    #[test]
    fn fig12_peak_ordering() {
        let e = exp();
        let full = e.heatmap(ThermalVariant::FullSprinting, 4).peak().1;
        let fg = e.heatmap(ThermalVariant::FineGrained, 4).peak().1;
        let fp = e
            .heatmap(ThermalVariant::FineGrainedFloorplanned, 4)
            .peak()
            .1;
        assert!(full > fg, "full {full} vs fine-grained {fg}");
        assert!(fg > fp, "fine-grained {fg} vs floorplanned {fp}");
    }

    #[test]
    fn sprint_duration_improves_for_intermediate_levels() {
        let e = exp();
        let dedup = by_name("dedup").unwrap();
        let full = e.melt_duration(SprintPolicy::FullSprinting, &dedup);
        let ns = e.melt_duration(SprintPolicy::NocSprinting, &dedup);
        assert!(ns > full, "melt {ns} vs {full}");
    }

    #[test]
    fn chip_power_totals_ranked_by_policy() {
        let e = exp();
        let vips = by_name("vips").unwrap();
        let full = e.chip_sprint_power(SprintPolicy::FullSprinting, &vips);
        let naive = e.chip_sprint_power(SprintPolicy::NaiveFineGrained, &vips);
        let ns = e.chip_sprint_power(SprintPolicy::NocSprinting, &vips);
        assert!(full > naive && naive > ns);
    }

    #[test]
    fn thermally_optimal_level_drops_for_long_jobs() {
        // Short jobs take the speedup-optimal level; long jobs back off to
        // a level whose sprint budget covers the whole job.
        let e = exp();
        let sc = by_name("streamcluster").unwrap();
        let short = e.thermally_optimal_level(&sc, 0.3);
        let long = e.thermally_optimal_level(&sc, 30.0);
        assert!(short >= long, "short {short} vs long {long}");
        assert!(long >= 1);
        // The long-job choice must actually be sustainable or at least
        // strictly better than the speedup-optimal choice.
        let t_long = e.completion_time(&sc, long, 30.0);
        let t_greedy = e.completion_time(&sc, short, 30.0);
        assert!(t_long <= t_greedy + 1e-9);
    }

    #[test]
    fn completion_time_matches_exec_when_sustainable() {
        let e = exp();
        let dedup = by_name("dedup").unwrap();
        // A tiny job never hits the envelope: completion == exec time.
        let model = noc_workload::speedup::ExecutionModel::new(dedup);
        let t = e.completion_time(&dedup, 4, 0.1);
        assert!((t - 0.1 * model.time(4)).abs() < 1e-12);
    }

    #[test]
    fn synthetic_run_produces_sane_metrics() {
        let e = exp();
        let job = SyntheticJob {
            topology: TopologySpec::default(),
            level: 4,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.1,
            seed: 3,
            baseline: SyntheticBaseline::NocSprinting,
        };
        let m = job.run(&e).unwrap();
        assert!(m.avg_packet_latency > 5.0 && m.avg_packet_latency < 200.0);
        assert!(m.network_power > 0.0);
        assert!(!m.saturated);
    }

    #[test]
    fn jobs_out_of_range_are_errors_not_panics() {
        let e = exp();
        let job = |topology, level, baseline| SyntheticJob {
            topology,
            level,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.1,
            seed: 3,
            baseline,
        };
        let mesh = TopologySpec::default();
        let circ = TopologySpec::Circulant { n: 16, skip: 5 };
        for baseline in [
            SyntheticBaseline::NocSprinting,
            SyntheticBaseline::RandomEndpoints,
            SyntheticBaseline::SpreadAggregate,
        ] {
            for (topology, level) in [(mesh, 0), (mesh, 17), (circ, 99)] {
                let err = job(topology, level, baseline).run(&e).unwrap_err();
                assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
            }
        }
        // A single node has no peer to send to.
        let err = job(mesh, 1, SyntheticBaseline::NocSprinting)
            .run(&e)
            .unwrap_err();
        assert!(matches!(err, SimError::TooFewNodes { .. }), "{err}");
        let other_mesh = TopologySpec::Mesh {
            width: 8,
            height: 8,
        };
        let err = job(other_mesh, 4, SyntheticBaseline::NocSprinting)
            .run(&e)
            .unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }
}
