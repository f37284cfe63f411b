//! Simulation driver: warmup / measurement / drain methodology.
//!
//! Follows the standard booksim-style open-loop methodology: the network is
//! warmed into steady state, statistics are collected over a measurement
//! window, and the run then continues (still injecting unmeasured background
//! traffic so the load does not artificially drop) until every measured
//! packet has been delivered or the drain budget is exhausted — the latter
//! marks the operating point as saturated.

use std::collections::HashMap;

use crate::error::SimError;
use crate::fault::FaultStats;
use crate::network::{Network, StageCycles};
use crate::packet::PacketId;
use crate::probe::{Probe, SimPhase};
use crate::router::RouterActivity;
use crate::stats::{LatencySample, SimStats};
use crate::traffic::TrafficGen;

/// Phase lengths and safety limits for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Warmup cycles before statistics are collected.
    pub warmup: u64,
    /// Measurement window length in cycles.
    pub measure: u64,
    /// Maximum drain cycles after measurement before declaring saturation.
    pub drain_max: u64,
    /// Cycles without any pipeline event (while flits are in flight) before
    /// the watchdog reports a deadlock.
    pub deadlock_threshold: u64,
    /// When set, run [`Network::validate_active_sets`] every N cycles —
    /// cross-checking the incremental work-lists and the struct-of-arrays
    /// mirrors against ground truth. Debugging/CI aid; panics on divergence.
    pub validate_sets_every: Option<u64>,
}

impl SimConfig {
    /// A configuration suited to latency-vs-load sweeps on small meshes.
    pub fn sweep() -> Self {
        SimConfig {
            warmup: 2_000,
            measure: 10_000,
            drain_max: 50_000,
            deadlock_threshold: 10_000,
            validate_sets_every: None,
        }
    }

    /// A shorter configuration for smoke tests.
    pub fn quick() -> Self {
        SimConfig {
            warmup: 500,
            measure: 2_000,
            drain_max: 20_000,
            deadlock_threshold: 5_000,
            validate_sets_every: None,
        }
    }

    /// Checks that every cycle of a run fits the 32 bits a flit stores its
    /// cycle stamps in: `warmup + measure + drain_max <= u32::MAX`.
    ///
    /// # Errors
    ///
    /// [`SimError::LimitExceeded`] when the phases add up past `u32::MAX`.
    pub fn validate(&self) -> Result<(), SimError> {
        let limit = u64::from(u32::MAX);
        let end = self
            .warmup
            .checked_add(self.measure)
            .and_then(|c| c.checked_add(self.drain_max));
        match end {
            Some(end) if end <= limit => Ok(()),
            _ => Err(SimError::LimitExceeded {
                what: "cycle",
                limit,
            }),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::sweep()
    }
}

/// End-to-end accounting of measured packets: every packet generated in the
/// measurement window is delivered, cleanly dropped by fault handling, or
/// still outstanding when the run ends (saturation / drain-budget expiry) —
/// nothing is silently lost.
///
/// The invariant `generated == delivered + dropped + outstanding` holds by
/// construction and is pinned by the fault-injection test suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketAccounting {
    /// Measured packets generated during the window.
    pub measured_generated: u64,
    /// Measured packets whose tail flit reached its destination NI.
    pub measured_delivered: u64,
    /// Measured packets cleanly dropped by fault handling.
    pub measured_dropped: u64,
    /// Measured packets still in flight or queued when the run ended.
    pub measured_outstanding: u64,
}

impl PacketAccounting {
    /// Fraction of measured packets that were delivered (1.0 when nothing
    /// was generated).
    pub fn delivered_fraction(&self) -> f64 {
        if self.measured_generated == 0 {
            1.0
        } else {
            self.measured_delivered as f64 / self.measured_generated as f64
        }
    }
}

/// Result of a simulation run: latency/throughput statistics plus the router
/// activity accumulated during the measurement window (for the power model).
/// `PartialEq` compares every field, which is what the engine-equivalence
/// suite uses to pin active-set vs exhaustive runs against each other.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Delivered-traffic statistics.
    pub stats: SimStats,
    /// Aggregate router activity during measurement.
    pub activity: RouterActivity,
    /// Per-router activity during measurement.
    pub activity_per_router: Vec<RouterActivity>,
    /// Per-router `(sleep_cycles, wakeups)` during measurement (all zeros
    /// under static gating).
    pub sleep_stats: Vec<(u64, u64)>,
    /// Total cycles simulated (all phases).
    pub total_cycles: u64,
    /// Fault consequence counters (all zeros without a fault plan).
    pub faults: FaultStats,
    /// Where every measured packet ended up.
    pub accounting: PacketAccounting,
    /// Per-pipeline-stage busy-cycle counters over the whole run (cycles in
    /// which the stage processed at least one event).
    pub stage_cycles: StageCycles,
}

/// Runs the warmup/measure/drain loop for one traffic configuration.
#[derive(Debug)]
pub struct Simulation {
    net: Network,
    traffic: TrafficGen,
    cfg: SimConfig,
}

impl Simulation {
    /// Creates a simulation from an assembled network and traffic generator.
    pub fn new(net: Network, traffic: TrafficGen, cfg: SimConfig) -> Self {
        Simulation { net, traffic, cfg }
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::DarkRouterEntered`] from the network, raises
    /// [`SimError::Deadlock`] if the watchdog detects no forward progress,
    /// and refuses with [`SimError::LimitExceeded`] a configuration whose
    /// cycles pass `u32::MAX` ([`SimConfig::validate`]), up front, or a run
    /// whose packet ids would, at the cycle that would pass it.
    pub fn run(self) -> Result<SimOutcome, SimError> {
        self.run_observed(None)
    }

    /// Runs to completion with an optional [`Probe`] attached.
    ///
    /// On top of the per-cycle pipeline hooks (see
    /// [`Network::step_observed`]), the driver reports methodology phase
    /// boundaries ([`Probe::on_phase`]), epoch snapshots every
    /// [`Probe::epoch_interval`] cycles ([`Probe::on_epoch`], with read
    /// access to the whole network), and every measured packet delivery
    /// ([`Probe::on_packet_delivered`]). The probe never influences the
    /// run: the returned [`SimOutcome`] is bit-identical to [`Simulation::run`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulation::run`].
    pub fn run_observed(
        mut self,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> Result<SimOutcome, SimError> {
        self.cfg.validate()?;
        let epoch = probe.as_deref_mut().map_or(0, |p| p.epoch_interval());
        let mut packet_latency = LatencySample::new();
        let mut network_latency = LatencySample::new();
        let mut flits_delivered = 0u64;
        let mut window_flits = 0u64;
        let mut packets_delivered = 0u64;
        let mut measured_generated = 0u64;
        let mut measured_ejected = 0u64;
        // Head-injection cycle per in-flight measured packet, captured from
        // the head flit; consumed at tail ejection.
        let mut head_inject: HashMap<PacketId, u64> = HashMap::new();
        let mut idle_cycles = 0u64;

        let warmup_end = self.cfg.warmup;
        let measure_end = warmup_end + self.cfg.measure;
        let hard_end = measure_end + self.cfg.drain_max;

        let mut activity = RouterActivity::default();
        let mut activity_per_router = Vec::new();
        let mut sleep_stats = Vec::new();
        let mut saturated = false;

        if let Some(p) = probe.as_deref_mut() {
            p.on_phase(SimPhase::Warmup, self.net.now());
        }
        loop {
            let now = self.net.now();
            if now == warmup_end {
                self.net.set_counting(true);
                if let Some(p) = probe.as_deref_mut() {
                    p.on_phase(SimPhase::Measure, now);
                }
            }
            if now == measure_end {
                self.net.set_counting(false);
                activity = self.net.activity();
                activity_per_router = self.net.activity_per_router();
                sleep_stats = self.net.sleep_stats();
                if let Some(p) = probe.as_deref_mut() {
                    p.on_phase(SimPhase::Drain, now);
                }
            }
            if epoch != 0 && now.is_multiple_of(epoch) {
                if let Some(p) = probe.as_deref_mut() {
                    p.on_epoch(now, &self.net);
                }
            }
            if now >= hard_end {
                saturated = true;
                break;
            }
            // Dropped packets will never eject; count them as resolved so
            // fault-heavy runs still terminate.
            let measured_dropped = self.net.fault_stats().measured_packets_dropped;
            if now >= measure_end && measured_ejected + measured_dropped == measured_generated {
                break;
            }

            // Idle fast-forward: when the generator is in a burst off-phase
            // (the only time it consumes no randomness) and the network is
            // quiescent, jump to the next cycle anything can happen —
            // bounded so no phase boundary, epoch probe, generation cycle,
            // scheduled fault, or sleep event is ever skipped over.
            let gen_at = self.traffic.next_generation_at(now);
            if gen_at > now {
                let mut bound = hard_end.min(gen_at);
                if now < warmup_end {
                    bound = bound.min(warmup_end);
                }
                if now < measure_end {
                    bound = bound.min(measure_end);
                }
                if epoch != 0 {
                    bound = bound.min(now - now % epoch + epoch);
                }
                if self.net.skip_idle_cycles(bound) > 0 {
                    idle_cycles = 0;
                    continue;
                }
            }

            // Open-loop generation continues through drain (unmeasured).
            let in_measure = (warmup_end..measure_end).contains(&now);
            self.traffic.check_id_room()?;
            for p in self.traffic.generate(now, in_measure) {
                if p.measured {
                    measured_generated += 1;
                }
                self.net.enqueue_packet(p);
            }

            let report = self.net.step_observed(probe.as_deref_mut())?;
            if let Some(every) = self.cfg.validate_sets_every {
                if every > 0 && self.net.now().is_multiple_of(every) {
                    self.net.validate_active_sets();
                }
            }
            for e in self.net.drain_ejections() {
                let f = e.flit;
                if in_measure {
                    window_flits += 1;
                }
                if !f.measured() {
                    continue;
                }
                flits_delivered += 1;
                if f.kind().is_head() {
                    head_inject.insert(f.packet(), f.injected());
                }
                if f.kind().is_tail() {
                    packets_delivered += 1;
                    measured_ejected += 1;
                    let plat = e.at.saturating_sub(f.created());
                    let head_at = head_inject.remove(&f.packet()).unwrap_or(f.injected());
                    let nlat = e.at.saturating_sub(head_at);
                    packet_latency.record(plat);
                    network_latency.record(nlat);
                    if let Some(p) = probe.as_deref_mut() {
                        p.on_packet_delivered(e.at, plat, nlat);
                    }
                }
            }

            if report.events == 0 && self.net.in_flight() > 0 {
                // A stall during a finite fault window (transient outage,
                // router freeze) is flits waiting the fault out, not a
                // deadlock: hold the watchdog without resetting it.
                if !self.net.fault_hold_active() {
                    idle_cycles += 1;
                    if idle_cycles >= self.cfg.deadlock_threshold {
                        return Err(SimError::Deadlock {
                            cycle: self.net.now(),
                            in_flight: self.net.in_flight(),
                        });
                    }
                }
            } else {
                idle_cycles = 0;
            }
        }

        // If the run ended before the measurement snapshot was taken
        // (degenerate config with measure == 0), snapshot now.
        if activity_per_router.is_empty() {
            activity = self.net.activity();
            activity_per_router = self.net.activity_per_router();
            sleep_stats = self.net.sleep_stats();
        }

        let total_cycles = self.net.now();
        // An operating point is saturated when the network could not accept
        // the offered load during the window (accepted < 90% of offered) or
        // when the drain budget expired with measured packets outstanding.
        // A burst schedule offers load only during its on-cycles.
        let nodes = self.traffic.placement().len();
        let offered_cycles = self.traffic.bursts().map_or(self.cfg.measure, |b| {
            b.on_cycles_between(warmup_end, measure_end)
        });
        if offered_cycles > 0 && nodes > 0 {
            let offered_flits =
                self.traffic.injection_rate() * offered_cycles as f64 * nodes as f64;
            // Below a few hundred expected flits the accepted/offered ratio
            // is dominated by Bernoulli noise — skip the throughput check.
            if offered_flits >= 500.0 {
                let accepted = window_flits as f64 / offered_cycles as f64 / nodes as f64;
                if accepted < 0.9 * self.traffic.injection_rate() {
                    saturated = true;
                }
            }
        }
        let faults = self.net.fault_stats();
        let accounting = PacketAccounting {
            measured_generated,
            measured_delivered: measured_ejected,
            measured_dropped: faults.measured_packets_dropped,
            measured_outstanding: measured_generated
                .saturating_sub(measured_ejected)
                .saturating_sub(faults.measured_packets_dropped),
        };
        Ok(SimOutcome {
            stats: SimStats {
                packet_latency,
                network_latency,
                packets_delivered,
                flits_delivered,
                window_flits,
                measure_cycles: self.cfg.measure,
                traffic_nodes: nodes,
                offered_load: self.traffic.injection_rate(),
                saturated,
            },
            activity,
            activity_per_router,
            sleep_stats,
            total_cycles,
            faults,
            accounting,
            stage_cycles: self.net.stage_cycles(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterParams;
    use crate::routing::XyRouting;
    use crate::topology::Mesh2D;
    use crate::traffic::{Placement, TrafficPattern};

    fn sim(rate: f64, cfg: SimConfig) -> Simulation {
        let mesh = Mesh2D::paper_4x4();
        let net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
        let traffic = TrafficGen::new(
            TrafficPattern::UniformRandom,
            Placement::full(&mesh),
            rate,
            5,
            99,
        )
        .unwrap();
        Simulation::new(net, traffic, cfg)
    }

    #[test]
    fn low_load_run_completes_unsaturated() {
        let out = sim(0.05, SimConfig::quick()).run().unwrap();
        assert!(!out.stats.saturated);
        assert!(out.stats.packets_delivered > 0);
        // Zero-load-ish latency: avg hops on 4x4 uniform ~ 2.67, per hop 5
        // cycles, plus ejection + serialization (4 extra flits) + queueing.
        let lat = out.stats.avg_packet_latency();
        assert!(lat > 15.0 && lat < 60.0, "implausible latency {lat}");
    }

    #[test]
    fn latency_grows_with_load() {
        let lo = sim(0.05, SimConfig::quick()).run().unwrap();
        let hi = sim(0.35, SimConfig::quick()).run().unwrap();
        assert!(
            hi.stats.avg_packet_latency() > lo.stats.avg_packet_latency(),
            "latency must increase with offered load: {} vs {}",
            lo.stats.avg_packet_latency(),
            hi.stats.avg_packet_latency()
        );
    }

    #[test]
    fn accepted_tracks_offered_below_saturation() {
        let out = sim(0.2, SimConfig::sweep()).run().unwrap();
        let accepted = out.stats.accepted_throughput();
        assert!(
            (accepted - 0.2).abs() < 0.03,
            "accepted {accepted} should track offered 0.2"
        );
    }

    #[test]
    fn oversaturated_run_is_flagged() {
        // 0.95 flits/cycle/node uniform on a 4x4 mesh is far beyond
        // saturation (~0.4-0.5); the drain budget must expire.
        let cfg = SimConfig {
            drain_max: 3_000,
            ..SimConfig::quick()
        };
        let out = sim(0.95, cfg).run().unwrap();
        assert!(out.stats.saturated);
    }

    #[test]
    fn bursty_saturation_counts_only_on_cycles() {
        use crate::traffic::BurstSchedule;
        let bursty = |rate, on_cycles, off_cycles| {
            let mesh = Mesh2D::paper_4x4();
            let net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
            let traffic = TrafficGen::new(
                TrafficPattern::UniformRandom,
                Placement::full(&mesh),
                rate,
                5,
                99,
            )
            .unwrap()
            .with_bursts(BurstSchedule {
                on_cycles,
                off_cycles,
            });
            Simulation::new(net, traffic, SimConfig::quick())
                .run()
                .unwrap()
        };
        // A 25% duty cycle at low load carries everything it offers.
        let low = bursty(0.2, 200, 600);
        assert!(low.stats.accepted_throughput() < 0.9 * 0.2, "duty-scaled");
        assert!(!low.stats.saturated, "low-load bursts read as saturated");
        // Full rate at a 90% duty cycle averages 0.9 flits/cycle/node, past
        // the 4x4 uniform knee (~0.65).
        assert!(bursty(1.0, 900, 100).stats.saturated);
    }

    #[test]
    fn activity_scales_with_load() {
        let lo = sim(0.05, SimConfig::quick()).run().unwrap();
        let hi = sim(0.25, SimConfig::quick()).run().unwrap();
        assert!(hi.activity.buffer_writes > lo.activity.buffer_writes);
        assert!(hi.activity.link_flits > lo.activity.link_flits);
    }

    #[test]
    fn network_latency_not_above_packet_latency() {
        let out = sim(0.1, SimConfig::quick()).run().unwrap();
        assert!(out.stats.avg_network_latency() <= out.stats.avg_packet_latency());
    }

    #[test]
    fn run_cycles_must_fit_32_bits() {
        let at_limit = SimConfig {
            warmup: 1,
            measure: 2,
            drain_max: u64::from(u32::MAX) - 3,
            ..SimConfig::quick()
        };
        at_limit.validate().unwrap();
        let refused = Err(SimError::LimitExceeded {
            what: "cycle",
            limit: u64::from(u32::MAX),
        });
        let past = SimConfig {
            drain_max: at_limit.drain_max + 1,
            ..at_limit
        };
        assert_eq!(past.validate(), refused);
        let wrapping = SimConfig {
            drain_max: u64::MAX,
            ..at_limit
        };
        assert_eq!(wrapping.validate(), refused);
        // The run is refused before it simulates a cycle.
        assert_eq!(sim(0.1, past).run().map(|_| ()), refused);
    }

    #[test]
    fn per_router_activity_sums_to_aggregate() {
        let out = sim(0.15, SimConfig::quick()).run().unwrap();
        let sum = out
            .activity_per_router
            .iter()
            .fold(RouterActivity::default(), |a, r| a.merge(r));
        assert_eq!(sum, out.activity);
    }
}
