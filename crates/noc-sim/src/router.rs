//! The wormhole router model.
//!
//! Each router implements the classic five-stage pipeline of Table 1:
//!
//! 1. **BW/RC** — buffer write and route compute (cycle *t*, on flit arrival),
//! 2. **VA** — virtual-channel allocation (earliest *t*+1),
//! 3. **SA** — switch allocation (earliest *t*+3; separable, two-stage,
//!    round-robin),
//! 4. **ST** — switch traversal (grant cycle),
//! 5. **LT** — link traversal (grant+1 .. grant+2, downstream BW at *t*+5 on
//!    an uncongested hop).
//!
//! The router itself is a passive data structure: the per-cycle orchestration
//! (delivering link flits, running the allocators in order) is owned by
//! [`crate::network::Network`], which avoids self-referential borrows and
//! keeps each stage unit-testable. Since the struct-of-arrays refactor the
//! per-VC pipeline state (buffers, credits, allocation, arbiter pointers)
//! lives in the network-wide [`crate::soa::VcStore`]; [`Router`] keeps only
//! the per-node power/sleep state and activity counters.

/// Sizing and timing parameters of one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterParams {
    /// Virtual channels per input port (Table 1: 4).
    pub vcs_per_port: usize,
    /// Virtual networks (message classes). VCs are split evenly across
    /// vnets and a packet may only use its own vnet's VCs — the standard
    /// mechanism for breaking request/response protocol deadlock on a
    /// shared physical network (Garnet's "vnets").
    pub vnets: usize,
    /// Flit slots per VC (Table 1: 4), at most 255.
    pub buffer_depth: usize,
    /// Cycles after buffer write before a head flit may request VC
    /// allocation (stage position of VA; 1 for the classic pipeline).
    pub va_delay: u64,
    /// Cycles after buffer write before a flit may win switch allocation
    /// (stage position of SA; 3 for the classic five-stage pipeline).
    pub sa_delay: u64,
    /// Cycles from switch-allocation grant to buffer write at the next
    /// router (ST + LT; 2 for the classic pipeline).
    pub link_delay: u64,
    /// Cycles for a credit to travel back upstream.
    pub credit_delay: u64,
}

impl RouterParams {
    /// The paper's Table 1 configuration: 4 VCs x 4-flit buffers, classic
    /// five-stage pipeline (5-cycle per-hop latency), 1-cycle credit return
    /// pipelined over the reverse wire (2 cycles total).
    pub fn paper() -> Self {
        RouterParams {
            vcs_per_port: 4,
            vnets: 1,
            buffer_depth: 4,
            va_delay: 1,
            sa_delay: 3,
            link_delay: 2,
            credit_delay: 2,
        }
    }

    /// The Table 1 router with its 4 VCs split into two virtual networks
    /// (requests on vnet 0, responses on vnet 1) for coherence-style
    /// closed-loop traffic.
    pub fn paper_two_vnets() -> Self {
        RouterParams {
            vnets: 2,
            ..Self::paper()
        }
    }

    /// VC index range belonging to a virtual network.
    ///
    /// # Panics
    ///
    /// Panics if `vnet` is out of range.
    pub fn vnet_vcs(&self, vnet: u8) -> std::ops::Range<usize> {
        let vnet = usize::from(vnet);
        assert!(vnet < self.vnets, "vnet {vnet} out of {}", self.vnets);
        let per = self.vcs_per_port / self.vnets;
        vnet * per..(vnet + 1) * per
    }

    /// The vnet a VC index belongs to.
    pub fn vc_vnet(&self, vc: usize) -> u8 {
        let per = self.vcs_per_port / self.vnets;
        (vc / per) as u8
    }

    /// Minimum cycles per hop on an uncongested path (pipeline + link).
    pub fn hop_latency(&self) -> u64 {
        self.sa_delay + self.link_delay
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`](crate::error::SimError) if any
    /// sizing field is zero or stage offsets are inconsistent.
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        use crate::error::SimError;
        if self.vcs_per_port == 0 {
            return Err(SimError::InvalidConfig("vcs_per_port must be > 0".into()));
        }
        if self.vcs_per_port > 64 {
            return Err(SimError::InvalidConfig(
                "vcs_per_port must be <= 64 (per-port VC masks are one machine word)".into(),
            ));
        }
        if self.vnets == 0 {
            return Err(SimError::InvalidConfig("vnets must be > 0".into()));
        }
        if !self.vcs_per_port.is_multiple_of(self.vnets) {
            return Err(SimError::InvalidConfig(format!(
                "{} VCs cannot be split evenly over {} vnets",
                self.vcs_per_port, self.vnets
            )));
        }
        if self.buffer_depth == 0 {
            return Err(SimError::InvalidConfig("buffer_depth must be > 0".into()));
        }
        if self.buffer_depth > usize::from(u8::MAX) {
            return Err(SimError::InvalidConfig(
                "buffer_depth must be <= 255 (per-VC ring indices are one byte)".into(),
            ));
        }
        if self.sa_delay < self.va_delay {
            return Err(SimError::InvalidConfig(
                "sa_delay must be >= va_delay (SA follows VA in the pipeline)".into(),
            ));
        }
        if self.link_delay == 0 {
            return Err(SimError::InvalidConfig("link_delay must be > 0".into()));
        }
        Ok(())
    }
}

impl Default for RouterParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Event counters used by the power model (DSENT-style activity interface).
///
/// Counters accumulate only while `enabled` is set, so the simulation driver
/// can restrict accounting to the measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits written into input buffers.
    pub buffer_writes: u64,
    /// Flits read out of input buffers (switch-allocation grants).
    pub buffer_reads: u64,
    /// Flits through the crossbar.
    pub crossbar_traversals: u64,
    /// Successful VC allocations (one per packet per hop).
    pub vc_allocations: u64,
    /// Switch-allocator grant operations.
    pub switch_allocations: u64,
    /// Flits sent on outgoing mesh links (excludes ejection).
    pub link_flits: u64,
}

impl RouterActivity {
    /// Sums two activity records (used to aggregate over routers).
    pub fn merge(&self, other: &RouterActivity) -> RouterActivity {
        RouterActivity {
            buffer_writes: self.buffer_writes + other.buffer_writes,
            buffer_reads: self.buffer_reads + other.buffer_reads,
            crossbar_traversals: self.crossbar_traversals + other.crossbar_traversals,
            vc_allocations: self.vc_allocations + other.vc_allocations,
            switch_allocations: self.switch_allocations + other.switch_allocations,
            link_flits: self.link_flits + other.link_flits,
        }
    }
}

/// Runtime power state of a router under *reactive* gating (the
/// traffic-driven schemes of NoRD / Catnap / router parking, which the
/// paper's §2 argues make sub-optimal decisions without core-status
/// knowledge). Statically-gated (dark) routers use
/// [`Router::powered_on`] instead and must never see traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepState {
    /// Fully operational.
    On,
    /// Power-gated after an idle period; leaks (almost) nothing.
    Asleep,
    /// Rail recharging after a wake event; operational at `ready_at`.
    Waking {
        /// Cycle at which the router accepts flits again.
        ready_at: u64,
    },
}

/// Per-node power/sleep state and activity counters. The per-VC pipeline
/// state (buffers, credits, allocation, arbiter pointers) lives in the
/// network-wide [`crate::soa::VcStore`].
#[derive(Debug, Clone)]
pub struct Router {
    /// Activity counters for the power model.
    pub activity: RouterActivity,
    /// Whether activity counters accumulate.
    pub counting: bool,
    /// Whether the router is powered on. Dark routers must never see a flit.
    pub powered_on: bool,
    /// Reactive-gating state (always `On` under static gating).
    pub sleep: SleepState,
    /// Last cycle with pipeline activity (buffer write or traversal).
    pub last_activity: u64,
    /// Cycles spent asleep (leakage saved), accumulated while counting.
    ///
    /// Materialized lazily: while the router is asleep *and* counting, the
    /// open interval lives in [`Router::sleep_accum_from`] and is folded in
    /// on wake / counting toggles, so steady asleep states cost nothing per
    /// cycle. [`crate::network::Network::sleep_stats`] adds the open
    /// interval when reporting.
    pub sleep_cycles: u64,
    /// Cycle the current counted sleep interval began, when the router is
    /// asleep with counting enabled; `None` otherwise.
    pub sleep_accum_from: Option<u64>,
    /// Wake events (each costs wakeup energy), accumulated while counting.
    pub wakeups: u64,
}

impl Router {
    /// Creates a powered-on, awake router with zeroed counters.
    pub fn new() -> Self {
        Router {
            activity: RouterActivity::default(),
            counting: false,
            powered_on: true,
            sleep: SleepState::On,
            last_activity: 0,
            sleep_cycles: 0,
            sleep_accum_from: None,
            wakeups: 0,
        }
    }

    /// Whether the router can accept and process flits this cycle.
    pub fn is_operational(&self) -> bool {
        self.powered_on && self.sleep == SleepState::On
    }
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_match_table1() {
        let p = RouterParams::paper();
        assert_eq!(p.vcs_per_port, 4);
        assert_eq!(p.buffer_depth, 4);
        assert_eq!(p.hop_latency(), 5, "classic five-stage pipeline");
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_sizes() {
        let mut p = RouterParams::paper();
        p.vcs_per_port = 0;
        assert!(p.validate().is_err());
        let mut p = RouterParams::paper();
        p.buffer_depth = 0;
        assert!(p.validate().is_err());
        p.buffer_depth = 255;
        p.validate().unwrap();
        p.buffer_depth = 256;
        assert!(p.validate().is_err());
        let mut p = RouterParams::paper();
        p.sa_delay = 0; // below va_delay
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_oversized_vc_count() {
        let mut p = RouterParams::paper();
        p.vcs_per_port = 64;
        p.vnets = 1;
        p.validate().unwrap();
        p.vcs_per_port = 65;
        assert!(p.validate().is_err(), "per-port VC masks are one word");
    }

    #[test]
    fn new_router_is_operational() {
        let r = Router::new();
        assert!(r.is_operational());
        assert!(!r.counting);
        assert_eq!(r.activity, RouterActivity::default());
    }

    #[test]
    fn activity_merge_adds_fields() {
        let a = RouterActivity {
            buffer_writes: 1,
            buffer_reads: 2,
            crossbar_traversals: 3,
            vc_allocations: 4,
            switch_allocations: 5,
            link_flits: 6,
        };
        let b = a;
        let m = a.merge(&b);
        assert_eq!(m.buffer_writes, 2);
        assert_eq!(m.link_flits, 12);
    }
}
