//! Error types for the simulator.

use std::error::Error;
use std::fmt;

use crate::geometry::NodeId;

/// Errors raised when constructing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A mesh dimension was zero.
    EmptyMesh {
        /// Requested width.
        width: u16,
        /// Requested height.
        height: u16,
    },
    /// A circulant skip was degenerate: the four neighbor ports must reach
    /// four distinct nodes, which requires `2 <= skip` and `2 * skip < n`.
    BadCirculant {
        /// Requested node count.
        n: usize,
        /// Requested chord skip.
        skip: usize,
    },
    /// A topology wire name did not parse.
    UnknownTopology(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::EmptyMesh { width, height } => {
                write!(f, "mesh dimensions must be nonzero, got {width}x{height}")
            }
            TopologyError::BadCirculant { n, skip } => {
                write!(
                    f,
                    "circulant C({n}; 1, {skip}) is degenerate; need 2 <= skip and 2 * skip < n"
                )
            }
            TopologyError::UnknownTopology(name) => {
                write!(
                    f,
                    "unknown topology {name:?} (expected mesh<W>x<H> or circ<N>s<S>)"
                )
            }
        }
    }
}

impl Error for TopologyError {}

/// Errors raised while configuring or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A traffic placement referenced a node outside the mesh.
    PlacementOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the mesh.
        mesh_len: usize,
    },
    /// A traffic placement listed the same physical node twice.
    DuplicatePlacement {
        /// The duplicated node.
        node: NodeId,
    },
    /// Traffic requires at least this many participating nodes.
    TooFewNodes {
        /// Nodes provided.
        got: usize,
        /// Nodes required.
        need: usize,
    },
    /// A flit was delivered to a power-gated (dark) router.
    DarkRouterEntered {
        /// The dark router that received a flit.
        node: NodeId,
        /// Cycle at which the violation occurred.
        cycle: u64,
    },
    /// No forward progress for an implausibly long time: likely deadlock.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Number of flits still in flight.
        in_flight: usize,
    },
    /// A router parameter was invalid (zero VCs, zero buffer depth, ...).
    InvalidConfig(String),
    /// A run would pass a limit of the compact flit layout, which keeps
    /// cycles and packet ids in 32 bits.
    LimitExceeded {
        /// What passed its limit (`"cycle"`, `"packet id"`).
        what: &'static str,
        /// The largest value that fits.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PlacementOutOfRange { node, mesh_len } => {
                write!(f, "placement node {node} outside mesh of {mesh_len} nodes")
            }
            SimError::DuplicatePlacement { node } => {
                write!(f, "placement lists node {node} more than once")
            }
            SimError::TooFewNodes { got, need } => {
                write!(f, "traffic needs at least {need} nodes, got {got}")
            }
            SimError::DarkRouterEntered { node, cycle } => {
                write!(f, "flit entered power-gated router {node} at cycle {cycle}")
            }
            SimError::Deadlock { cycle, in_flight } => {
                write!(
                    f,
                    "no forward progress by cycle {cycle} with {in_flight} flits in flight; \
                     network is deadlocked"
                )
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::LimitExceeded { what, limit } => {
                write!(f, "{what} would pass {limit}, the largest a flit stores")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_trailing_punctuation() {
        let msgs = [
            TopologyError::EmptyMesh {
                width: 0,
                height: 3,
            }
            .to_string(),
            SimError::DuplicatePlacement { node: NodeId(2) }.to_string(),
            SimError::Deadlock {
                cycle: 10,
                in_flight: 3,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "{m:?} ends with punctuation");
            assert!(m.chars().next().unwrap().is_lowercase() || m.starts_with("flit"));
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TopologyError>();
        assert_send_sync::<SimError>();
    }
}
