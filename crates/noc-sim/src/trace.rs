//! Packet-trace capture and replay.
//!
//! The paper's methodology runs PARSEC to a checkpoint and then measures a
//! fixed instruction window. The analog here: capture the packet stream of
//! any traffic source into a [`PacketTrace`], then replay it — bit-exactly,
//! with the original timing — against different network configurations
//! (routings, gating plans, router parameters). Replay makes A/B network
//! comparisons free of generator randomness.

use crate::geometry::NodeId;
use crate::packet::{Packet, PacketId, MAX_PACKET_FLITS};
use crate::traffic::TrafficGen;

/// One recorded packet: generation cycle plus addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Generation cycle.
    pub cycle: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Flits in the packet.
    pub len: u32,
}

/// A recorded packet stream, ordered by generation cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketTrace {
    entries: Vec<TraceEntry>,
}

impl PacketTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a generator's output over `cycles` cycles.
    pub fn capture(gen: &mut TrafficGen, cycles: u64) -> Self {
        let mut entries = Vec::new();
        for c in 0..cycles {
            for p in gen.generate(c, false) {
                entries.push(TraceEntry {
                    cycle: c,
                    src: p.src,
                    dst: p.dst,
                    len: p.len,
                });
            }
        }
        PacketTrace { entries }
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if entries are pushed out of cycle order, or with a length
    /// outside `1..=`[`MAX_PACKET_FLITS`].
    pub fn push(&mut self, entry: TraceEntry) {
        assert!(
            (1..=MAX_PACKET_FLITS).contains(&entry.len),
            "packet length {} in trace outside 1..={MAX_PACKET_FLITS} flits",
            entry.len
        );
        if let Some(last) = self.entries.last() {
            assert!(last.cycle <= entry.cycle, "trace entries out of order");
        }
        self.entries.push(entry);
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Total flits in the trace.
    pub fn total_flits(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.len)).sum()
    }

    /// Last generation cycle, or `None` for an empty trace.
    pub fn horizon(&self) -> Option<u64> {
        self.entries.last().map(|e| e.cycle)
    }

    /// Average offered load in flits/cycle/node over the trace span.
    pub fn offered_load(&self, nodes: usize) -> f64 {
        match self.horizon() {
            None => 0.0,
            Some(h) => self.total_flits() as f64 / (h + 1) as f64 / nodes as f64,
        }
    }

    /// Builds a replayer.
    pub fn replayer(&self) -> TraceReplayer<'_> {
        TraceReplayer {
            trace: self,
            pos: 0,
            next_id: 0,
        }
    }

    /// Serializes to a simple line format (`cycle src dst len`).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("{} {} {} {}\n", e.cycle, e.src.0, e.dst.0, e.len));
        }
        out
    }

    /// Parses the line format produced by [`PacketTrace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut trace = PacketTrace::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(format!(
                    "line {}: expected 4 fields, got {}",
                    i + 1,
                    fields.len()
                ));
            }
            let parse = |s: &str| -> Result<u64, String> {
                s.parse().map_err(|e| format!("line {}: {e}", i + 1))
            };
            let len = parse(fields[3])?;
            if !(1..=u64::from(MAX_PACKET_FLITS)).contains(&len) {
                return Err(format!(
                    "line {}: packet length {len} outside 1..={MAX_PACKET_FLITS} flits",
                    i + 1
                ));
            }
            trace.push(TraceEntry {
                cycle: parse(fields[0])?,
                src: NodeId(parse(fields[1])? as usize),
                dst: NodeId(parse(fields[2])? as usize),
                len: len as u32,
            });
        }
        Ok(trace)
    }
}

impl FromIterator<TraceEntry> for PacketTrace {
    fn from_iter<T: IntoIterator<Item = TraceEntry>>(iter: T) -> Self {
        let mut t = PacketTrace::new();
        for e in iter {
            t.push(e);
        }
        t
    }
}

/// Replays a trace cycle by cycle.
#[derive(Debug)]
pub struct TraceReplayer<'a> {
    trace: &'a PacketTrace,
    pos: usize,
    next_id: u64,
}

impl TraceReplayer<'_> {
    /// Packets generated at cycle `now` (call with consecutive cycles).
    pub fn generate(&mut self, now: u64, measured: bool) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Some(e) = self.trace.entries.get(self.pos) {
            if e.cycle > now {
                break;
            }
            if e.cycle == now {
                out.push(Packet {
                    id: PacketId(self.next_id),
                    src: e.src,
                    dst: e.dst,
                    len: e.len,
                    created: now,
                    measured,
                    vnet: 0,
                });
                self.next_id += 1;
            }
            self.pos += 1;
        }
        out
    }

    /// Whether all entries have been replayed.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.trace.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh2D;
    use crate::traffic::{Placement, TrafficPattern};

    fn sample_gen(seed: u64) -> TrafficGen {
        let mesh = Mesh2D::paper_4x4();
        TrafficGen::new(
            TrafficPattern::UniformRandom,
            Placement::full(&mesh),
            0.3,
            5,
            seed,
        )
        .unwrap()
    }

    #[test]
    fn capture_matches_generator_output() {
        let trace = PacketTrace::capture(&mut sample_gen(5), 500);
        assert!(trace.len() > 100, "expected substantial traffic");
        // Re-run the same generator: replay must match packet for packet.
        let mut gen = sample_gen(5);
        let mut replay = trace.replayer();
        for c in 0..500 {
            let a: Vec<(NodeId, NodeId)> = gen.generate(c, false).map(|p| (p.src, p.dst)).collect();
            let b: Vec<(NodeId, NodeId)> = replay
                .generate(c, false)
                .iter()
                .map(|p| (p.src, p.dst))
                .collect();
            assert_eq!(a, b, "cycle {c}");
        }
        assert!(replay.exhausted());
    }

    #[test]
    fn text_roundtrip() {
        let trace = PacketTrace::capture(&mut sample_gen(9), 200);
        let text = trace.to_text();
        let parsed = PacketTrace::from_text(&text).unwrap();
        assert_eq!(trace, parsed);
    }

    #[test]
    fn from_text_rejects_malformed_lines() {
        assert!(PacketTrace::from_text("1 2 3").is_err());
        assert!(PacketTrace::from_text("a b c d").is_err());
        // Comments and blanks are fine.
        let t = PacketTrace::from_text("# header\n\n3 0 5 5\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn offered_load_estimate_is_close() {
        let trace = PacketTrace::capture(&mut sample_gen(11), 5_000);
        let load = trace.offered_load(16);
        assert!((load - 0.3).abs() < 0.05, "estimated load {load}");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut t = PacketTrace::new();
        t.push(TraceEntry {
            cycle: 5,
            src: NodeId(0),
            dst: NodeId(1),
            len: 1,
        });
        t.push(TraceEntry {
            cycle: 4,
            src: NodeId(0),
            dst: NodeId(1),
            len: 1,
        });
    }

    #[test]
    fn replayer_ids_are_unique_and_dense() {
        let trace = PacketTrace::capture(&mut sample_gen(2), 300);
        let mut replay = trace.replayer();
        let mut ids = Vec::new();
        for c in 0..300 {
            for p in replay.generate(c, true) {
                ids.push(p.id.0);
            }
        }
        let expect: Vec<u64> = (0..trace.len() as u64).collect();
        assert_eq!(ids, expect);
    }
}
