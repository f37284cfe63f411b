//! System configuration (the paper's Table 1).

use std::fmt;

use noc_sim::router::RouterParams;
use noc_sim::topology::Mesh2D;

/// Full system + interconnect configuration, mirroring Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (and mesh nodes).
    pub core_count: u32,
    /// Core/network clock (GHz).
    pub freq_ghz: f64,
    /// Private L1 I & D size (KB each).
    pub l1_kb: u32,
    /// Shared, tiled L2 size (MB total).
    pub l2_mb: u32,
    /// Cache-line size (bytes).
    pub cacheline_bytes: u32,
    /// DRAM size (GB).
    pub memory_gb: u32,
    /// Coherency protocol name.
    pub coherency: &'static str,
    /// Mesh width.
    pub mesh_width: u16,
    /// Mesh height.
    pub mesh_height: u16,
    /// Router microarchitecture parameters.
    pub router: RouterParams,
    /// Flits per packet.
    pub packet_len: u32,
    /// Flit size (bytes).
    pub flit_bytes: u32,
}

impl SystemConfig {
    /// The paper's configuration: 16 cores at 2 GHz on a 4x4 mesh;
    /// 64 KB private L1s, 4 MB shared tiled L2, 64 B lines, MESI; classic
    /// five-stage routers with 4 VCs x 4-flit buffers; 5-flit packets of
    /// 16-byte flits.
    pub fn paper() -> Self {
        SystemConfig {
            core_count: 16,
            freq_ghz: 2.0,
            l1_kb: 64,
            l2_mb: 4,
            cacheline_bytes: 64,
            memory_gb: 1,
            coherency: "MESI",
            mesh_width: 4,
            mesh_height: 4,
            router: RouterParams::paper(),
            packet_len: 5,
            flit_bytes: 16,
        }
    }

    /// The mesh described by this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured dimensions are zero (cannot happen for
    /// [`SystemConfig::paper`]).
    pub fn mesh(&self) -> Mesh2D {
        Mesh2D::new(self.mesh_width, self.mesh_height).expect("nonzero mesh dimensions")
    }

    /// Consistency check: the mesh has one node per core and packets carry
    /// a cache line (header + data).
    pub fn is_consistent(&self) -> bool {
        u32::from(self.mesh_width) * u32::from(self.mesh_height) == self.core_count
            && self.packet_len * self.flit_bytes >= self.cacheline_bytes
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "core count/freq.   {} cores, {} GHz",
            self.core_count, self.freq_ghz
        )?;
        writeln!(f, "L1 I & D cache     private, {} KB", self.l1_kb)?;
        writeln!(f, "L2 cache           shared & tiled, {} MB", self.l2_mb)?;
        writeln!(f, "cacheline size     {} B", self.cacheline_bytes)?;
        writeln!(f, "memory             {} GB DRAM", self.memory_gb)?;
        writeln!(f, "cache-coherency    {} protocol", self.coherency)?;
        writeln!(
            f,
            "topology           {} x {} 2D Mesh",
            self.mesh_width, self.mesh_height
        )?;
        writeln!(f, "router pipeline    classic five-stage")?;
        writeln!(
            f,
            "VC count           {} VCs per port",
            self.router.vcs_per_port
        )?;
        writeln!(
            f,
            "buffer depth       {} buffers per VC",
            self.router.buffer_depth
        )?;
        writeln!(f, "packet length      {} flits", self.packet_len)?;
        write!(f, "flit length        {} bytes", self.flit_bytes)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = SystemConfig::paper();
        assert_eq!(c.core_count, 16);
        assert_eq!(c.freq_ghz, 2.0);
        assert_eq!(c.l1_kb, 64);
        assert_eq!(c.l2_mb, 4);
        assert_eq!(c.cacheline_bytes, 64);
        assert_eq!(c.memory_gb, 1);
        assert_eq!(c.coherency, "MESI");
        assert_eq!((c.mesh_width, c.mesh_height), (4, 4));
        assert_eq!(c.router.vcs_per_port, 4);
        assert_eq!(c.router.buffer_depth, 4);
        assert_eq!(c.packet_len, 5);
        assert_eq!(c.flit_bytes, 16);
        assert!(c.is_consistent());
    }

    #[test]
    fn display_mentions_all_table_rows() {
        let s = SystemConfig::paper().to_string();
        for needle in [
            "16 cores",
            "2 GHz",
            "64 KB",
            "4 MB",
            "64 B",
            "MESI",
            "4 x 4 2D Mesh",
            "five-stage",
            "4 VCs",
            "5 flits",
            "16 bytes",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in\n{s}");
        }
    }

    #[test]
    fn mesh_matches_dimensions() {
        let c = SystemConfig::paper();
        assert_eq!(c.mesh().len(), 16);
    }

    #[test]
    fn inconsistent_config_detected() {
        let mut c = SystemConfig::paper();
        c.core_count = 12;
        assert!(!c.is_consistent());
    }
}
