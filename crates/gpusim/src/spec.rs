//! Hardware descriptions (paper Table 4).

/// Description of a GPU device.
///
/// The two constructors mirror the paper's evaluation hardware exactly
/// (Table 4); [`GpuSpec::peak_gflops`] derives the single-precision peak as
/// `2 × cores × clock` (one FMA per core per cycle).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Streaming-multiprocessor count.
    pub multiprocessors: u32,
    /// Total CUDA core count.
    pub cuda_cores: u32,
    /// Maximum clock rate in MHz.
    pub max_clock_mhz: u32,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Device memory bandwidth in GB/s.
    pub memory_bw_gbs: f64,
    /// Last-level cache size in bytes.
    pub llc_bytes: u64,
    /// Half-precision (f16/bf16) matrix throughput relative to the FP32
    /// peak. Models a Tango-style matrix-unit roofline: tensor-core GEMMs
    /// sustain a multiple of the scalar FP32 rate, so the speed tier times
    /// reduced-precision GEMM/conv kernels against
    /// `half_rate × peak_flops`. The paper's Pascal cards have no matrix
    /// units (their *native* fp16 rate is 1/64 of fp32); this knob answers
    /// the what-if the mixed-precision extension studies, defaulting to the
    /// 2× ratio matrix units sustain at equal power.
    pub half_rate: f64,
    /// On-demand rental price of one device in USD per hour — the TCO
    /// dimension of the capacity planner (`tbd serve`/`tbd scale`). A
    /// simulator constant, not a market feed: values are fixed
    /// public-cloud-style list prices so $/iteration is as deterministic
    /// as iteration time itself. `0.0` disables costing.
    pub price_per_hour: f64,
    /// Host link (PCIe 3.0 x16 for both paper GPUs).
    pub bus: Interconnect,
}

impl GpuSpec {
    /// NVIDIA Quadro P4000 — the paper's primary device.
    pub fn quadro_p4000() -> Self {
        GpuSpec {
            name: "Quadro P4000".to_string(),
            multiprocessors: 14,
            cuda_cores: 1792,
            max_clock_mhz: 1480,
            memory_bytes: 8 * GIB,
            memory_bw_gbs: 243.0,
            llc_bytes: 2 * MIB,
            half_rate: 2.0,
            price_per_hour: 0.35,
            bus: Interconnect::pcie3_x16(),
        }
    }

    /// NVIDIA Titan Xp — the paper's "more powerful GPU" (§4.3).
    pub fn titan_xp() -> Self {
        GpuSpec {
            name: "TITAN Xp".to_string(),
            multiprocessors: 30,
            cuda_cores: 3840,
            max_clock_mhz: 1582,
            memory_bytes: 12 * GIB,
            memory_bw_gbs: 547.6,
            llc_bytes: 3 * MIB,
            half_rate: 2.0,
            price_per_hour: 0.75,
            bus: Interconnect::pcie3_x16(),
        }
    }

    /// Theoretical single-precision peak in GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        2.0 * self.cuda_cores as f64 * self.max_clock_mhz as f64 / 1000.0
    }

    /// Theoretical single-precision peak in FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.peak_gflops() * 1e9
    }

    /// Matrix-unit half-precision peak in FLOP/s (`half_rate ×` FP32 peak),
    /// the compute roof that f16/bf16 GEMM-family kernels time against.
    pub fn peak_half_flops(&self) -> f64 {
        self.peak_flops() * self.half_rate
    }

    /// Memory bandwidth in bytes per second.
    pub fn memory_bw_bytes(&self) -> f64 {
        self.memory_bw_gbs * 1e9
    }
}

const MIB: u64 = 1024 * 1024;
const GIB: u64 = 1024 * MIB;

/// Description of a host CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: String,
    /// Physical core count.
    pub cores: u32,
    /// Maximum clock rate in MHz.
    pub max_clock_mhz: u32,
    /// Host memory capacity in bytes.
    pub memory_bytes: u64,
}

impl CpuSpec {
    /// Intel Xeon E5-2680 (28 cores) — the paper's host CPU.
    pub fn xeon_e5_2680() -> Self {
        CpuSpec {
            name: "Intel Xeon E5-2680".to_string(),
            cores: 28,
            max_clock_mhz: 2900,
            memory_bytes: 128 * GIB,
        }
    }
}

/// A point-to-point interconnect used for device-host or machine-machine
/// transfers (paper §4.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes: f64,
    /// Per-message latency in seconds.
    pub latency_s: f64,
}

impl Interconnect {
    /// PCIe 3.0 x16 (≈16 GB/s, the intra-machine GPU link).
    pub fn pcie3_x16() -> Self {
        Interconnect { bandwidth_bytes: 16.0e9, latency_s: 5e-6 }
    }

    /// Gigabit Ethernet (the paper's slow cross-machine configuration).
    pub fn ethernet_1g() -> Self {
        Interconnect { bandwidth_bytes: 0.125e9, latency_s: 100e-6 }
    }

    /// 100 Gb/s InfiniBand (Mellanox, the paper's fast fabric).
    pub fn infiniband_100g() -> Self {
        Interconnect { bandwidth_bytes: 12.5e9, latency_s: 2e-6 }
    }

    /// Time to move `bytes` across the link once.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / self.bandwidth_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p4000_matches_table4() {
        let g = GpuSpec::quadro_p4000();
        assert_eq!(g.multiprocessors, 14);
        assert_eq!(g.cuda_cores, 1792);
        assert_eq!(g.memory_bytes, 8 * 1024 * 1024 * 1024);
        // 2 * 1792 * 1.48 GHz ≈ 5.3 TFLOPS.
        assert!((g.peak_gflops() - 5304.3).abs() < 1.0);
    }

    #[test]
    fn titan_xp_is_roughly_2x_p4000() {
        let p = GpuSpec::quadro_p4000();
        let t = GpuSpec::titan_xp();
        let ratio = t.peak_gflops() / p.peak_gflops();
        assert!(ratio > 2.0 && ratio < 2.5, "ratio {ratio}");
        assert!(t.memory_bw_gbs / p.memory_bw_gbs > 2.0);
    }

    #[test]
    fn xeon_matches_table4() {
        let c = CpuSpec::xeon_e5_2680();
        assert_eq!(c.cores, 28);
        assert_eq!(c.max_clock_mhz, 2900);
    }

    #[test]
    fn prices_are_stable_constants() {
        let p = GpuSpec::quadro_p4000();
        let t = GpuSpec::titan_xp();
        assert!(p.price_per_hour > 0.0 && t.price_per_hour > p.price_per_hour);
    }

    #[test]
    fn interconnect_ordering() {
        let eth = Interconnect::ethernet_1g();
        let ib = Interconnect::infiniband_100g();
        let pcie = Interconnect::pcie3_x16();
        let payload = 100e6; // ResNet-50 gradients ≈ 100 MB
        assert!(eth.transfer_time(payload) > ib.transfer_time(payload));
        assert!(ib.transfer_time(payload) > pcie.transfer_time(payload) * 0.5);
        // Ethernet moves 100 MB in ~0.8 s — far longer than an iteration.
        assert!(eth.transfer_time(payload) > 0.5);
    }
}
