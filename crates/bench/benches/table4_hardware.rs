//! Regenerates Table 4: hardware specifications of the evaluation devices.

use tbd_core::{CpuSpec, GpuSpec};

fn main() {
    let xp = GpuSpec::titan_xp();
    let p4 = GpuSpec::quadro_p4000();
    let cpu = CpuSpec::xeon_e5_2680();
    println!("Table 4 — hardware specifications");
    println!("{:<24} {:>12} {:>14} {:>18}", "", "Titan Xp", "Quadro P4000", "Xeon E5-2680");
    println!(
        "{:<24} {:>12} {:>14} {:>18}",
        "Multiprocessors", xp.multiprocessors, p4.multiprocessors, "-"
    );
    println!("{:<24} {:>12} {:>14} {:>18}", "Core count", xp.cuda_cores, p4.cuda_cores, cpu.cores);
    println!(
        "{:<24} {:>12} {:>14} {:>18}",
        "Max clock (MHz)", xp.max_clock_mhz, p4.max_clock_mhz, cpu.max_clock_mhz
    );
    println!(
        "{:<24} {:>12} {:>14} {:>18}",
        "Memory (GB)",
        xp.memory_bytes / (1 << 30),
        p4.memory_bytes / (1 << 30),
        cpu.memory_bytes / (1 << 30)
    );
    println!(
        "{:<24} {:>12} {:>14} {:>18}",
        "Memory BW (GB/s)", xp.memory_bw_gbs, p4.memory_bw_gbs, 76.8
    );
    println!(
        "{:<24} {:>12.1} {:>14.1} {:>18}",
        "Peak FP32 (TFLOP/s)",
        xp.peak_gflops() / 1000.0,
        p4.peak_gflops() / 1000.0,
        "-"
    );
}
