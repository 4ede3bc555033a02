//! nvprof-style kernel aggregation (paper Tables 5 and 6).

use tbd_frameworks::{Framework, KernelRecord};

/// One row of a "longest kernels with below-average FP32 utilisation"
/// table.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTableRow {
    /// Fraction of total GPU busy time, 0–1.
    pub duration_share: f64,
    /// Mean FP32 utilisation of the kernel, 0–1.
    pub fp32_utilization: f64,
    /// Framework-specific kernel name.
    pub name: String,
}

/// Aggregates a kernel trace by framework kernel name and returns the `n`
/// longest-running kernels whose FP32 utilisation is **below** the
/// duration-weighted average — the exact selection of the paper's Tables 5
/// and 6 ("longest 5 kernels with utilization level below the average").
pub fn kernel_table(
    records: &[KernelRecord],
    framework: Framework,
    n: usize,
) -> Vec<KernelTableRow> {
    use std::collections::HashMap;
    let total: f64 = records.iter().map(|r| r.duration_s).sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let average: f64 =
        records.iter().map(|r| r.fp32_utilization * r.duration_s).sum::<f64>() / total;
    let mut by_name: HashMap<String, (f64, f64)> = HashMap::new();
    for r in records {
        let e = by_name.entry(framework.kernel_name(r)).or_insert((0.0, 0.0));
        e.0 += r.duration_s;
        e.1 += r.fp32_utilization * r.duration_s;
    }
    let mut rows: Vec<KernelTableRow> = by_name
        .into_iter()
        .map(|(name, (dur, util_weighted))| KernelTableRow {
            duration_share: dur / total,
            fp32_utilization: util_weighted / dur,
            name,
        })
        .filter(|row| row.fp32_utilization < average)
        .collect();
    rows.sort_by(|a, b| b.duration_share.partial_cmp(&a.duration_share).expect("finite"));
    rows.truncate(n);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::{KernelClass, Phase};

    fn rec(class: KernelClass, duration_s: f64, util: f64) -> KernelRecord {
        KernelRecord {
            origin: "x",
            node: tbd_graph::NodeId::from_index(0),
            class,
            phase: Phase::Forward,
            duration_s,
            end_s: duration_s,
            fp32_utilization: util,
            flops: 1.0,
            bound: tbd_gpusim::Bound::Compute,
        }
    }

    #[test]
    fn selects_long_low_utilization_kernels() {
        let records = vec![
            rec(KernelClass::ConvForward, 5.0, 0.7),
            rec(KernelClass::BatchNormForward, 2.0, 0.3),
            rec(KernelClass::BatchNormBackward, 3.0, 0.35),
            rec(KernelClass::Elementwise, 0.5, 0.1),
        ];
        let rows = kernel_table(&records, Framework::tensorflow(), 5);
        // Average util ≈ 0.51; conv is above it and must be excluded.
        assert!(rows.iter().all(|r| !r.name.contains("convolve")));
        // bn_bw is the longest offender.
        assert!(rows[0].name.contains("bn_bw"), "{}", rows[0].name);
        assert!(rows[0].duration_share > rows[1].duration_share);
    }

    #[test]
    fn aggregation_merges_same_kernel_names() {
        let records = vec![
            rec(KernelClass::BatchNormForward, 1.0, 0.2),
            rec(KernelClass::BatchNormForward, 1.0, 0.4),
            rec(KernelClass::ConvForward, 8.0, 0.9),
        ];
        let rows = kernel_table(&records, Framework::mxnet(), 5);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].fp32_utilization - 0.3).abs() < 1e-9);
        assert!((rows[0].duration_share - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_gives_empty_table() {
        assert!(kernel_table(&[], Framework::cntk(), 5).is_empty());
    }

    #[test]
    fn truncates_to_n_rows() {
        let records = vec![
            rec(KernelClass::BatchNormForward, 1.0, 0.1),
            rec(KernelClass::BatchNormBackward, 1.0, 0.1),
            rec(KernelClass::Elementwise, 1.0, 0.1),
            rec(KernelClass::SoftmaxForward, 1.0, 0.1),
            rec(KernelClass::ConvForward, 10.0, 0.9),
        ];
        let rows = kernel_table(&records, Framework::tensorflow(), 2);
        assert_eq!(rows.len(), 2);
    }
}
