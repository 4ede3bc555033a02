//! Device memory accounting with the paper's five allocation categories.
//!
//! The paper's memory profiler (§3.4.3) classifies every allocation as
//! weights, weight gradients, feature maps, workspace or "dynamic"
//! (allocations made *during* iterations, e.g. MXNet momentum buffers) and
//! reports the peak of each. [`DeviceMemory`] reproduces that accounting
//! and enforces the device capacity, so over-large mini-batches fail with
//! [`OutOfMemory`] exactly where the paper reports infeasible
//! configurations.

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use tbd_graph::trace::{EventKind, TraceEvent, TraceLayer, TraceRecorder};

/// Chrome-trace track used for memory events within the gpusim layer.
const MEMORY_TRACK: u32 = 2;

/// Allocation category tracked by the memory profiler (paper Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryCategory {
    /// Model weights.
    Weights,
    /// Weight gradients.
    WeightGrads,
    /// Feature maps (stashed activations and auxiliary buffers).
    FeatureMaps,
    /// Kernel scratch workspace.
    Workspace,
    /// Allocations made during training iterations (momentum, temporaries).
    Dynamic,
}

impl MemoryCategory {
    /// All categories in the order the paper plots them.
    pub const ALL: [MemoryCategory; 5] = [
        MemoryCategory::FeatureMaps,
        MemoryCategory::Weights,
        MemoryCategory::WeightGrads,
        MemoryCategory::Dynamic,
        MemoryCategory::Workspace,
    ];

    fn index(self) -> usize {
        match self {
            MemoryCategory::FeatureMaps => 0,
            MemoryCategory::Weights => 1,
            MemoryCategory::WeightGrads => 2,
            MemoryCategory::Dynamic => 3,
            MemoryCategory::Workspace => 4,
        }
    }
}

impl fmt::Display for MemoryCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryCategory::FeatureMaps => "feature maps",
            MemoryCategory::Weights => "weights",
            MemoryCategory::WeightGrads => "weight gradients",
            MemoryCategory::Dynamic => "dynamic",
            MemoryCategory::Workspace => "workspace",
        };
        f.write_str(s)
    }
}

/// Returned when an allocation exceeds the device capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the allocation requested.
    pub requested: u64,
    /// Bytes still available on the device.
    pub available: u64,
    /// Category of the failing allocation.
    pub category: MemoryCategory,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: {} allocation of {} bytes exceeds {} available",
            self.category, self.requested, self.available
        )
    }
}

impl Error for OutOfMemory {}

/// Peak memory usage per category, as the paper's profiler reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBreakdown {
    peaks: [u64; 5],
}

impl MemoryBreakdown {
    /// Peak bytes ever allocated in `category`.
    pub fn peak(&self, category: MemoryCategory) -> u64 {
        self.peaks[category.index()]
    }

    /// Sum of all per-category peaks.
    pub fn total(&self) -> u64 {
        self.peaks.iter().sum()
    }

    /// Fraction of the total footprint held by feature maps
    /// (the paper's Observation 11 reports 62–89 %).
    pub fn feature_map_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.peak(MemoryCategory::FeatureMaps) as f64 / self.total() as f64
        }
    }
}

/// A capacity-enforcing device-memory account.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    capacity: u64,
    current: [u64; 5],
    peaks: [u64; 5],
    /// Shared trace sink; every alloc/free — **including failing
    /// allocations** — is emitted as an instant event so traces explain
    /// OOMs (the paper's profiler reports exactly which category blew the
    /// budget).
    tracer: Option<Arc<TraceRecorder>>,
    /// Logical event clock: allocator events have no duration, so they are
    /// sequenced by a deterministic counter instead of wall time.
    seq: u64,
}

impl DeviceMemory {
    /// Creates an empty account with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory { capacity, current: [0; 5], peaks: [0; 5], tracer: None, seq: 0 }
    }

    /// Attaches a shared trace recorder; subsequent allocator activity is
    /// emitted as deterministic instant events on the memory track.
    pub fn set_tracer(&mut self, tracer: Option<Arc<TraceRecorder>>) {
        self.tracer = tracer;
    }

    fn emit(&mut self, kind: EventKind, category: MemoryCategory, bytes: u64) {
        let Some(tracer) = &self.tracer else { return };
        let at = self.seq as f64;
        self.seq += 1;
        let used = self.used();
        tracer.record(
            TraceEvent::instant(category.to_string(), TraceLayer::GpuSim, kind, at)
                .on_track(MEMORY_TRACK)
                .with_arg("bytes", bytes)
                .with_arg("used", used)
                .with_arg("available", self.capacity - used),
        );
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated across all categories.
    pub fn used(&self) -> u64 {
        self.current.iter().sum()
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Allocates `bytes` in `category`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the allocation would exceed capacity;
    /// the account is left unchanged in that case.
    pub fn alloc(&mut self, category: MemoryCategory, bytes: u64) -> Result<(), OutOfMemory> {
        if bytes > self.available() {
            // Previously the OOM path returned without recording anything,
            // so a trace of a failed run ended silently mid-allocation.
            // Emit the failing request before erroring out.
            self.emit(EventKind::AllocFail, category, bytes);
            return Err(OutOfMemory { requested: bytes, available: self.available(), category });
        }
        let i = category.index();
        self.current[i] += bytes;
        self.peaks[i] = self.peaks[i].max(self.current[i]);
        self.emit(EventKind::Alloc, category, bytes);
        Ok(())
    }

    /// Releases `bytes` from `category` (saturating).
    pub fn free(&mut self, category: MemoryCategory, bytes: u64) {
        let i = category.index();
        self.current[i] = self.current[i].saturating_sub(bytes);
        self.emit(EventKind::Free, category, bytes);
    }

    /// Snapshot of the per-category peaks.
    pub fn breakdown(&self) -> MemoryBreakdown {
        MemoryBreakdown { peaks: self.peaks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_and_peaks() {
        let mut m = DeviceMemory::new(1000);
        m.alloc(MemoryCategory::Weights, 300).unwrap();
        m.alloc(MemoryCategory::FeatureMaps, 500).unwrap();
        m.free(MemoryCategory::FeatureMaps, 200);
        m.alloc(MemoryCategory::FeatureMaps, 100).unwrap();
        let b = m.breakdown();
        assert_eq!(b.peak(MemoryCategory::Weights), 300);
        assert_eq!(b.peak(MemoryCategory::FeatureMaps), 500);
        assert_eq!(m.used(), 700);
    }

    #[test]
    fn oom_is_reported_and_state_unchanged() {
        let mut m = DeviceMemory::new(100);
        m.alloc(MemoryCategory::Weights, 80).unwrap();
        let err = m.alloc(MemoryCategory::FeatureMaps, 30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.available, 20);
        assert_eq!(m.used(), 80);
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn free_saturates() {
        let mut m = DeviceMemory::new(100);
        m.alloc(MemoryCategory::Dynamic, 10).unwrap();
        m.free(MemoryCategory::Dynamic, 50);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn feature_map_fraction() {
        let mut m = DeviceMemory::new(1000);
        m.alloc(MemoryCategory::FeatureMaps, 700).unwrap();
        m.alloc(MemoryCategory::Weights, 150).unwrap();
        m.alloc(MemoryCategory::WeightGrads, 150).unwrap();
        let f = m.breakdown().feature_map_fraction();
        assert!((f - 0.7).abs() < 1e-9);
        assert_eq!(MemoryBreakdown::default().feature_map_fraction(), 0.0);
    }

    #[test]
    fn allocator_events_cover_alloc_free_and_the_oom_path() {
        // Regression: the OOM path used to record no event at all, so a
        // trace of a failed run gave no clue which allocation blew the
        // budget. The failing request must appear as an AllocFail event
        // carrying the requested size and the bytes that were available.
        let tracer = TraceRecorder::shared();
        let mut m = DeviceMemory::new(100);
        m.set_tracer(Some(Arc::clone(&tracer)));
        m.alloc(MemoryCategory::Weights, 60).unwrap();
        m.free(MemoryCategory::Weights, 10);
        let err = m.alloc(MemoryCategory::FeatureMaps, 80).unwrap_err();
        assert_eq!(err.requested, 80);
        let store = tracer.drain();
        let events: Vec<_> = store.iter().collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Alloc);
        assert_eq!(events[1].kind, EventKind::Free);
        let fail = &events[2];
        assert_eq!(fail.kind, EventKind::AllocFail);
        assert_eq!(fail.name, "feature maps");
        assert!(fail.args.contains(&("bytes", 80u64.into())));
        assert!(fail.args.contains(&("available", 50u64.into())));
        assert!(fail.deterministic, "allocator events are logically timed");
        // Events are sequenced by the logical clock, in program order.
        assert!(events.windows(2).all(|w| w[0].start_us < w[1].start_us));
    }

    #[test]
    fn untraced_account_emits_nothing_and_still_errors() {
        let mut m = DeviceMemory::new(10);
        assert!(m.alloc(MemoryCategory::Dynamic, 20).is_err());
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn categories_display() {
        assert_eq!(MemoryCategory::FeatureMaps.to_string(), "feature maps");
        assert_eq!(MemoryCategory::ALL.len(), 5);
    }
}
