//! Thread-local scratch-buffer arena for kernel workspaces.
//!
//! The packed GEMM and im2col convolution kernels allocate sizeable
//! temporary buffers (`B` panels, `A` micro-panel blocks, column matrices)
//! on every call. Under the `capture()` hot path the same shapes recur every
//! iteration, so those allocations are pure churn. This module keeps a small
//! per-thread pool of retired buffers, binned by power-of-two capacity, and
//! hands them back zeroed — callers observe exactly the semantics of
//! `vec![0.0f32; len]`, so results are bitwise identical with the arena on
//! or off.
//!
//! Design constraints:
//!
//! * **Determinism.** Reuse only changes *where* a buffer lives, never what
//!   it contains: [`take_zeroed`] always returns an all-zero slice of the
//!   requested length. Runtime hit/miss counters depend on thread count
//!   (worker threads own separate bins), so they are reported through the
//!   wall-clock side of the bench trajectory, never through digest-bearing
//!   trace events.
//! * **Bounded footprint.** Each bin retains at most `MAX_PER_BIN`
//!   buffers and nothing above `MAX_BIN_BYTES`; everything else drops to
//!   the system allocator as before.
//! * **No locks on the hot path.** Bins are `thread_local`; only the
//!   monotonic statistics counters are shared atomics.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of power-of-two size classes tracked (2⁰ ‥ 2³⁹ floats).
const BINS: usize = 40;
/// Retired buffers kept per size class before falling back to `drop`.
const MAX_PER_BIN: usize = 4;
/// Buffers above this byte size are never pooled (one-off giants).
const MAX_BIN_BYTES: usize = 1 << 28;
/// Buffers below this length are cheaper to allocate than to pool.
const MIN_POOL_LEN: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(true);
static FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);
static BYTES_REQUESTED: AtomicU64 = AtomicU64::new(0);
static BYTES_REUSED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static POOL: RefCell<Vec<Vec<Vec<f32>>>> =
        RefCell::new((0..BINS).map(|_| Vec::new()).collect());
}

/// Monotonic allocator counters, aggregated across all threads since process
/// start (or the last [`reset_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Buffers that had to come from the system allocator.
    pub fresh_allocs: u64,
    /// Buffers served from a thread-local bin.
    pub reuses: u64,
    /// Total bytes requested through [`take_zeroed`].
    pub bytes_requested: u64,
    /// Bytes of those requests served by reuse.
    pub bytes_reused: u64,
}

impl ArenaStats {
    /// Fraction of requested bytes served without touching the system
    /// allocator; `0.0` when nothing has been requested.
    pub fn reuse_fraction(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            self.bytes_reused as f64 / self.bytes_requested as f64
        }
    }
}

/// Size class for a *request* of `len` floats: the smallest class whose
/// pooled buffers are guaranteed to have capacity ≥ `len`.
fn request_bin(len: usize) -> usize {
    (usize::BITS - (len.max(1) - 1).leading_zeros()) as usize
}

/// Size class for a *retired* buffer: the largest class its capacity fully
/// covers, so any request routed to that class fits without reallocating.
fn retire_bin(capacity: usize) -> usize {
    (usize::BITS - 1 - capacity.leading_zeros()) as usize
}

/// Returns an all-zero buffer of exactly `len` floats, reusing a pooled
/// allocation when one of sufficient capacity is available on this thread.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    BYTES_REQUESTED.fetch_add(4 * len as u64, Ordering::Relaxed);
    let bin = request_bin(len);
    let pooled = ENABLED.load(Ordering::Relaxed) && len >= MIN_POOL_LEN && bin < BINS;
    if pooled {
        let hit = POOL.with(|pool| pool.borrow_mut()[bin].pop());
        if let Some(mut buf) = hit {
            debug_assert!(buf.capacity() >= len);
            buf.clear();
            buf.resize(len, 0.0);
            REUSES.fetch_add(1, Ordering::Relaxed);
            BYTES_REUSED.fetch_add(4 * len as u64, Ordering::Relaxed);
            return buf;
        }
    }
    FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
    if pooled && (4usize << bin) <= MAX_BIN_BYTES {
        // The request class's full power-of-two capacity, so `recycle`
        // files the buffer under the very class it is requested from (a
        // `len`-capacity buffer retires one class lower and would never
        // serve this length again). Zero-allocated: a large tail past `len`
        // is not paged in until a longer request of the class reuses it.
        let mut buf = vec![0.0f32; 1 << bin];
        buf.truncate(len);
        buf
    } else {
        vec![0.0f32; len]
    }
}

/// Retires a scratch buffer into this thread's pool for later reuse.
///
/// Dropping the buffer instead is always safe; recycling is purely an
/// optimisation. Buffers that are tiny, enormous, or land in a full bin are
/// released to the system allocator.
pub fn recycle(buf: Vec<f32>) {
    let cap = buf.capacity();
    if !ENABLED.load(Ordering::Relaxed) || cap < MIN_POOL_LEN || cap * 4 > MAX_BIN_BYTES {
        return;
    }
    let bin = retire_bin(cap);
    if bin >= BINS {
        return;
    }
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool[bin].len() < MAX_PER_BIN {
            pool[bin].push(buf);
        }
    });
}

/// Drops every pooled buffer owned by the calling thread.
pub fn clear() {
    POOL.with(|pool| {
        for bin in pool.borrow_mut().iter_mut() {
            bin.clear();
        }
    });
}

/// Globally enables or disables pooling. Disabling makes [`take_zeroed`]
/// behave exactly like `vec![0.0; len]` and [`recycle`] like `drop`.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether pooling is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Snapshot of the global counters.
pub fn stats() -> ArenaStats {
    ArenaStats {
        fresh_allocs: FRESH_ALLOCS.load(Ordering::Relaxed),
        reuses: REUSES.load(Ordering::Relaxed),
        bytes_requested: BYTES_REQUESTED.load(Ordering::Relaxed),
        bytes_reused: BYTES_REUSED.load(Ordering::Relaxed),
    }
}

/// Zeroes the global counters (the pools themselves are left intact).
pub fn reset_stats() {
    FRESH_ALLOCS.store(0, Ordering::Relaxed);
    REUSES.store(0, Ordering::Relaxed);
    BYTES_REQUESTED.store(0, Ordering::Relaxed);
    BYTES_REUSED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_always_zeroed_even_after_dirty_recycle() {
        clear();
        let mut buf = take_zeroed(4096);
        buf.iter_mut().for_each(|v| *v = 7.25);
        recycle(buf);
        let again = take_zeroed(4096);
        assert_eq!(again.len(), 4096);
        assert!(again.iter().all(|&v| v == 0.0));
        recycle(again);
        // A smaller request from the same class must also come back zeroed
        // and exactly sized.
        let smaller = take_zeroed(3000);
        assert_eq!(smaller.len(), 3000);
        assert!(smaller.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recurring_non_power_of_two_request_is_reused() {
        let _g = ENABLE_GUARD.lock().unwrap();
        clear();
        // 41 067 floats: the stem convolution's unfold buffer. A fresh
        // buffer must retire into the class it is requested from.
        let len = 41_067;
        let a = take_zeroed(len);
        let ptr = a.as_ptr();
        recycle(a);
        assert_eq!(POOL.with(|pool| pool.borrow()[request_bin(len)].len()), 1);
        let b = take_zeroed(len);
        assert_eq!(b.as_ptr(), ptr, "the recycled buffer must come back");
        assert_eq!(b.len(), len);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recycled_capacity_always_covers_rebinned_requests() {
        clear();
        // Capacity 5000 retires into the 4096 class; requests of up to 4096
        // floats may be served from it and must fit without reallocation.
        let buf = Vec::with_capacity(5000);
        recycle(buf);
        let got = take_zeroed(4096);
        assert!(got.capacity() >= 4096);
        assert_eq!(got.len(), 4096);
    }

    // The counters are process-global while pools are thread-local, so these
    // tests assert *deltas contributed by this thread* with `>=` where other
    // concurrently running tests could also bump a counter. Tests that
    // toggle the global enable flag serialise on this lock.
    static ENABLE_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn stats_count_reuse() {
        let _g = ENABLE_GUARD.lock().unwrap();
        clear();
        let before = stats();
        let a = take_zeroed(1 << 12);
        recycle(a);
        let b = take_zeroed(1 << 12);
        let after = stats();
        assert!(after.reuses > before.reuses);
        assert!(after.fresh_allocs > before.fresh_allocs);
        assert!(after.bytes_requested >= before.bytes_requested + 2 * 4 * (1 << 12));
        assert!(after.bytes_reused >= before.bytes_reused + 4 * (1 << 12));
        assert!(after.reuse_fraction() > 0.0);
        recycle(b);
    }

    #[test]
    fn disabled_arena_never_pools() {
        let _g = ENABLE_GUARD.lock().unwrap();
        clear();
        set_enabled(false);
        let a = take_zeroed(1 << 12);
        let bin = retire_bin(a.capacity());
        recycle(a);
        // The thread-local bin must stay empty while pooling is off.
        let pooled = POOL.with(|pool| pool.borrow()[bin].len());
        assert_eq!(pooled, 0);
        set_enabled(true);
    }

    #[test]
    fn pooling_is_bitwise_invisible_to_gemm_and_conv() {
        let _g = ENABLE_GUARD.lock().unwrap();
        let a = crate::Tensor::from_fn([48, 130], |i| ((i * 31 % 101) as f32 - 50.0) * 0.02);
        let b = crate::Tensor::from_fn([130, 72], |i| ((i * 17 % 103) as f32 - 51.0) * 0.02);
        let x = crate::Tensor::from_fn([2, 3, 8, 8], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1);
        let w = crate::Tensor::from_fn([4, 3, 3, 3], |i| ((i * 5 % 11) as f32 - 5.0) * 0.1);
        let cfg = crate::ops::Conv2dConfig::new(1, 1);
        set_enabled(false);
        let mm_off = crate::ops::matmul(&a, &b).unwrap();
        let cv_off = crate::ops::conv2d_forward(&x, &w, cfg).unwrap();
        set_enabled(true);
        clear();
        // Run twice so the second pass actually reuses pooled buffers.
        let _warmup = crate::ops::matmul(&a, &b).unwrap();
        let _warmup = crate::ops::conv2d_forward(&x, &w, cfg).unwrap();
        let mm_on = crate::ops::matmul(&a, &b).unwrap();
        let cv_on = crate::ops::conv2d_forward(&x, &w, cfg).unwrap();
        assert_eq!(mm_off.data(), mm_on.data());
        assert_eq!(cv_off.data(), cv_on.data());
    }

    #[test]
    fn tiny_and_zero_requests_bypass_the_pool() {
        clear();
        assert!(take_zeroed(0).is_empty());
        let t = take_zeroed(8);
        assert_eq!(t.len(), 8);
        let bin = retire_bin(t.capacity());
        recycle(t);
        let pooled = POOL.with(|pool| pool.borrow()[bin].len());
        assert_eq!(pooled, 0); // below MIN_POOL_LEN, never retained
    }
}
