//! Allocation counting and span-level memory attribution.
//!
//! [`CountingAlloc`] wraps the system allocator and tracks live bytes and
//! the high-water mark with relaxed atomics (the counters are a
//! diagnostic, not a synchronization point). Binaries install it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: amrviz_obs::mem::CountingAlloc = amrviz_obs::mem::CountingAlloc;
//! ```
//!
//! Two views are maintained:
//!
//! * **Global** — process-wide live/peak bytes, used by the torture runners'
//!   bounded-memory assertions ([`alloc_baseline`] / [`peak_since`]).
//! * **Per-thread** —
//!   `const`-initialized thread-local counters, safe to touch from inside
//!   `GlobalAlloc` because they never allocate or run destructors. Each
//!   [`crate::SpanGuard`] saves the thread counters on entry and computes
//!   `net`/`peak` deltas on exit via a watermark stack, so every recorded
//!   span carries `mem_net_bytes` (bytes still live at span end that were
//!   allocated inside it — negative when the span freed more than it
//!   allocated) and `mem_peak_bytes` (the span's own allocation high-water
//!   mark above its entry level). Nested spans restore the parent's
//!   watermark with `max`, so a child's peak is also visible to the parent.
//!
//! When the allocator is *not* installed the counters stay at zero and
//! [`counting_alloc_installed`] reports so; all deltas read as 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // const-initialized Cells: no lazy init, no destructor, no allocation —
    // the only thread-local shapes that are safe inside a global allocator.
    static T_CUR: Cell<i64> = const { Cell::new(0) };
    static T_PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Global allocator wrapper that counts live and peak bytes.
pub struct CountingAlloc;

#[inline]
fn add(n: usize) {
    let cur = CURRENT.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(cur, Ordering::Relaxed);
    T_CUR.with(|c| {
        let v = c.get() + n as i64;
        c.set(v);
        T_PEAK.with(|p| {
            if v > p.get() {
                p.set(v);
            }
        });
    });
}

#[inline]
fn sub(n: usize) {
    CURRENT.fetch_sub(n, Ordering::Relaxed);
    // Note: cross-thread frees (allocate on worker A, drop on worker B)
    // make the per-thread counter go negative on B; the i64 domain and the
    // saturating span math below absorb that.
    T_CUR.with(|c| c.set(c.get() - n as i64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            sub(layout.size());
            add(new_size);
        }
        p
    }
}

/// Resets the global high-water mark to the current live count and returns
/// the baseline. Call before the operation under test.
pub fn alloc_baseline() -> usize {
    let cur = CURRENT.load(Ordering::Relaxed);
    PEAK.store(cur, Ordering::Relaxed);
    cur
}

/// Peak bytes allocated *above* `baseline` since [`alloc_baseline`].
pub fn peak_since(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Whether allocations are actually being counted (i.e. [`CountingAlloc`]
/// is the process's global allocator).
pub fn counting_alloc_installed() -> bool {
    // If anything at all has been counted, the allocator is live. A Rust
    // process that has reached user code has long since allocated.
    CURRENT.load(Ordering::Relaxed) > 0 || PEAK.load(Ordering::Relaxed) > 0
}

/// Collapses the global high-water mark back to the current live count —
/// part of [`crate::reset`], so successive measurements don't inherit a
/// stale peak.
///
/// # Safety under active spans
///
/// This touches **only** the global `PEAK` atomic. The per-thread
/// watermark state (`T_CUR`/`T_PEAK`) and the `MemFrame`s saved by
/// in-flight [`crate::SpanGuard`]s are deliberately left alone: each
/// frame's `start_cur`/`saved_peak` live in the guard itself, so a
/// `reset()` racing with active spans can never unbalance a
/// `frame_enter`/`frame_exit` pair or corrupt the watermark stack — the
/// long-running-service requirement. See
/// `reset_peak_during_active_frames_is_safe`.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Saved per-thread state for one span; see [`frame_enter`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemFrame {
    start_cur: i64,
    saved_peak: i64,
}

/// Opens a watermark frame for a starting span: remembers the thread's live
/// count and outer watermark, then collapses the watermark to "now" so the
/// span measures only its own allocations.
#[inline]
pub(crate) fn frame_enter() -> MemFrame {
    let cur = T_CUR.with(Cell::get);
    let saved_peak = T_PEAK.with(|p| {
        let saved = p.get();
        p.set(cur);
        saved
    });
    MemFrame {
        start_cur: cur,
        saved_peak,
    }
}

/// Closes a watermark frame: returns `(net_bytes, peak_bytes)` for the span
/// and restores the enclosing span's watermark (taking the child peak into
/// account, so parents see through their children).
#[inline]
pub(crate) fn frame_exit(frame: MemFrame) -> (i64, u64) {
    let cur = T_CUR.with(Cell::get);
    let peak = T_PEAK.with(|p| {
        let peak = p.get();
        p.set(peak.max(frame.saved_peak));
        peak
    });
    let net = cur - frame.start_cur;
    let peak_delta = (peak - frame.start_cur).max(0) as u64;
    (net, peak_delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global alloc counters.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    // Not installed as #[global_allocator] in this test binary, so the
    // counters stay quiet; exercise the raw bookkeeping directly.
    #[test]
    fn bookkeeping_tracks_peak_above_baseline() {
        let _g = guard();
        let base = alloc_baseline();
        add(1000);
        add(500);
        sub(1500);
        assert!(peak_since(base) >= 1500);
        let base2 = alloc_baseline();
        assert_eq!(peak_since(base2), 0);
    }

    #[test]
    fn frames_attribute_net_and_peak_to_the_span() {
        let _g = guard();
        // Simulate: outer span allocates 100, child allocates 1000 and
        // frees 900, outer then frees 50.
        let outer = frame_enter();
        add(100);
        let child = frame_enter();
        add(1000);
        sub(900);
        let (net_c, peak_c) = frame_exit(child);
        assert_eq!(net_c, 100);
        assert_eq!(peak_c, 1000);
        sub(50);
        let (net_o, peak_o) = frame_exit(outer);
        assert_eq!(net_o, 150);
        // Outer's watermark saw the child's transient 1000 on top of its
        // own 100.
        assert_eq!(peak_o, 1100);
        sub(150); // balance the books for other tests sharing the globals
    }

    #[test]
    fn reset_peak_during_active_frames_is_safe() {
        let _g = guard();
        // A reset fired while watermark frames are open (the long-running
        // service pattern: obs::reset() between "requests" racing a span
        // that straddles the boundary) must not corrupt per-span
        // attribution — reset_peak touches only the global peak.
        let outer = frame_enter();
        add(100);
        let inner = frame_enter();
        add(1000);
        reset_peak(); // mid-frame reset
        sub(900);
        let (net_i, peak_i) = frame_exit(inner);
        assert_eq!(net_i, 100, "inner net unaffected by reset_peak");
        assert_eq!(peak_i, 1000, "inner peak unaffected by reset_peak");
        sub(50);
        let (net_o, peak_o) = frame_exit(outer);
        assert_eq!(net_o, 150);
        assert_eq!(peak_o, 1100, "parent still sees through the child");
        sub(150); // balance the global books for other tests
    }

    #[test]
    fn freeing_more_than_allocated_goes_negative() {
        let _g = guard();
        add(500); // pre-existing allocation outside the span
        let f = frame_enter();
        sub(400);
        let (net, peak) = frame_exit(f);
        assert_eq!(net, -400);
        assert_eq!(peak, 0);
        sub(100);
    }
}
