//! `amrviz-par` — a deterministic fork–join worker pool on plain `std`.
//!
//! The compress→viz pipeline is embarrassingly parallel across AMR boxes,
//! levels, slabs, and SSIM windows, but the ROADMAP demands *bit-identical*
//! output at any thread count: compressed byte streams, meshes, and metrics
//! must not depend on scheduling. The pool guarantees that by construction:
//!
//! * **Index-ordered merge** — [`run`] evaluates a pure-per-index closure
//!   with dynamic (work-stealing-style) scheduling, but results are always
//!   collected into their index slot, so the output `Vec` is the same as a
//!   serial loop's.
//! * **No scheduling-ordered float reductions** — reductions go through
//!   [`run`] on *fixed* chunk boundaries and are combined sequentially in
//!   chunk order (see `amrviz-metrics`), never via first-come-first-served
//!   atomics, so `a + (b + c)` groupings cannot vary between runs.
//! * **Bounded nesting** — a task that itself calls into the pool runs its
//!   inner region serially; thread count stays `threads()` regardless of
//!   call depth, and nested regions stay deterministic trivially.
//! * **Per-thread scratch** — the [`scratch`] module pools reusable working
//!   buffers per thread for the zero-copy hot path; see its docs for why
//!   pooling cannot perturb bit-identical outputs.
//!
//! Thread count resolution (first match wins): [`set_threads`] (the CLI's
//! `--threads N`), the `AMRVIZ_THREADS` environment variable, then
//! `std::thread::available_parallelism()`. `threads() == 1` runs everything
//! inline on the caller with zero synchronization.
//!
//! Workers re-enter the submitting thread's full `amrviz-obs` trace
//! context (open span *and* trace id, via `current_context` /
//! `context_scope`), so spans created inside tasks nest correctly and the
//! whole fan-out stitches into one causal tree per root; each worker's
//! busy wall time is accumulated for the `--timing` utilization report
//! ([`utilization`]).

pub mod scratch;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap, matching the utilization table size.
pub const MAX_THREADS: usize = 256;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while a worker executes pool tasks; nested regions run serially.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Forces the pool width (the `--threads N` flag). Clamped to
/// `1..=MAX_THREADS`; takes precedence over `AMRVIZ_THREADS`.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Resolved pool width: override → `AMRVIZ_THREADS` → available parallelism.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var("AMRVIZ_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .map(|n| n.min(MAX_THREADS))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get().min(MAX_THREADS))
                    .unwrap_or(1)
            })
    })
}

// ---------------------------------------------------------------------------
// Utilization accounting
// ---------------------------------------------------------------------------

struct Utilization {
    /// Busy seconds per worker slot (slot 0 is the submitting thread).
    busy: Vec<f64>,
    /// Wall seconds spent inside parallel regions (outermost only).
    region_wall: f64,
    /// Number of outermost parallel regions entered.
    regions: u64,
}

fn util() -> &'static Mutex<Utilization> {
    static U: OnceLock<Mutex<Utilization>> = OnceLock::new();
    U.get_or_init(|| {
        Mutex::new(Utilization {
            busy: Vec::new(),
            region_wall: 0.0,
            regions: 0,
        })
    })
}

fn lock_util() -> std::sync::MutexGuard<'static, Utilization> {
    util().lock().unwrap_or_else(|e| e.into_inner())
}

fn record_region(busy_per_slot: &[f64], wall: f64) {
    let mut u = lock_util();
    if u.busy.len() < busy_per_slot.len() {
        u.busy.resize(busy_per_slot.len(), 0.0);
    }
    for (slot, &b) in busy_per_slot.iter().enumerate() {
        u.busy[slot] += b;
    }
    u.region_wall += wall;
    u.regions += 1;
}

/// Per-worker utilization snapshot.
#[derive(Debug, Clone, Default)]
pub struct UtilizationReport {
    /// Busy seconds per worker slot (slot 0 = submitting thread).
    pub busy_seconds: Vec<f64>,
    /// Wall seconds spent inside outermost parallel regions.
    pub region_wall_seconds: f64,
    /// Outermost parallel regions entered since the last reset.
    pub regions: u64,
}

impl UtilizationReport {
    /// Pool efficiency in `[0, 1]`: mean busy fraction across slots while
    /// inside parallel regions. 1.0 means every worker was busy the whole
    /// time; `None` before any region ran.
    pub fn efficiency(&self) -> Option<f64> {
        if self.region_wall_seconds <= 0.0 || self.busy_seconds.is_empty() {
            return None;
        }
        let total_busy: f64 = self.busy_seconds.iter().sum();
        Some(
            (total_busy / (self.region_wall_seconds * self.busy_seconds.len() as f64))
                .clamp(0.0, 1.0),
        )
    }

    /// One-line rendering for the `--timing` summary.
    pub fn to_text(&self) -> String {
        if self.regions == 0 {
            return "pool: no parallel regions recorded\n".to_string();
        }
        let mut s = format!(
            "pool: {} region(s), {:.3}s inside regions, {} worker slot(s)\n",
            self.regions,
            self.region_wall_seconds,
            self.busy_seconds.len()
        );
        for (slot, b) in self.busy_seconds.iter().enumerate() {
            let pct = if self.region_wall_seconds > 0.0 {
                100.0 * b / self.region_wall_seconds
            } else {
                0.0
            };
            s.push_str(&format!("  worker {slot}: busy {b:.3}s ({pct:.0}%)\n"));
        }
        s
    }
}

/// Snapshot of the accumulated per-worker busy time.
pub fn utilization() -> UtilizationReport {
    let u = lock_util();
    UtilizationReport {
        busy_seconds: u.busy.clone(),
        region_wall_seconds: u.region_wall,
        regions: u.regions,
    }
}

/// Clears the utilization accumulators.
pub fn reset_utilization() {
    let mut u = lock_util();
    u.busy.clear();
    u.region_wall = 0.0;
    u.regions = 0;
}

// ---------------------------------------------------------------------------
// Fork–join primitives
// ---------------------------------------------------------------------------

/// Evaluates `f(0), f(1), …, f(n-1)` across the pool and returns the results
/// **in index order** — bit-identical to the serial loop at any thread
/// count. `f` must be pure per index (it may accumulate into `amrviz-obs`
/// counters, which are order-independent sums).
///
/// Scheduling is dynamic (an atomic cursor), so unevenly-sized tasks (e.g.
/// AMR boxes of different volumes) balance automatically; determinism comes
/// from merging by index, not from the schedule.
pub fn run<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let width = threads().min(n.max(1));
    if width <= 1 || IN_POOL.with(Cell::get) {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let ctx = amrviz_obs::current_context();
    let t_region = Instant::now();
    let mut busy = vec![0.0f64; width];

    let worker = |slot: usize| -> (usize, f64, Vec<(usize, T)>) {
        let _scope = amrviz_obs::context_scope(ctx);
        IN_POOL.with(|c| c.set(true));
        let t0 = Instant::now();
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        let secs = t0.elapsed().as_secs_f64();
        IN_POOL.with(|c| c.set(false));
        (slot, secs, local)
    };

    let mut parts: Vec<Vec<(usize, T)>> = Vec::with_capacity(width);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..width)
            .map(|slot| s.spawn(move || worker(slot)))
            .collect();
        // The submitting thread is worker slot 0.
        let (slot0, secs0, local0) = worker(0);
        busy[slot0] = secs0;
        parts.push(local0);
        for h in handles {
            let (slot, secs, local) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            busy[slot] = secs;
            parts.push(local);
        }
    });
    record_region(&busy, t_region.elapsed().as_secs_f64());

    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, v) in part {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(v);
        }
    }
    out.into_iter()
        .map(|o| o.expect("every index produced exactly once"))
        .collect()
}

/// Calls `f(i, parts[i])` for every part across the pool, handing each part
/// to exactly one call by value. With disjoint `&mut` slices as parts this is
/// the write side of count → scan → emit: the caller sizes one output from
/// the scanned counts, splits it, and the workers fill their ranges in place.
pub fn for_each_part<P, F>(parts: Vec<P>, f: F)
where
    P: Send,
    F: Fn(usize, P) + Sync,
{
    let cells: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    run(cells.len(), |i| {
        let part = cells[i].lock().unwrap_or_else(|e| e.into_inner()).take();
        f(i, part.expect("run visits every index exactly once"));
    });
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and calls `f(chunk_index, chunk)` for each across the
/// pool. The decomposition depends only on `chunk_len`, never on the thread
/// count, so any output written through the chunks is deterministic.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    for_each_part(data.chunks_mut(chunk_len).collect(), f);
}

/// Deterministic parallel reduction: maps fixed `chunk_len`-sized index
/// ranges of `0..n` through `f(range)` with [`run`], then folds the partial
/// results **in chunk order** with `combine`. The grouping is a function of
/// `chunk_len` alone, so float accumulation is bit-stable at any thread
/// count.
pub fn reduce_chunked<A, F, C>(n: usize, chunk_len: usize, identity: A, f: F, combine: C) -> A
where
    A: Send,
    F: Fn(std::ops::Range<usize>) -> A + Sync,
    C: Fn(A, A) -> A,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if n == 0 {
        return identity;
    }
    let n_chunks = n.div_ceil(chunk_len);
    let parts = run(n_chunks, |ci| {
        let lo = ci * chunk_len;
        f(lo..(lo + chunk_len).min(n))
    });
    parts.into_iter().fold(identity, combine)
}

/// `(min, max)` of `data`, ignoring NaN as `f64::min`/`f64::max` do:
/// `(∞, −∞)` for empty or all-NaN input. Eight independent lanes of the
/// compare-select `if x < lo { x } else { lo }` vectorise where a serial
/// `f64::min` fold waits on each step. Every non-zero extreme has the
/// serial fold's bits; a zero extreme may carry either sign when the data
/// holds both `0.0` and `-0.0`, which `f64::min` leaves unspecified too.
pub fn min_max(data: &[f64]) -> (f64, f64) {
    const LANES: usize = 8;
    let min = |a: f64, x: f64| if x < a { x } else { a };
    let max = |a: f64, x: f64| if x > a { x } else { a };
    let (rows, tail) = data.as_chunks::<LANES>();
    let (mut lo, mut hi) = ([f64::INFINITY; LANES], [f64::NEG_INFINITY; LANES]);
    for row in rows {
        for i in 0..LANES {
            lo[i] = min(lo[i], row[i]);
            hi[i] = max(hi[i], row[i]);
        }
    }
    (
        lo.into_iter()
            .chain(tail.iter().copied())
            .fold(f64::INFINITY, min),
        hi.into_iter()
            .chain(tail.iter().copied())
            .fold(f64::NEG_INFINITY, max),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global thread override.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn run_preserves_index_order() {
        let _g = guard();
        for nt in [1, 2, 8] {
            set_threads(nt);
            let out = run(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "nt={nt}");
        }
        set_threads(1);
    }

    #[test]
    fn run_handles_empty_and_single() {
        let _g = guard();
        set_threads(4);
        assert!(run(0, |i| i).is_empty());
        assert_eq!(run(1, |i| i + 7), vec![7]);
        set_threads(1);
    }

    #[test]
    fn chunked_mutation_is_thread_count_invariant() {
        let _g = guard();
        let reference: Vec<usize> = {
            set_threads(1);
            let mut v = vec![0usize; 103];
            for_each_chunk_mut(&mut v, 10, |ci, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = ci * 1000 + off;
                }
            });
            v
        };
        for nt in [2, 3, 8] {
            set_threads(nt);
            let mut v = vec![0usize; 103];
            for_each_chunk_mut(&mut v, 10, |ci, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = ci * 1000 + off;
                }
            });
            assert_eq!(v, reference, "nt={nt}");
        }
        set_threads(1);
    }

    #[test]
    fn reduce_chunked_is_bit_stable_for_floats() {
        let _g = guard();
        // A sum whose grouping matters in f64: many tiny values plus a few
        // huge ones. The chunked reduction must give the same bits at any
        // thread count.
        let values: Vec<f64> = (0..10_000)
            .map(|i| {
                if i % 997 == 0 {
                    1e18
                } else {
                    1e-3 + i as f64 * 1e-9
                }
            })
            .collect();
        let sum_at = |nt: usize| -> u64 {
            set_threads(nt);
            reduce_chunked(
                values.len(),
                256,
                0.0f64,
                |r| r.map(|i| values[i]).sum::<f64>(),
                |a, b| a + b,
            )
            .to_bits()
        };
        let s1 = sum_at(1);
        assert_eq!(s1, sum_at(2));
        assert_eq!(s1, sum_at(8));
        set_threads(1);
    }

    #[test]
    fn min_max_matches_the_serial_fold() {
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -2.25,
            3e300,
            -7e-300,
        ];
        let serial = |d: &[f64]| {
            d.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                })
        };
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        // Lengths through two full rows of lanes and a tail.
        for len in 0..=17 {
            for _ in 0..2000 {
                let d: Vec<f64> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        values[(state % values.len() as u64) as usize]
                    })
                    .collect();
                let (got, want) = (min_max(&d), serial(&d));
                for (g, w) in [(got.0, want.0), (got.1, want.1)] {
                    if w == 0.0 {
                        assert_eq!(g, w, "{d:?}");
                    } else {
                        assert_eq!(g.to_bits(), w.to_bits(), "{d:?}");
                    }
                }
            }
        }
        let none = (f64::INFINITY, f64::NEG_INFINITY);
        assert_eq!(min_max(&[]), none);
        assert_eq!(min_max(&[f64::NAN; 11]), none);
    }

    #[test]
    fn nested_regions_run_serially_and_correctly() {
        let _g = guard();
        set_threads(4);
        let out = run(8, |i| {
            // Inner region must not deadlock or oversubscribe.
            let inner = run(5, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..8).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, want);
        set_threads(1);
    }

    #[test]
    fn worker_panic_propagates() {
        let _g = guard();
        set_threads(2);
        let caught = std::panic::catch_unwind(|| {
            run(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
        set_threads(1);
    }

    #[test]
    fn utilization_accumulates() {
        let _g = guard();
        set_threads(2);
        reset_utilization();
        let _ = run(64, |i| {
            // Do a little real work so busy time is nonzero.
            (0..200).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
        });
        let u = utilization();
        assert_eq!(u.regions, 1);
        assert!(u.region_wall_seconds >= 0.0);
        assert!(!u.busy_seconds.is_empty());
        assert!(u.to_text().contains("worker 0"));
        set_threads(1);
    }

    #[test]
    fn threads_resolution_override_wins() {
        let _g = guard();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(1);
        assert_eq!(threads(), 1);
    }
}
