//! Per-thread scratch buffer pools for the zero-copy hot path.
//!
//! The compress→viz pipeline runs thousands of per-box tasks, each of which
//! used to allocate (and immediately drop) the same handful of working
//! buffers: reconstruction volumes, quantization codes, entropy-coder
//! intermediates, hash chains. The pool here lets a task *rent* those
//! buffers instead: [`take_f64`]/[`give_f64`] (and the `u32`/`u8`/`usize`
//! siblings) pop and push capacity-retaining `Vec`s on a thread-local
//! free list, so steady-state per-box work touches the allocator only while
//! a buffer still needs to grow.
//!
//! # Determinism
//!
//! Pooling cannot change any output byte, by construction:
//!
//! * every `take_*` returns a **cleared** vector (`len == 0`; only the
//!   capacity is recycled), so no stale element is ever observable;
//! * the pools are `thread_local!`, so there is no cross-thread state, no
//!   locking, and no scheduling-dependent behavior — a worker's rentals are
//!   invisible to every other worker;
//! * [`run`](crate::run) spawns fresh scoped workers per parallel region,
//!   so worker-thread pools live exactly as long as one region (rentals are
//!   reused across the many tasks *within* a region — the hot per-box
//!   loops), while the submitting thread's pool persists across regions.
//!
//! Span memory watermarks keep working unchanged: rentals are real
//! allocations the first time a buffer grows, and simply stop showing up
//! once the pool reaches steady state — which is exactly the signal the
//! `mem_peak_bytes` metric is supposed to report.
//!
//! # Discipline
//!
//! Give back what you take (ideally in LIFO order, though any order works).
//! Forgetting to `give_*` is safe — the buffer is simply dropped and the
//! pool refills on the next take — so early-return/`?` paths need no guard
//! objects. A panic between take and give likewise only loses capacity.

use std::cell::RefCell;

/// Per-type cap on pooled buffers; anything beyond this is dropped on
/// `give_*`. Deep enough for the worst nesting on the hot path (a
/// compressor renting several buffers while the codec layer rents its own),
/// shallow enough that an idle thread never retains more than a handful of
/// high-water-mark buffers.
const MAX_POOLED: usize = 16;

#[derive(Default)]
struct Pools {
    f64s: Vec<Vec<f64>>,
    u32s: Vec<Vec<u32>>,
    bytes: Vec<Vec<u8>>,
    usizes: Vec<Vec<usize>>,
}

thread_local! {
    static POOLS: RefCell<Pools> = RefCell::new(Pools::default());
}

macro_rules! pool_fns {
    ($take:ident, $give:ident, $field:ident, $ty:ty, $what:literal) => {
        #[doc = concat!("Rents a cleared `Vec<", $what, ">` from this thread's pool.")]
        ///
        /// The vector is empty; only capacity is recycled. Return it with
        /// the matching `give_*` when done so the next task can reuse it.
        pub fn $take() -> Vec<$ty> {
            POOLS
                .with(|p| p.borrow_mut().$field.pop())
                .unwrap_or_default()
        }

        #[doc = concat!("Returns a `Vec<", $what, ">` to this thread's pool.")]
        ///
        /// The contents are cleared here (capacity kept), so a pooled buffer
        /// can never leak values into a later task.
        pub fn $give(mut v: Vec<$ty>) {
            v.clear();
            POOLS.with(|p| {
                let mut pools = p.borrow_mut();
                if pools.$field.len() < MAX_POOLED {
                    pools.$field.push(v);
                }
            });
        }
    };
}

pool_fns!(take_f64, give_f64, f64s, f64, "f64");
pool_fns!(take_u32, give_u32, u32s, u32, "u32");
pool_fns!(take_bytes, give_bytes, bytes, u8, "u8");
pool_fns!(take_usize, give_usize, usizes, usize, "usize");

/// Number of buffers currently pooled on this thread, per type
/// `(f64, u32, u8, usize)`. Test/diagnostic hook.
pub fn pooled_counts() -> (usize, usize, usize, usize) {
    POOLS.with(|p| {
        let pools = p.borrow();
        (
            pools.f64s.len(),
            pools.u32s.len(),
            pools.bytes.len(),
            pools.usizes.len(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_cleared_buffer_with_recycled_capacity() {
        let mut v = take_f64();
        v.extend_from_slice(&[1.0, 2.0, 3.0]);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        give_f64(v);
        let v2 = take_f64();
        assert!(v2.is_empty(), "rented buffer must be cleared");
        assert_eq!(v2.capacity(), cap);
        assert_eq!(
            v2.as_ptr(),
            ptr,
            "capacity should be recycled, not reallocated"
        );
        give_f64(v2);
    }

    #[test]
    fn pool_depth_is_capped() {
        // Drain whatever earlier tests left behind.
        let mut drained = Vec::new();
        loop {
            let (n, _, _, _) = pooled_counts();
            if n == 0 {
                break;
            }
            drained.push(take_f64());
            drop(drained.pop());
            if pooled_counts().0 == 0 {
                break;
            }
        }
        while pooled_counts().0 > 0 {
            let _ = take_f64();
        }
        for _ in 0..(MAX_POOLED + 10) {
            give_f64(Vec::with_capacity(8));
        }
        assert_eq!(pooled_counts().0, MAX_POOLED);
    }

    #[test]
    fn all_types_roundtrip() {
        give_u32(vec![1, 2]);
        give_bytes(vec![3, 4]);
        give_usize(vec![5, 6]);
        assert!(take_u32().is_empty());
        assert!(take_bytes().is_empty());
        assert!(take_usize().is_empty());
    }

    #[test]
    fn pools_are_thread_local() {
        give_f64(Vec::with_capacity(1024));
        let before = pooled_counts().0;
        std::thread::spawn(|| {
            // A fresh thread sees an empty pool.
            let v = take_f64();
            assert_eq!(v.capacity(), 0);
        })
        .join()
        .unwrap();
        assert_eq!(
            pooled_counts().0,
            before,
            "other threads cannot drain this pool"
        );
    }
}
