//! Rolling time windows: a lazy slot ring and the windowed histogram
//! built on it.
//!
//! The server's request telemetry ([`crate::telemetry`]) needs "p99 over
//! the last five minutes" answerable at any instant without resetting
//! anything. The scheme is a ring of `N` time slots:
//!
//! * Every recorded value lands in the slot the owner derives from its own
//!   clock (`elapsed / slot width`), stored at ring index `slot % N`.
//! * Rotation is **lazy**: nothing ticks in the background. When a write
//!   hits a ring entry whose stored slot id is stale, the entry is simply
//!   overwritten with a fresh value for the current slot — O(1), no
//!   sweeps, no timer thread.
//! * A window query for the last `k` slots merges the ring entries whose
//!   slot id lies in `(now - k, now]`; stale entries (older than the ring
//!   covers) are skipped, so an idle metric naturally decays to empty.
//!
//! The ring itself is time-free: callers pass explicit slot ids, which is
//! what makes the unit tests deterministic.

use amrviz_obs::hist::Histogram;

/// Slot id marking an empty ring entry (no real slot reaches u64::MAX:
/// that would need ~585 years of uptime at 1 ns slots).
const EMPTY: u64 = u64::MAX;

/// A fixed-size ring of `(slot id, value)` entries with lazy rotation.
/// Pure data structure: callers supply slot ids, so behaviour is fully
/// deterministic under test.
#[derive(Debug, Clone)]
pub struct SlotRing<T> {
    slots: Vec<(u64, T)>,
}

impl<T: Default> SlotRing<T> {
    /// Ring of `n` slots (clamped to at least 1), all empty.
    pub fn new(n: usize) -> Self {
        SlotRing {
            slots: (0..n.max(1)).map(|_| (EMPTY, T::default())).collect(),
        }
    }

    /// Mutable access to the value for `slot`, lazily recycling the ring
    /// entry (resetting it to `T::default()`) when it still holds an older
    /// slot's data.
    pub fn slot_mut(&mut self, slot: u64) -> &mut T {
        let idx = (slot % self.slots.len() as u64) as usize;
        let entry = &mut self.slots[idx];
        if entry.0 != slot {
            *entry = (slot, T::default());
        }
        &mut entry.1
    }

    /// Iterates the entries whose slot id lies in the window
    /// `(now_slot - k, now_slot]` (i.e. the current slot and the `k - 1`
    /// before it). `k` is clamped to the ring size by construction — older
    /// entries have been recycled.
    pub fn iter_window(&self, now_slot: u64, k: u64) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .filter(move |(id, _)| *id != EMPTY && *id <= now_slot && now_slot - *id < k.max(1))
            .map(|(id, v)| (*id, v))
    }
}

/// A histogram cell: lifetime histogram plus per-slot histograms. Rotation
/// recycles ring slots only; `lifetime` is never cleared. The window view
/// merges slot histograms with a commutative bucket sum, so windowed
/// percentiles do not depend on which thread recorded which sample.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    pub lifetime: Histogram,
    pub ring: SlotRing<Histogram>,
}

impl WindowedHistogram {
    /// Histogram over a ring of `n` slots.
    pub fn with_slots(n: usize) -> Self {
        WindowedHistogram {
            lifetime: Histogram::new(),
            ring: SlotRing::new(n),
        }
    }

    /// Records one sample at `slot` (and into the lifetime histogram).
    pub fn record(&mut self, slot: u64, value: u64) {
        self.lifetime.record(value);
        self.ring.slot_mut(slot).record(value);
    }

    /// Merged histogram over the trailing `k` slots ending at `now_slot`.
    pub fn window_merged(&self, now_slot: u64, k: u64) -> Histogram {
        let mut out = Histogram::new();
        for (_, h) in self.ring.iter_window(now_slot, k) {
            out.merge(h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_recycles_stale_slots_lazily() {
        let mut r: SlotRing<u64> = SlotRing::new(4);
        *r.slot_mut(0) += 10;
        *r.slot_mut(1) += 20;
        // Slot 4 maps onto index 0 and must not inherit slot 0's value.
        *r.slot_mut(4) += 1;
        assert_eq!(*r.slot_mut(4), 1);
        // Slot 1 is still live (ring covers slots 1..=4 now).
        assert_eq!(
            r.iter_window(4, 4).map(|(_, v)| *v).sum::<u64>(),
            21,
            "slots 1 and 4 are inside the window; slot 0 was recycled"
        );
    }

    #[test]
    fn window_bounds_are_half_open() {
        let mut r: SlotRing<u64> = SlotRing::new(8);
        for s in 0..8u64 {
            *r.slot_mut(s) += 1;
        }
        // Window (5, 7]: slots 6 and 7 only.
        assert_eq!(r.iter_window(7, 2).count(), 2);
        assert_eq!(r.iter_window(7, 1).count(), 1);
        // k = 8 covers the whole ring.
        assert_eq!(r.iter_window(7, 8).count(), 8);
        // Future slots are never included.
        assert_eq!(r.iter_window(3, 8).count(), 4);
    }

    #[test]
    fn histogram_window_merges_and_lifetime_survives() {
        let mut h = WindowedHistogram {
            lifetime: Histogram::new(),
            ring: SlotRing::new(3),
        };
        h.record(0, 5);
        h.record(1, 50);
        h.record(2, 500);
        h.record(5, 7); // 5 % 3 == 2: recycles slot 2's ring entry
        assert_eq!(h.lifetime.count(), 4);
        let w = h.window_merged(5, 3);
        assert_eq!(w.count(), 1, "only slot 5 is inside (3, 5]");
        assert_eq!(w.max(), 7);
    }

    #[test]
    fn window_merge_is_commutative_and_matches_whole() {
        // rng-seeded property: samples scattered over slots, window merge
        // in forward/reverse order equals a directly-recorded histogram.
        amrviz_rng::check(0x510_7a1e6, 16, |rng| {
            let n_slots = rng.range_usize(2, 8);
            let now = rng.below(1000) + n_slots as u64;
            let mut wh = WindowedHistogram {
                lifetime: Histogram::new(),
                ring: SlotRing::new(n_slots),
            };
            let mut expect = Histogram::new();
            for _ in 0..rng.range_usize(1, 200) {
                let slot = now - rng.below(n_slots as u64);
                let v = rng.below(1 << 20);
                wh.record(slot, v);
                expect.record(v);
            }
            let fwd = wh.window_merged(now, n_slots as u64);
            // Reverse merge order.
            let mut rev = Histogram::new();
            let mut parts: Vec<&Histogram> = wh
                .ring
                .iter_window(now, n_slots as u64)
                .map(|(_, h)| h)
                .collect();
            parts.reverse();
            for p in parts {
                rev.merge(p);
            }
            assert_eq!(fwd, expect, "window merge must equal direct recording");
            assert_eq!(rev, expect, "merge order must not matter");
        });
    }
}
