//! Rolling time windows: a histogram over a lazy ring of time slots.
//!
//! The server's request telemetry ([`crate::telemetry`]) needs "p99 over
//! the last five minutes" answerable at any instant without resetting
//! anything. The scheme is a ring of [`SLOTS`] time slots:
//!
//! * Every recorded value lands in the slot the owner derives from its own
//!   clock (`elapsed / slot width`), stored at ring index `slot % SLOTS`.
//! * Rotation is **lazy**: nothing ticks in the background. When a write
//!   hits a ring entry whose stored slot id is stale, the entry is simply
//!   overwritten with a fresh histogram for the current slot — O(1), no
//!   sweeps, no timer thread.
//! * A window query for the last `k` slots merges the ring entries whose
//!   slot id lies in `(now - k, now]`; stale entries (older than the ring
//!   covers) are skipped, so an idle metric naturally decays to empty.
//!
//! The ring itself is time-free: callers pass explicit slot ids, which is
//! what makes the unit tests deterministic.

use crate::telemetry::SLOTS;
use amrviz_obs::hist::Histogram;

/// Slot id marking an empty ring entry (no real slot reaches u64::MAX:
/// that would need ~585 years of uptime at 1 ns slots).
const EMPTY: u64 = u64::MAX;

/// A histogram cell: lifetime histogram plus per-slot histograms. Rotation
/// recycles ring slots only; `lifetime` is never cleared. The window view
/// merges slot histograms with a commutative bucket sum, so windowed
/// percentiles do not depend on which thread recorded which sample.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    pub lifetime: Histogram,
    /// `(slot id, histogram)` entries; slot `s` lives at index `s % SLOTS`.
    ring: Vec<(u64, Histogram)>,
}

impl Default for WindowedHistogram {
    /// A histogram over a ring of [`SLOTS`] empty slots.
    fn default() -> Self {
        WindowedHistogram {
            lifetime: Histogram::new(),
            ring: (0..SLOTS).map(|_| (EMPTY, Histogram::new())).collect(),
        }
    }
}

impl WindowedHistogram {
    /// Records one sample at `slot` (and into the lifetime histogram),
    /// lazily recycling the ring entry when it still holds an older slot.
    pub fn record(&mut self, slot: u64, value: u64) {
        self.lifetime.record(value);
        let idx = (slot % SLOTS as u64) as usize;
        let entry = &mut self.ring[idx];
        if entry.0 != slot {
            *entry = (slot, Histogram::new());
        }
        entry.1.record(value);
    }

    /// The slot histograms of the window `(now_slot - k, now_slot]` (the
    /// current slot and the `k - 1` before it). `k` is clamped to the ring
    /// size by construction — older entries have been recycled.
    fn window(&self, now_slot: u64, k: u64) -> impl Iterator<Item = &Histogram> {
        self.ring
            .iter()
            .filter(move |(id, _)| *id != EMPTY && *id <= now_slot && now_slot - *id < k.max(1))
            .map(|(_, h)| h)
    }

    /// Merged histogram over the trailing `k` slots ending at `now_slot`.
    pub fn window_merged(&self, now_slot: u64, k: u64) -> Histogram {
        let mut out = Histogram::new();
        for h in self.window(now_slot, k) {
            out.merge(h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`SLOTS`] as a slot id.
    const S: u64 = SLOTS as u64;

    #[test]
    fn ring_recycles_stale_slots_lazily() {
        let mut h = WindowedHistogram::default();
        h.record(0, 10);
        h.record(1, 20);
        // Slot S maps onto index 0 and must not inherit slot 0's sample.
        h.record(S, 1);
        assert_eq!(h.window_merged(S, 1).count(), 1);
        // Slot 1 is still live (ring covers slots 1..=S now).
        let w = h.window_merged(S, S);
        assert_eq!(
            (w.count(), w.sum()),
            (2, 21),
            "slots 1 and 4 are inside the window; slot 0 was recycled"
        );
        assert_eq!(h.lifetime.count(), 3);
    }

    #[test]
    fn window_bounds_are_half_open() {
        let mut h = WindowedHistogram::default();
        for s in 0..8u64 {
            h.record(s, s);
        }
        // Window (5, 7]: slots 6 and 7 only.
        assert_eq!(h.window(7, 2).count(), 2);
        assert_eq!(h.window(7, 1).count(), 1);
        // k = 8 covers every recorded slot.
        assert_eq!(h.window(7, 8).count(), 8);
        // Future slots are never included.
        assert_eq!(h.window(3, 8).count(), 4);
    }

    #[test]
    fn histogram_window_merges_and_lifetime_survives() {
        let mut h = WindowedHistogram::default();
        h.record(0, 5);
        h.record(1, 50);
        h.record(2, 500);
        h.record(S + 2, 7); // (S + 2) % S == 2: recycles slot 2's ring entry
        assert_eq!(h.lifetime.count(), 4);
        let w = h.window_merged(S + 2, 3);
        assert_eq!(w.count(), 1, "only slot S + 2 is inside (S - 1, S + 2]");
        assert_eq!(w.max(), 7);
    }

    #[test]
    fn window_merge_is_commutative_and_matches_whole() {
        // rng-seeded property: samples scattered over slots, window merge
        // in forward/reverse order equals a directly-recorded histogram.
        amrviz_rng::check(0x510_7a1e6, 16, |rng| {
            let n_slots = rng.range_usize(2, 8);
            let now = rng.below(1000) + n_slots as u64;
            let mut wh = WindowedHistogram::default();
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
            let mut parts: Vec<&Histogram> = wh.window(now, n_slots as u64).collect();
            parts.reverse();
            for p in parts {
                rev.merge(p);
            }
            assert_eq!(fwd, expect, "window merge must equal direct recording");
            assert_eq!(rev, expect, "merge order must not matter");
        });
    }
}
