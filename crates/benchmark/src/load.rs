//! Load shapes for the serve workloads: an open loop that sends on a fixed
//! schedule whatever the target does, and a closed loop whose callers each
//! wait for their reply.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One completed call of the target.
#[derive(Debug)]
pub struct Shot<T> {
    /// Position in the schedule (open loop) or `client · 2³² + sequence`
    /// (closed loop).
    pub slot: usize,
    /// When the call was due. In the closed loop this is when it started.
    pub due: Instant,
    /// When a sender actually began it.
    pub start: Instant,
    pub end: Instant,
    pub out: T,
}

impl<T> Shot<T> {
    /// Seconds from the due time to completion: what a user who arrived on
    /// schedule waited, including any stall ahead of them.
    #[cfg(test)]
    pub fn latency_s(&self) -> f64 {
        (self.end - self.due).as_secs_f64()
    }

    /// Seconds the generator ran behind its schedule for this call.
    pub fn lag_s(&self) -> f64 {
        (self.start - self.due).as_secs_f64()
    }
}

/// Open loop: `slots` calls due at `t0 + i / rate_hz`. `senders` threads
/// pull the next due slot from the one schedule, sleep until it is due,
/// and call `target(slot, due)`. A sender that comes back late takes its
/// next slot late, and every latency is still counted from the slot's due
/// time — so a stall is charged to the calls queued behind it rather than
/// silently thinning the load. Returns the shots in slot order.
pub fn open_loop<T: Send>(
    rate_hz: f64,
    slots: usize,
    senders: usize,
    target: impl Fn(usize, Instant) -> T + Sync,
) -> Vec<Shot<T>> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut shots: Vec<Shot<T>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= slots {
                            return mine;
                        }
                        let due_ns = (slot as f64 * 1e9 / rate_hz).round() as u64;
                        let due = t0 + Duration::from_nanos(due_ns);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let start = Instant::now();
                        let out = target(slot, due);
                        mine.push(Shot {
                            slot,
                            due,
                            start,
                            end: Instant::now(),
                            out,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop sender panicked"))
            .collect()
    });
    shots.sort_by_key(|s| s.slot);
    shots
}

/// Closed loop: `clients` threads each call `target(client, sequence)`
/// back to back until `duration` has passed; a call in flight at that
/// moment completes and is returned too. Returns the shots and when the
/// loop started.
pub fn closed_loop<T: Send>(
    clients: usize,
    duration: Duration,
    target: impl Fn(usize, usize) -> T + Sync,
) -> (Vec<Shot<T>>, Instant) {
    let t0 = Instant::now();
    let target = &target;
    let shots: Vec<Shot<T>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients.max(1))
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut seq = 0usize;
                    while t0.elapsed() < duration {
                        let start = Instant::now();
                        let out = target(client, seq);
                        mine.push(Shot {
                            slot: (client << 32) | seq,
                            due: start,
                            start,
                            end: Instant::now(),
                            out,
                        });
                        seq += 1;
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    });
    (shots, t0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // One sender, a slot every 10 ms, and a fake target that is instant
        // except for a 100 ms stall on slot 2. Slots 3.. were due during the
        // stall: a closed loop would show them as fast, the open loop must
        // show the wait.
        let stall = Duration::from_millis(100);
        let shots = open_loop(100.0, 12, 1, |slot, _due| {
            if slot == 2 {
                std::thread::sleep(stall);
            }
            slot
        });
        assert_eq!(shots.len(), 12);
        assert!(shots
            .iter()
            .enumerate()
            .all(|(i, s)| s.slot == i && s.out == i));
        // Due times follow the schedule exactly, whatever the target did.
        for pair in shots.windows(2) {
            assert_eq!(pair[1].due - pair[0].due, Duration::from_millis(10));
        }
        assert!(shots[2].latency_s() >= 0.100);
        // Slot 3 was due 10 ms into the stall, slot 6 40 ms into it: each is
        // charged what was left of the stall when it fell due.
        assert!(shots[3].latency_s() >= 0.089, "{}", shots[3].latency_s());
        assert!(shots[3].lag_s() >= 0.089, "lateness is reported as lag");
        assert!(shots[6].latency_s() >= 0.059, "{}", shots[6].latency_s());
        // The backlog drains: each later slot waited less than the one before.
        assert!(shots[3].latency_s() > shots[6].latency_s());
        assert!(shots[6].latency_s() > shots[9].latency_s());
    }

    #[test]
    fn closed_loop_runs_every_client_until_the_time_is_up() {
        let (shots, t0) = closed_loop(2, Duration::from_millis(60), |client, seq| {
            std::thread::sleep(Duration::from_millis(5));
            (client, seq)
        });
        let last = shots.iter().map(|s| s.end).max().expect("calls were made");
        assert!(last - t0 >= Duration::from_millis(60));
        assert!(shots.iter().all(|s| s.start >= t0));
        for client in 0..2 {
            let seqs: Vec<usize> = shots
                .iter()
                .filter(|s| s.out.0 == client)
                .map(|s| s.out.1)
                .collect();
            assert!(seqs.len() >= 3, "client {client} ran {} calls", seqs.len());
            assert_eq!(seqs, (0..seqs.len()).collect::<Vec<_>>());
        }
    }
}
