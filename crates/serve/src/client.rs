//! Blocking client for the serve protocol: one request per connection.
//!
//! The client is deliberately paranoid — it is the measurement instrument
//! for the torture and loadgen harnesses. Every frame is parsed under a
//! strict decode budget (a chaos-corrupted frame is a typed
//! `ProtocolError`, never a panic), every frame's *arrival* time is checked
//! against the request deadline plus a grace allowance, and a stream that
//! ends without `END` is classified as a deadline cut (valid progressive
//! prefix), not success.

use crate::proto::{
    self, EndFrame, LevelSummary, Op, Request, RespHeader, Status, MAX_RESPONSE_FRAME,
};
use amrviz_codec::DecodeBudget;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side classification of one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Complete stream, all fabs clean.
    Ok,
    /// Complete stream, served with repaired fabs (`FLAG_DEGRADED` in the
    /// header, or `Status::Degraded` in `END`).
    Degraded,
    /// Header arrived but the stream was cut before `END` — the server hit
    /// its deadline mid-response. The received prefix is usable.
    CutShort,
    /// Typed shed (`RetryLater`).
    Shed,
    /// Typed `Timeout`.
    Timeout,
    /// Typed `NotFound`.
    NotFound,
    /// Typed `Corrupt`.
    Corrupt,
    /// Typed `BadRequest` / `ShuttingDown` / `Internal`.
    Refused,
    /// Connect or socket-level failure (includes chaos resets).
    IoError,
    /// A frame failed to parse (chaos corruption on the response path).
    ProtocolError,
}

impl Outcome {
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::CutShort => "cut_short",
            Outcome::Shed => "shed",
            Outcome::Timeout => "timeout",
            Outcome::NotFound => "not_found",
            Outcome::Corrupt => "corrupt",
            Outcome::Refused => "refused",
            Outcome::IoError => "io_error",
            Outcome::ProtocolError => "protocol_error",
        }
    }

    /// True when backing off and retrying the same request makes sense.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            Outcome::Shed | Outcome::Timeout | Outcome::IoError | Outcome::CutShort
        )
    }

    /// True when the client received *usable* hierarchy data (possibly a
    /// prefix).
    pub fn has_data(self) -> bool {
        matches!(self, Outcome::Ok | Outcome::Degraded | Outcome::CutShort)
    }
}

/// Everything observed during one exchange.
#[derive(Debug)]
pub struct Exchange {
    pub outcome: Outcome,
    pub header: Option<RespHeader>,
    pub levels: Vec<LevelSummary>,
    pub keys: Option<Vec<u64>>,
    /// STATS snapshot JSON (`Op::Stats` responses).
    pub stats: Option<String>,
    pub end: Option<EndFrame>,
    pub elapsed: Duration,
    /// Frames whose *arrival* was later than `deadline + grace` — the
    /// client-side check of the server's no-response-after-deadline
    /// invariant. Grace absorbs proxy/chaos delay and scheduling noise.
    pub late_frames: u64,
}

/// Socket connect/read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_millis(3_000);

/// Client knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Allowance past the request deadline before an arriving frame counts
    /// as late (network + chaos-delay + scheduling slack).
    pub grace: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            grace: Duration::from_millis(500),
        }
    }
}

/// Performs one request against `addr` and classifies the result. Never
/// panics; every failure mode maps onto an [`Outcome`].
pub fn exchange(addr: SocketAddr, req: &Request, cfg: &ClientConfig) -> Exchange {
    let t0 = Instant::now();
    // Late-frame accounting only applies to ops with a deadline semantic.
    let late_cutoff = if req.op == Op::Get && req.deadline_ms > 0 {
        Some(t0 + Duration::from_millis(req.deadline_ms as u64) + cfg.grace)
    } else {
        None
    };
    let mut ex = Exchange {
        outcome: Outcome::IoError,
        header: None,
        levels: Vec::new(),
        keys: None,
        stats: None,
        end: None,
        elapsed: Duration::ZERO,
        late_frames: 0,
    };
    let finish = |mut ex: Exchange| {
        ex.elapsed = t0.elapsed();
        ex
    };

    let mut stream = match TcpStream::connect_timeout(&addr, IO_TIMEOUT) {
        Ok(s) => s,
        Err(_) => return finish(ex),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    if proto::write_frame(&mut stream, &req.encode()).is_err() {
        return finish(ex);
    }
    let budget = DecodeBudget::permissive();
    loop {
        let payload = match proto::read_frame(&mut stream, MAX_RESPONSE_FRAME) {
            Ok(Some(p)) => p,
            Ok(None) => {
                // Clean close. With a header but no END: deadline cut.
                ex.outcome = match ex.header {
                    Some(h) if ex.end.is_none() && h.status.is_good() => Outcome::CutShort,
                    Some(_) => ex.outcome,
                    None => Outcome::IoError,
                };
                return finish(ex);
            }
            Err(_) => {
                if ex.header.is_some() && ex.end.is_none() {
                    // Mid-stream socket error after data: treat as a cut.
                    ex.outcome = Outcome::CutShort;
                } else {
                    ex.outcome = Outcome::IoError;
                }
                return finish(ex);
            }
        };
        if let Some(cutoff) = late_cutoff {
            if Instant::now() > cutoff {
                ex.late_frames += 1;
            }
        }
        let Some(&tag) = payload.first() else {
            ex.outcome = Outcome::ProtocolError;
            return finish(ex);
        };
        match tag {
            proto::TAG_HEADER => {
                let h = match RespHeader::decode(&payload) {
                    Ok(h) => h,
                    Err(_) => {
                        ex.outcome = Outcome::ProtocolError;
                        return finish(ex);
                    }
                };
                ex.header = Some(h);
                match h.status {
                    Status::Ok | Status::Degraded => {} // data follows
                    Status::RetryLater => ex.outcome = Outcome::Shed,
                    Status::Timeout => ex.outcome = Outcome::Timeout,
                    Status::NotFound => ex.outcome = Outcome::NotFound,
                    Status::Corrupt => ex.outcome = Outcome::Corrupt,
                    Status::BadRequest | Status::ShuttingDown | Status::Internal => {
                        ex.outcome = Outcome::Refused
                    }
                }
            }
            // Levels arrive coarse-first as 0, 1, …, at most as many as the
            // header announced; anything else is not this protocol.
            proto::TAG_LEVEL => match proto::decode_level_frame(&payload, &budget) {
                Ok(s)
                    if s.level as usize == ex.levels.len()
                        && ex.header.is_some_and(|h| s.level < h.n_levels) =>
                {
                    ex.levels.push(s)
                }
                _ => {
                    ex.outcome = Outcome::ProtocolError;
                    return finish(ex);
                }
            },
            proto::TAG_KEYS => match proto::decode_keys_frame(&payload, &budget) {
                Ok(k) => ex.keys = Some(k),
                Err(_) => {
                    ex.outcome = Outcome::ProtocolError;
                    return finish(ex);
                }
            },
            proto::TAG_STATS => match proto::decode_stats_frame(&payload, &budget) {
                Ok(s) => ex.stats = Some(s),
                Err(_) => {
                    ex.outcome = Outcome::ProtocolError;
                    return finish(ex);
                }
            },
            proto::TAG_END => {
                let e = match EndFrame::decode(&payload) {
                    Ok(e) => e,
                    Err(_) => {
                        ex.outcome = Outcome::ProtocolError;
                        return finish(ex);
                    }
                };
                ex.end = Some(e);
                if let Some(h) = ex.header {
                    if h.status.is_good() {
                        // The header flags what was known when it left;
                        // END's status also covers what decoding found.
                        let degraded =
                            h.flags & proto::FLAG_DEGRADED != 0 || e.status == Status::Degraded;
                        ex.outcome = if degraded {
                            Outcome::Degraded
                        } else {
                            Outcome::Ok
                        };
                    }
                }
                return finish(ex);
            }
            _ => {
                ex.outcome = Outcome::ProtocolError;
                return finish(ex);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{Box3, BoxArray, MultiFab};
    use std::net::TcpListener;

    /// One exchange against a scripted server: a header announcing
    /// `n_levels`, then LEVEL frames numbered `levels`, then END.
    fn scripted(n_levels: u8, levels: &[usize], end_status: Status) -> Exchange {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let levels = levels.to_vec();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            proto::read_frame(&mut s, proto::MAX_REQUEST_FRAME).unwrap();
            let header = RespHeader {
                status: Status::Ok,
                flags: 0,
                retry_after_ms: 0,
                n_levels,
                key: 9,
            };
            let mf = MultiFab::from_fn(&BoxArray::single(Box3::from_dims(2, 2, 2)), |_| 1.0);
            // The client may hang up at the first frame it rejects.
            let _ = proto::write_frame(&mut s, &header.encode());
            for lev in levels {
                let _ = proto::write_level_frame(&mut s, lev, 0, &mf);
            }
            let end = EndFrame {
                status: end_status,
                levels_sent: 0,
                server_elapsed_us: 1,
            };
            let _ = proto::write_frame(&mut s, &end.encode());
        });
        let req = Request {
            op: Op::Get,
            trace: 1,
            key: 9,
            deadline_ms: 2_000,
            max_level: 0xFF,
        };
        let ex = exchange(addr, &req, &ClientConfig::default());
        server.join().unwrap();
        ex
    }

    #[test]
    fn levels_must_arrive_in_order_and_within_the_announced_count() {
        let ok = scripted(3, &[0, 1, 2], Status::Ok);
        assert_eq!((ok.outcome, ok.levels.len()), (Outcome::Ok, 3));
        // A prefix is fine (coarse-only, max_level): END says how many.
        assert_eq!(scripted(3, &[0], Status::Ok).outcome, Outcome::Ok);
        for (n_levels, levels) in [
            (2, &[1, 0][..]), // out of order
            (2, &[0, 0][..]), // repeated
            (2, &[1][..]),    // does not start at the coarse level
            (1, &[0, 1][..]), // more than the header announced
            (0, &[0][..]),    // none announced
        ] {
            let ex = scripted(n_levels, levels, Status::Ok);
            assert_eq!(
                ex.outcome,
                Outcome::ProtocolError,
                "{levels:?} of {n_levels}"
            );
            assert!(ex.end.is_none(), "the exchange stops at the bad frame");
        }
    }

    #[test]
    fn end_status_degraded_counts_even_when_the_header_could_not_know() {
        let ex = scripted(2, &[0, 1], Status::Degraded);
        assert_eq!(ex.header.unwrap().flags, 0);
        assert_eq!(ex.outcome, Outcome::Degraded);
    }
}
