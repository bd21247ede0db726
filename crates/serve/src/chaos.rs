//! Deterministic chaos proxy: a TCP forwarder that injects connection-level
//! faults between client and server.
//!
//! Faults are chosen per connection from a seeded [`Rng`]: the proxy forks
//! the seed by connection index, so a run with the same seed and the same
//! (sequential) connection order replays the same fault schedule — the
//! torture harness depends on this for reproducibility.
//!
//! Injected faults (independently per direction):
//! - **delay**: a one-shot pause before the first forwarded chunk
//!   (head-of-line latency; a per-chunk pause would scale with stream
//!   size and stall multi-MB responses for tens of seconds);
//! - **corrupt**: one bit flipped in one forwarded chunk (wire corruption);
//! - **short**: the direction is severed after N bytes (truncation /
//!   mid-stream reset);
//! - **none**: bytes pass through untouched.

use crate::server::{wake_accept, ACCEPT_BACKOFF};
use amrviz_rng::Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One direction's fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// Sleep this long before the first forwarded chunk.
    Delay(Duration),
    /// XOR this bit mask into the byte at `at` (absolute stream offset).
    CorruptByte {
        at: u64,
        mask: u8,
    },
    /// Stop forwarding (and shut the write side) after this many bytes.
    ShortAfter(u64),
}

/// Probability that a direction gets *some* fault.
const FAULT_PROB: f64 = 0.4;

/// Longest injected delay, in milliseconds.
const MAX_DELAY_MS: u64 = 100;

fn pick_fault(rng: &mut Rng) -> Fault {
    if !rng.chance(FAULT_PROB) {
        return Fault::None;
    }
    match rng.below(3) {
        0 => Fault::Delay(Duration::from_millis(1 + rng.below(MAX_DELAY_MS))),
        1 => Fault::CorruptByte {
            at: rng.below(4096),
            mask: 1 << rng.below(8) as u8,
        },
        _ => Fault::ShortAfter(rng.below(2048)),
    }
}

/// A running chaos proxy.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an OS-picked port forwarding to `upstream`.
    pub fn start(upstream: SocketAddr, seed: u64) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || forward_connections(&listener, upstream, seed, &stop))?
        };
        Ok(ChaosProxy {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address (point clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. In-flight pump threads
    /// finish on their own (sockets carry timeouts).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

/// Accepts until [`ChaosProxy::stop`] sets the stop flag and wakes it; the
/// connection that woke it is dropped unforwarded.
fn forward_connections(listener: &TcpListener, upstream: SocketAddr, seed: u64, stop: &AtomicBool) {
    let base = Rng::seed(seed);
    let mut conn_index = 0u64;
    for client in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(client) = client else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        let mut rng = base.fork(conn_index);
        conn_index += 1;
        let c2s = pick_fault(&mut rng);
        let s2c = pick_fault(&mut rng);
        // Upstream down: the client sees a reset.
        if let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) {
            spawn_pumps(client, server, c2s, s2c);
        }
    }
}

fn spawn_pumps(client: TcpStream, server: TcpStream, c2s: Fault, s2c: Fault) {
    let io_t = Some(Duration::from_secs(5));
    for s in [&client, &server] {
        let _ = s.set_read_timeout(io_t);
        let _ = s.set_write_timeout(io_t);
        let _ = s.set_nodelay(true);
    }
    let (client_r, server_w) = match (client.try_clone(), server.try_clone()) {
        (Ok(c), Ok(s)) => (c, s),
        _ => return,
    };
    // Detached pump threads: they exit on EOF, socket error, or a
    // ShortAfter cut; socket timeouts bound their lifetime.
    let _ = std::thread::Builder::new()
        .name("chaos-c2s".into())
        .spawn(move || pump(client_r, server_w, c2s));
    let _ = std::thread::Builder::new()
        .name("chaos-s2c".into())
        .spawn(move || pump(server, client, s2c));
}

/// Copies one direction, applying the fault plan. Severs both half-closes
/// on exit so the peer observes EOF/reset rather than a hang.
fn pump(mut from: TcpStream, mut to: TcpStream, fault: Fault) {
    let mut buf = [0u8; 4096];
    let mut offset = 0u64;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let chunk = &mut buf[..n];
        match fault {
            Fault::None => {}
            Fault::Delay(d) => {
                if offset == 0 {
                    std::thread::sleep(d);
                }
            }
            Fault::CorruptByte { at, mask } => {
                if at >= offset && at < offset + n as u64 {
                    chunk[(at - offset) as usize] ^= mask;
                }
            }
            Fault::ShortAfter(cut) => {
                if offset >= cut {
                    break;
                }
                let keep = ((cut - offset) as usize).min(n);
                if keep < n {
                    let _ = to.write_all(&chunk[..keep]);
                    break;
                }
            }
        }
        if to.write_all(chunk).is_err() {
            break;
        }
        offset += n as u64;
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let base = Rng::seed(42);
        for conn in 0..64 {
            let mut a = base.fork(conn);
            let mut b = base.fork(conn);
            assert_eq!(pick_fault(&mut a), pick_fault(&mut b));
            assert_eq!(pick_fault(&mut a), pick_fault(&mut b));
        }
    }

    /// An idle proxy's accept thread is blocked in `accept`, so `stop` must
    /// wake it or never return; the watchdog turns a missed wake into a
    /// failure.
    #[test]
    fn idle_proxy_stop_returns() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy = ChaosProxy::start(upstream.local_addr().unwrap(), 1).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            proxy.stop();
            let _ = done_tx.send(());
        });
        let stopped = done_rx.recv_timeout(Duration::from_secs(10));
        stopped.expect("stop returned");
    }

    #[test]
    fn passthrough_proxy_forwards_bytes() {
        // Seed 1's first connection is faultless both ways, so the proxy is
        // a pure forwarder for it: bytes must survive both directions.
        const SEED: u64 = 1;
        let mut conn0 = Rng::seed(SEED).fork(0);
        assert_eq!(
            [pick_fault(&mut conn0), pick_fault(&mut conn0)],
            [Fault::None, Fault::None]
        );
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let proxy = ChaosProxy::start(up_addr, SEED).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");
        echo.join().unwrap();
        proxy.stop();
    }
}
