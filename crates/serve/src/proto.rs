//! Length-prefixed binary wire protocol for `amrviz serve`.
//!
//! Every frame on the wire is `u32` little-endian payload length followed by
//! the payload. A request is one frame; a response is a *sequence* of frames
//! the client may stop consuming at any prefix:
//!
//! ```text
//! client → server   [REQUEST]
//! server → client   [HEADER] ([KEYS] | [LEVEL]*) [END]
//! ```
//!
//! `HEADER` carries the typed status (and, for `RetryLater`, a retry-after
//! hint) plus response flags. The header leaves before the finer levels
//! have decoded, so its flags mean *known at header time*:
//! `FLAG_DEGRADED` when a stored checksum already fails (or the cached
//! entry holds repaired fabs), `FLAG_COARSE_ONLY` when the deadline budget
//! forced a coarse-only response. `LEVEL` frames stream the decoded
//! hierarchy coarse-first as levels `0, 1, …`, each with its own count of
//! repaired fabs; `END` closes a successful stream and its status is the
//! authoritative one — `Degraded` if any level sent was repaired, whether
//! or not the header could know. A stream cut without `END` means the
//! server hit the deadline mid-response and stopped rather than write past
//! it — the received prefix is still a valid progressive result.
//!
//! A `LEVEL` payload is `tag, level, uvarint degraded_fabs, uvarint n_fabs`,
//! then per fab six zig-zag uvarints (box lo, hi) followed by the fab's
//! cells as little-endian `f64`s, x-fastest — the fab's own bytes, which
//! the server writes straight from its buffers ([`write_level_frame`]).
//!
//! Frame payloads are encoded with the same budget-checked
//! [`ByteWriter`]/[`ByteReader`] pair the compressed container uses, so a
//! chaos-corrupted frame surfaces as a typed [`CodecError`], never a panic.

use amrviz_amr::MultiFab;
use amrviz_codec::{CodecError, DecodeBudget};
use amrviz_compress::wire::{f64s_as_le_bytes, ByteReader, ByteWriter};
use std::io::{IoSlice, Read, Write};

/// Protocol version byte, first in every request and header payload.
pub const PROTO_VERSION: u8 = 1;
/// Request payload magic.
pub const REQ_MAGIC: u8 = 0xA5;
/// Response header magic.
pub const RESP_MAGIC: u8 = 0x5A;

/// Hard cap on a *request* frame (requests are tiny; anything bigger is an
/// attack or corruption).
pub const MAX_REQUEST_FRAME: usize = 4 << 10;
/// Hard cap on a *response* frame (one level of a decoded hierarchy).
pub const MAX_RESPONSE_FRAME: usize = 256 << 20;

/// Frame tags: first payload byte of every response frame.
pub const TAG_HEADER: u8 = 0;
pub const TAG_LEVEL: u8 = 1;
pub const TAG_END: u8 = 2;
pub const TAG_KEYS: u8 = 3;
pub const TAG_STATS: u8 = 4;

/// Response header flag: at least one fab was served repaired
/// (`DecodePolicy::Degrade`) rather than decoded cleanly.
pub const FLAG_DEGRADED: u8 = 1;
/// Response header flag: the deadline budget was near exhaustion at
/// admission, so only the coarse level is streamed.
pub const FLAG_COARSE_ONLY: u8 = 2;

/// Declares a wire enum from one `variant = code, "name"` list: the enum,
/// `ALL`, `code`, `from_code` and `name` all come from it, so the mappings
/// cannot disagree.
macro_rules! wire_enum {
    ($(#[$meta:meta])* pub enum $ty:ident {
        $($(#[$doc:meta])* $variant:ident = $code:literal, $name:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$doc])* $variant,)*
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &[$ty] = &[$($ty::$variant,)*];

            /// The variant's wire byte.
            pub fn code(self) -> u8 {
                match self {
                    $($ty::$variant => $code,)*
                }
            }

            /// The variant a wire byte names, if any.
            pub fn from_code(c: u8) -> Option<$ty> {
                match c {
                    $($code => Some($ty::$variant),)*
                    _ => None,
                }
            }

            /// The variant's name in journal lines and reports.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

wire_enum! {
    /// Request operations.
    pub enum Op {
        /// Progressive fetch of a decoded hierarchy by blob key.
        Get = 1, "get",
        /// Enumerate the store's blob keys.
        List = 2, "list",
        /// Liveness probe.
        Ping = 3, "ping",
        /// In-band telemetry pull: the server answers with a versioned JSON
        /// snapshot (health, windowed latency/stage percentiles, SLO burn,
        /// tail exemplars) in a single `STATS` frame. Same listener, same
        /// framing — no second port to firewall or keep alive.
        Stats = 4, "stats",
    }
}

wire_enum! {
    /// Typed response statuses. The split mirrors the codec error taxonomy:
    /// `RetryLater` and `Timeout` are transient (retry may succeed); `Corrupt`,
    /// `NotFound` and `BadRequest` are permanent for the same request.
    pub enum Status {
        /// Fully decoded, all fabs clean.
        Ok = 0, "ok",
        /// Served, but some fabs were repaired (see `FLAG_DEGRADED`).
        Degraded = 1, "degraded",
        /// Load shed at admission: the work queue was full. The header carries
        /// a retry-after hint in milliseconds.
        RetryLater = 2, "retry_later",
        /// No blob under that key.
        NotFound = 3, "not_found",
        /// Blob failed its checksum (quarantined) or its contents failed
        /// structural decode — permanently unservable as stored.
        Corrupt = 4, "corrupt",
        /// The deadline budget expired before even the coarse level was ready.
        Timeout = 5, "timeout",
        /// Unparseable or unsupported request frame.
        BadRequest = 6, "bad_request",
        /// Server is draining; no new work accepted.
        ShuttingDown = 7, "shutting_down",
        /// Unexpected server-side failure.
        Internal = 8, "internal",
    }
}

impl Status {
    /// Inverse of [`Status::name`] — how a journal reader gets the typed
    /// status back.
    pub fn from_name(name: &str) -> Option<Status> {
        Status::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Counted as *good* for availability: the client got usable data. A
    /// header with a good status announces a data-bearing stream (LEVEL/KEYS
    /// frames follow before END).
    pub fn is_good(self) -> bool {
        matches!(self, Status::Ok | Status::Degraded)
    }

    /// Whether the status counts toward the SLO at all. Client-attributable
    /// errors (unknown key, malformed request) never burn the server's
    /// error budget — the same rule as excluding 4xx from HTTP availability.
    pub fn counts_toward_slo(self) -> bool {
        !matches!(self, Status::NotFound | Status::BadRequest)
    }

    /// True when the same request may succeed if retried later.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            Status::RetryLater | Status::Timeout | Status::ShuttingDown
        )
    }
}

/// A client request. One request per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub op: Op,
    /// Client-generated trace id, propagated into the server's journal so
    /// `amrviz stats` can stitch the client and server halves of a request.
    pub trace: u64,
    /// Blob key (GET only).
    pub key: u64,
    /// Deadline budget in milliseconds (0 = expire immediately; the server
    /// also caps this at its own maximum).
    pub deadline_ms: u32,
    /// Finest level the client wants (0xFF = all levels).
    pub max_level: u8,
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(REQ_MAGIC);
        w.u8(PROTO_VERSION);
        w.u8(self.op.code());
        w.u64_le(self.trace);
        w.u64_le(self.key);
        w.uvarint(self.deadline_ms as u64);
        w.u8(self.max_level);
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<Request, CodecError> {
        let mut r = ByteReader::with_budget(bytes, DecodeBudget::strict());
        if r.u8()? != REQ_MAGIC {
            return Err(CodecError::Corrupt("bad request magic"));
        }
        if r.u8()? != PROTO_VERSION {
            return Err(CodecError::Corrupt("unsupported protocol version"));
        }
        let op = Op::from_code(r.u8()?).ok_or(CodecError::Corrupt("unknown op"))?;
        let trace = r.u64_le()?;
        let key = r.u64_le()?;
        let deadline_ms = u32::try_from(r.uvarint()?)
            .map_err(|_| CodecError::Corrupt("deadline out of range"))?;
        let max_level = r.u8()?;
        Ok(Request {
            op,
            trace,
            key,
            deadline_ms,
            max_level,
        })
    }
}

/// Response header frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespHeader {
    pub status: Status,
    pub flags: u8,
    pub retry_after_ms: u32,
    /// Levels the server intends to stream (0 for non-OK statuses).
    pub n_levels: u8,
    pub key: u64,
}

impl RespHeader {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(TAG_HEADER);
        w.u8(RESP_MAGIC);
        w.u8(PROTO_VERSION);
        w.u8(self.status.code());
        w.u8(self.flags);
        w.uvarint(self.retry_after_ms as u64);
        w.u8(self.n_levels);
        w.u64_le(self.key);
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<RespHeader, CodecError> {
        let mut r = ByteReader::with_budget(bytes, DecodeBudget::strict());
        if r.u8()? != TAG_HEADER {
            return Err(CodecError::Corrupt("expected header frame"));
        }
        if r.u8()? != RESP_MAGIC || r.u8()? != PROTO_VERSION {
            return Err(CodecError::Corrupt("bad response magic/version"));
        }
        let status =
            Status::from_code(r.u8()?).ok_or(CodecError::Corrupt("unknown status code"))?;
        let flags = r.u8()?;
        let retry_after_ms = u32::try_from(r.uvarint()?)
            .map_err(|_| CodecError::Corrupt("retry-after out of range"))?;
        let n_levels = r.u8()?;
        let key = r.u64_le()?;
        Ok(RespHeader {
            status,
            flags,
            retry_after_ms,
            n_levels,
            key,
        })
    }
}

/// End-of-stream frame: marks a response the server *completed* (as opposed
/// to one cut mid-stream at the deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndFrame {
    pub status: Status,
    pub levels_sent: u8,
    pub server_elapsed_us: u64,
}

impl EndFrame {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(TAG_END);
        w.u8(self.status.code());
        w.u8(self.levels_sent);
        w.uvarint(self.server_elapsed_us);
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<EndFrame, CodecError> {
        let mut r = ByteReader::with_budget(bytes, DecodeBudget::strict());
        if r.u8()? != TAG_END {
            return Err(CodecError::Corrupt("expected end frame"));
        }
        let status = Status::from_code(r.u8()?).ok_or(CodecError::Corrupt("unknown status"))?;
        let levels_sent = r.u8()?;
        let server_elapsed_us = r.uvarint()?;
        Ok(EndFrame {
            status,
            levels_sent,
            server_elapsed_us,
        })
    }
}

/// Everything of a `LEVEL` frame that is not cell data: the preamble (tag,
/// level, degraded-fab and fab counts) followed by every fab's zig-zag box
/// header, back to back in `head`. `cuts[0]` ends the preamble and
/// `cuts[i + 1]` ends fab `i`'s box header; on the wire fab `i`'s cell data
/// (its `f64`s, little-endian — the fab's own bytes) follows its header.
struct LevelLayout {
    head: Vec<u8>,
    cuts: Vec<usize>,
    /// Payload length of the whole frame, cell data included, and the
    /// length prefix that announces it.
    len: usize,
    prefix: [u8; 4],
}

/// Lays out the `LEVEL` frame of `mf`. A level that does not fit the wire —
/// a level number above 255, a payload above [`MAX_RESPONSE_FRAME`] — is
/// `InvalidInput`, never a silently truncated field.
fn level_layout(level: usize, degraded_fabs: u32, mf: &MultiFab) -> std::io::Result<LevelLayout> {
    let level = u8::try_from(level)
        .map_err(|_| invalid_input(format!("level {level} does not fit the frame's level byte")))?;
    let mut w = ByteWriter::new();
    w.u8(TAG_LEVEL);
    w.u8(level);
    w.uvarint(degraded_fabs as u64);
    w.uvarint(mf.len() as u64);
    let mut cuts = Vec::with_capacity(mf.len() + 1);
    cuts.push(w.len());
    for fab in mf.fabs() {
        w.box3(&fab.box3());
        cuts.push(w.len());
    }
    let len = w.len() + mf.num_cells() * 8;
    Ok(LevelLayout {
        prefix: check_frame_len(len)?,
        head: w.finish(),
        cuts,
        len,
    })
}

fn invalid_input(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, what)
}

/// The length prefix of a frame of `len` payload bytes, or `InvalidInput`
/// for a frame no reader would accept.
fn check_frame_len(len: usize) -> std::io::Result<[u8; 4]> {
    if len > MAX_RESPONSE_FRAME {
        return Err(invalid_input(format!(
            "frame of {len} bytes exceeds cap {MAX_RESPONSE_FRAME}"
        )));
    }
    Ok((len as u32).to_le_bytes())
}

/// Encodes one level of a decoded hierarchy as a `LEVEL` frame payload —
/// the bytes [`write_level_frame`] puts on the wire after the length prefix.
///
/// # Panics
/// Panics if the level does not fit a frame (see [`write_level_frame`],
/// which returns that as an error instead).
pub fn encode_level_frame(level: usize, degraded_fabs: u32, mf: &MultiFab) -> Vec<u8> {
    let layout = level_layout(level, degraded_fabs, mf).expect("level fits a frame");
    let mut out = Vec::with_capacity(layout.len);
    out.extend_from_slice(&layout.head[..layout.cuts[0]]);
    for (fab, cut) in mf.fabs().iter().zip(layout.cuts.windows(2)) {
        out.extend_from_slice(&layout.head[cut[0]..cut[1]]);
        out.extend_from_slice(f64s_as_le_bytes(fab.data()));
    }
    out
}

/// Writes one level as a length-prefixed `LEVEL` frame without assembling
/// it: `[len][preamble][box₀][data₀][box₁][data₁]…` goes out as vectored
/// writes straight from the fabs' buffers, resumed after every short write.
/// Byte for byte `write_frame(w, &encode_level_frame(..))`.
pub fn write_level_frame(
    w: &mut impl Write,
    level: usize,
    degraded_fabs: u32,
    mf: &MultiFab,
) -> std::io::Result<()> {
    let layout = level_layout(level, degraded_fabs, mf)?;
    let mut bufs = Vec::with_capacity(2 * mf.len() + 2);
    bufs.push(IoSlice::new(&layout.prefix));
    bufs.push(IoSlice::new(&layout.head[..layout.cuts[0]]));
    for (fab, cut) in mf.fabs().iter().zip(layout.cuts.windows(2)) {
        bufs.push(IoSlice::new(&layout.head[cut[0]..cut[1]]));
        bufs.push(IoSlice::new(f64s_as_le_bytes(fab.data())));
    }
    write_all_vectored(w, &mut bufs)
}

/// Writes every byte of `bufs`, gathered. `write_vectored` takes what the
/// OS accepts in one call (at most `IOV_MAX` slices, often less than all
/// their bytes): advance past what went out and offer the rest again.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Summary of a parsed `LEVEL` frame (the client validates structure and
/// counts cells; it does not retain the data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelSummary {
    pub level: u8,
    pub degraded_fabs: u64,
    pub fabs: u64,
    pub cells: u64,
}

/// Parses a `LEVEL` frame payload, validating every declared size against
/// `budget` before trusting it. Cell data is sized and stepped over, not
/// read: the cost is per fab, not per value. Bytes after the last fab are
/// an error.
pub fn decode_level_frame(bytes: &[u8], budget: &DecodeBudget) -> Result<LevelSummary, CodecError> {
    let mut r = ByteReader::with_budget(bytes, *budget);
    if r.u8()? != TAG_LEVEL {
        return Err(CodecError::Corrupt("expected level frame"));
    }
    let level = r.u8()?;
    let degraded_fabs = r.uvarint()?;
    let fabs = budget.check_values(r.uvarint()? as usize)? as u64;
    let mut cells = 0u64;
    for _ in 0..fabs {
        let n = fab_cells(&mut r, budget)?;
        budget.check_section(n * 8, r.remaining())?;
        r.skip(n * 8)?;
        cells += n as u64;
    }
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt("trailing bytes after last fab"));
    }
    Ok(LevelSummary {
        level,
        degraded_fabs,
        fabs,
        cells,
    })
}

/// Reads one fab's box header and returns its budget-checked cell count.
fn fab_cells(r: &mut ByteReader<'_>, budget: &DecodeBudget) -> Result<usize, CodecError> {
    let n = r
        .box3()?
        .size()
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or(CodecError::Corrupt("fab dims overflow"))?;
    budget.check_values(n)
}

/// Encodes a `KEYS` frame (LIST response).
pub fn encode_keys_frame(keys: &[u64]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(TAG_KEYS);
    w.uvarint(keys.len() as u64);
    for &k in keys {
        w.u64_le(k);
    }
    w.finish()
}

/// Encodes a `STATS` frame: the telemetry snapshot JSON as one
/// length-prefixed section.
pub fn encode_stats_frame(json: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(TAG_STATS);
    w.section(json.as_bytes());
    w.finish()
}

/// Parses a `STATS` frame payload back into the snapshot JSON string,
/// validating the section length against `budget` and requiring UTF-8
/// (a chaos-corrupted snapshot surfaces as a typed error, never a panic
/// or mojibake downstream).
pub fn decode_stats_frame(bytes: &[u8], budget: &DecodeBudget) -> Result<String, CodecError> {
    let mut r = ByteReader::with_budget(bytes, *budget);
    if r.u8()? != TAG_STATS {
        return Err(CodecError::Corrupt("expected stats frame"));
    }
    let body = r.section()?;
    std::str::from_utf8(body)
        .map(|s| s.to_string())
        .map_err(|_| CodecError::Corrupt("stats frame not utf-8"))
}

/// Parses a `KEYS` frame payload.
pub fn decode_keys_frame(bytes: &[u8], budget: &DecodeBudget) -> Result<Vec<u64>, CodecError> {
    let mut r = ByteReader::with_budget(bytes, *budget);
    if r.u8()? != TAG_KEYS {
        return Err(CodecError::Corrupt("expected keys frame"));
    }
    let n = budget.check_values(r.uvarint()? as usize)?;
    budget.check_section(n * 8, r.remaining())?;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        keys.push(r.u64_le()?);
    }
    Ok(keys)
}

/// Writes one length-prefixed frame. A payload above
/// [`MAX_RESPONSE_FRAME`] (which no reader accepts, and whose length would
/// not survive the `u32` prefix much longer) is `InvalidInput`.
///
/// Prefix and payload leave in one gathered write, so a small frame is one
/// segment. A request is then sent whole before the peer can answer it: a
/// server that sheds with a reply and closes before the request arrives
/// resets the connection only after the reply is in the client's buffer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let prefix = check_frame_len(payload.len())?;
    write_all_vectored(w, &mut [IoSlice::new(&prefix), IoSlice::new(payload)])
}

/// Reads one length-prefixed frame, capping the declared length at `max`.
/// Returns `Ok(None)` on clean EOF *before* the length prefix (peer closed
/// between frames).
pub fn read_frame(r: &mut impl Read, max: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_amr::{Box3, BoxArray, MultiFab};
    use amrviz_codec::zigzag_encode;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            op: Op::Get,
            trace: 0xDEAD_BEEF_1234,
            key: 42,
            deadline_ms: 250,
            max_level: 0xFF,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn header_and_end_roundtrip() {
        let h = RespHeader {
            status: Status::RetryLater,
            flags: 0,
            retry_after_ms: 75,
            n_levels: 0,
            key: 7,
        };
        assert_eq!(RespHeader::decode(&h.encode()).unwrap(), h);
        let e = EndFrame {
            status: Status::Degraded,
            levels_sent: 3,
            server_elapsed_us: 12_345,
        };
        assert_eq!(EndFrame::decode(&e.encode()).unwrap(), e);
    }

    /// The frame encoder as it was before the bulk layout: one `w.f64(v)`
    /// per value. The oracle the layout-built frames must equal.
    fn encode_per_value(level: usize, degraded_fabs: u32, mf: &MultiFab) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(TAG_LEVEL);
        w.u8(level as u8);
        w.uvarint(degraded_fabs as u64);
        w.uvarint(mf.len() as u64);
        for fab in mf.fabs() {
            let bx = fab.box3();
            for a in 0..3 {
                w.uvarint(zigzag_encode(bx.lo()[a]));
            }
            for a in 0..3 {
                w.uvarint(zigzag_encode(bx.hi()[a]));
            }
            for &v in fab.data() {
                w.f64(v);
            }
        }
        w.finish()
    }

    /// The frame parser as it was: every value read back. Also returns the
    /// bytes left over, which the old parser ignored.
    fn decode_per_value(
        bytes: &[u8],
        budget: &DecodeBudget,
    ) -> Result<(LevelSummary, usize), CodecError> {
        let mut r = ByteReader::with_budget(bytes, *budget);
        if r.u8()? != TAG_LEVEL {
            return Err(CodecError::Corrupt("expected level frame"));
        }
        let level = r.u8()?;
        let degraded_fabs = r.uvarint()?;
        let fabs = budget.check_values(r.uvarint()? as usize)? as u64;
        let mut cells = 0u64;
        for _ in 0..fabs {
            let n = fab_cells(&mut r, budget)?;
            budget.check_section(n * 8, r.remaining())?;
            for _ in 0..n {
                r.f64()?;
            }
            cells += n as u64;
        }
        let summary = LevelSummary {
            level,
            degraded_fabs,
            fabs,
            cells,
        };
        Ok((summary, r.remaining()))
    }

    /// A writer that takes at most `k` bytes per call, across slices.
    struct Trickle {
        k: usize,
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut left = self.k;
            for b in bufs {
                let n = left.min(b.len());
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.k - left)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Values whose bit patterns a value-level copy could lose.
    const ODD: [f64; 6] = [
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
    ];

    fn random_level(rng: &mut amrviz_rng::Rng) -> MultiFab {
        let n_fabs = rng.below(6) as usize; // 0 = an empty level
        let fabs = (0..n_fabs)
            .map(|_| {
                let lo = amrviz_amr::IntVect::new(
                    rng.range_i64(-300, 300),
                    rng.range_i64(-300, 300),
                    rng.range_i64(-300, 300),
                );
                let ext = if rng.chance(0.3) {
                    [0, 0, 0] // a 1×1×1 fab
                } else {
                    [
                        rng.range_i64(0, 9),
                        rng.range_i64(0, 5),
                        rng.range_i64(0, 3),
                    ]
                };
                let hi = lo + amrviz_amr::IntVect::new(ext[0], ext[1], ext[2]);
                amrviz_amr::Fab::from_fn(Box3::new(lo, hi), |_| match rng.below(4) {
                    0 => ODD[rng.below(ODD.len() as u64) as usize],
                    // NaNs with payload bits: quiet, signalling, negative.
                    1 => f64::from_bits(
                        0x7FF0_0000_0000_0001 | rng.next_u64() >> 12 | rng.next_u64() << 63,
                    ),
                    _ => rng.normal() * 1e3,
                })
            })
            .collect();
        MultiFab::from_fabs(fabs)
    }

    #[test]
    fn frame_bytes_equal_the_per_value_oracle() {
        amrviz_rng::check(0xF4A3E, 200, |rng| {
            let mf = random_level(rng);
            let (level, degraded) = (rng.below(256) as usize, rng.below(1000) as u32);
            let frame = encode_level_frame(level, degraded, &mf);
            assert_eq!(frame, encode_per_value(level, degraded, &mf));
            let mut framed = Vec::new();
            write_frame(&mut framed, &frame).unwrap();
            let mut wire = Vec::new();
            write_level_frame(&mut wire, level, degraded, &mf).unwrap();
            assert_eq!(wire, framed);
            // The O(fabs) parser agrees with the per-value one, on the frame
            // and on every truncation and single-byte corruption of its head.
            let budget = DecodeBudget::strict();
            let want = decode_per_value(&frame, &budget).unwrap();
            assert_eq!(want.1, 0);
            assert_eq!(decode_level_frame(&frame, &budget).unwrap(), want.0);
            assert_eq!(
                (
                    want.0.level as usize,
                    want.0.degraded_fabs,
                    want.0.fabs,
                    want.0.cells
                ),
                (
                    level,
                    degraded as u64,
                    mf.len() as u64,
                    mf.num_cells() as u64
                )
            );
            let cut = rng.below(frame.len() as u64) as usize;
            assert!(decode_level_frame(&frame[..cut], &budget).is_err());
            let mut bad = frame.clone();
            let at = rng.below(frame.len().min(24) as u64) as usize;
            bad[at] ^= 1 << rng.below(8);
            match (
                decode_per_value(&bad, &budget),
                decode_level_frame(&bad, &budget),
            ) {
                (Ok((s, 0)), got) => assert_eq!(got.unwrap(), s),
                (Ok(_), got) => assert!(matches!(got, Err(CodecError::Corrupt(_)))),
                (Err(_), got) => assert!(got.is_err()),
            }
        });
    }

    #[test]
    fn short_writes_resume_mid_slice_and_past_iov_max() {
        // 1100 fabs → 2202 slices, more than one `writev` may take (1024).
        let ba = BoxArray::new(
            (0..1100)
                .map(|i| {
                    Box3::new(
                        amrviz_amr::IntVect::new(i, 0, 0),
                        amrviz_amr::IntVect::new(i, 1, 2),
                    )
                })
                .collect(),
        );
        let mf = MultiFab::from_fn(&ba, |iv| iv[0] as f64 * 0.5 - iv[2] as f64);
        let mut want = Vec::new();
        write_frame(&mut want, &encode_level_frame(3, 7, &mf)).unwrap();
        for k in [1, 7, 4096] {
            let mut w = Trickle {
                k,
                out: Vec::new(),
                calls: 0,
            };
            write_level_frame(&mut w, 3, 7, &mf).unwrap();
            assert_eq!(w.out, want, "k = {k}");
            assert_eq!(w.calls, want.len().div_ceil(k), "k = {k}: no empty writes");
        }
        // A writer without `write_vectored` (std's default offers it the
        // first non-empty slice) sees the same bytes.
        struct Plain(Vec<u8>);
        impl Write for Plain {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut plain = Plain(Vec::new());
        write_level_frame(&mut plain, 3, 7, &mf).unwrap();
        assert_eq!(plain.0, want);
        // A writer that stops taking bytes is an error, not a spin.
        let mut full = Trickle {
            k: 0,
            out: Vec::new(),
            calls: 0,
        };
        let err = write_level_frame(&mut full, 3, 7, &mf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn trailing_bytes_after_the_last_fab_are_rejected() {
        let mf = MultiFab::from_fn(&BoxArray::single(Box3::from_dims(2, 2, 2)), |iv| {
            iv[1] as f64
        });
        let mut frame = encode_level_frame(0, 0, &mf);
        assert!(decode_level_frame(&frame, &DecodeBudget::strict()).is_ok());
        frame.push(0);
        assert!(matches!(
            decode_level_frame(&frame, &DecodeBudget::strict()),
            Err(CodecError::Corrupt("trailing bytes after last fab"))
        ));
        // An empty level is a preamble and nothing else.
        let empty = encode_level_frame(9, 0, &MultiFab::from_fabs(Vec::new()));
        assert_eq!(empty, [TAG_LEVEL, 9, 0, 0]);
        let s = decode_level_frame(&empty, &DecodeBudget::strict()).unwrap();
        assert_eq!((s.level, s.fabs, s.cells), (9, 0, 0));
    }

    #[test]
    fn unencodable_frames_are_invalid_input_not_truncated() {
        let small = MultiFab::from_fn(&BoxArray::single(Box3::from_dims(2, 1, 1)), |_| 1.0);
        let mut out = Vec::new();
        write_level_frame(&mut out, 255, 0, &small).unwrap();
        assert_eq!(out[5], 255, "level byte");
        out.clear();
        let err = write_level_frame(&mut out, 256, 0, &small).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(
            out.is_empty(),
            "nothing leaves before the frame is known to fit"
        );
        // One level past the response cap. The cells are never touched, so
        // the zero pages behind them are never committed.
        let huge = MultiFab::zeros(&BoxArray::single(Box3::from_dims(
            1024,
            1024,
            MAX_RESPONSE_FRAME / (8 << 20),
        )));
        let err = write_level_frame(&mut out, 0, 0, &huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
        drop(huge);
        let payload = vec![0u8; MAX_RESPONSE_FRAME + 1];
        let err = write_frame(&mut out, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
        write_frame(&mut out, &payload[..9]).unwrap();
        assert_eq!(out.len(), 13);
    }

    #[test]
    fn level_frame_roundtrip_counts_cells() {
        let ba = BoxArray::new(vec![
            Box3::from_dims(4, 4, 4),
            Box3::new(
                amrviz_amr::IntVect::new(4, 0, 0),
                amrviz_amr::IntVect::new(7, 3, 3),
            ),
        ]);
        let mf = MultiFab::from_fn(&ba, |iv| iv[0] as f64);
        let frame = encode_level_frame(1, 2, &mf);
        let s = decode_level_frame(&frame, &DecodeBudget::strict()).unwrap();
        assert_eq!(s.level, 1);
        assert_eq!(s.degraded_fabs, 2);
        assert_eq!(s.fabs, 2);
        assert_eq!(s.cells, 128);
    }

    #[test]
    fn stats_frame_roundtrip_and_corruption() {
        let json = "{\"schema\":\"amrviz-serve-stats-v1\",\"health\":\"ok\"}";
        let frame = encode_stats_frame(json);
        assert_eq!(frame[0], TAG_STATS);
        assert_eq!(
            decode_stats_frame(&frame, &DecodeBudget::strict()).unwrap(),
            json
        );
        // Truncated section: typed error.
        assert!(matches!(
            decode_stats_frame(&frame[..frame.len() - 3], &DecodeBudget::strict()),
            Err(CodecError::Corrupt(_) | CodecError::Truncated)
        ));
        // Wrong tag: typed error.
        let mut bad = frame.clone();
        bad[0] = TAG_KEYS;
        assert!(matches!(
            decode_stats_frame(&bad, &DecodeBudget::strict()),
            Err(CodecError::Corrupt(_))
        ));
        // Non-UTF-8 body: typed error, not a panic.
        let mut w = amrviz_compress::wire::ByteWriter::new();
        w.u8(TAG_STATS);
        w.section(&[0xFF, 0xFE, 0x80]);
        assert!(matches!(
            decode_stats_frame(&w.finish(), &DecodeBudget::strict()),
            Err(CodecError::Corrupt(_))
        ));
        // Op::Stats roundtrips through the request codec.
        let req = Request {
            op: Op::Stats,
            trace: 0x70B,
            key: 0,
            deadline_ms: 1000,
            max_level: 0,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    /// The wire codes are the protocol and the names are the journal's
    /// vocabulary (`amrviz stats` maps names back through
    /// `Status::from_name`): both are pinned here, literally.
    #[test]
    fn wire_codes_and_names_are_pinned() {
        let ops = [
            (Op::Get, 1, "get"),
            (Op::List, 2, "list"),
            (Op::Ping, 3, "ping"),
            (Op::Stats, 4, "stats"),
        ];
        let statuses = [
            (Status::Ok, 0, "ok"),
            (Status::Degraded, 1, "degraded"),
            (Status::RetryLater, 2, "retry_later"),
            (Status::NotFound, 3, "not_found"),
            (Status::Corrupt, 4, "corrupt"),
            (Status::Timeout, 5, "timeout"),
            (Status::BadRequest, 6, "bad_request"),
            (Status::ShuttingDown, 7, "shutting_down"),
            (Status::Internal, 8, "internal"),
        ];
        assert_eq!(Op::ALL, ops.map(|(op, ..)| op));
        assert_eq!(Status::ALL, statuses.map(|(s, ..)| s));
        for (op, code, name) in ops {
            assert_eq!((op.code(), op.name()), (code, name));
            assert_eq!(Op::from_code(code), Some(op));
        }
        for (status, code, name) in statuses {
            assert_eq!((status.code(), status.name()), (code, name));
            assert_eq!(Status::from_code(code), Some(status));
            assert_eq!(Status::from_name(name), Some(status));
        }
        for byte in 0..=u8::MAX {
            if !ops.iter().any(|&(_, code, _)| code == byte) {
                assert_eq!(Op::from_code(byte), None, "op byte {byte}");
            }
            if !statuses.iter().any(|&(_, code, _)| code == byte) {
                assert_eq!(Status::from_code(byte), None, "status byte {byte}");
            }
        }
        assert_eq!(Status::from_name("retry later"), None);
    }

    #[test]
    fn corrupt_frames_yield_typed_errors() {
        let req = Request {
            op: Op::Get,
            trace: 1,
            key: 2,
            deadline_ms: 3,
            max_level: 0,
        };
        let mut bytes = req.encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Request::decode(&bytes),
            Err(CodecError::Corrupt(_))
        ));
        assert!(matches!(
            Request::decode(&bytes[..2]),
            Err(CodecError::Corrupt(_) | CodecError::Truncated)
        ));
        let keys = encode_keys_frame(&[1, 2, 3]);
        assert!(matches!(
            decode_keys_frame(&keys[..keys.len() - 2], &DecodeBudget::strict()),
            Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn frame_io_roundtrip_and_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cur, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cur, 64).unwrap().is_none(), "clean EOF");

        let mut big = Vec::new();
        write_frame(&mut big, &[0u8; 100]).unwrap();
        let mut cur = std::io::Cursor::new(big);
        let err = read_frame(&mut cur, 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
