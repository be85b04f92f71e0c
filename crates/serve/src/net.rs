//! # net — the wire protocol and the non-blocking front door
//!
//! The paper's runtime is a *service*: queries arrive over the network,
//! not from a replayed vector. This module is the dependency-free front
//! door — a small length-prefixed wire protocol (versioned header,
//! tenant id, priority, Pyrite source or plan hash) and a hand-rolled
//! mio-style readiness loop ([`Listener`]) that turns delivered bytes
//! into [`WireRequest`]s for the admission queue.
//!
//! ## Frame layout (version 1, little-endian)
//!
//! ```text
//! +--------+---------+------+---------+==========+
//! | magic  | version | kind | len     | payload  |
//! | u16    | u8      | u8   | u32     | len bytes|
//! +--------+---------+------+---------+==========+
//! ```
//!
//! `magic` is `0xA1DA`; `len` is capped at [`MAX_FRAME_BYTES`]. Strings
//! are length-prefixed UTF-8 (`u16` for short fields, `u32` for Pyrite
//! source). Every malformed input maps to a typed [`WireError`] — the
//! decoder never panics, whatever bytes arrive (proptested in
//! `tests/net.rs`).
//!
//! ## Transport abstraction
//!
//! The listener is generic over a [`Fabric`]; the deterministic
//! simulated transport (`aida_testkit::NetSim`) carries every soak and
//! test. All scheduling lives in the fabric, so the reactor itself has no clock
//! and no randomness: byte-identical replay is the fabric's seed's job.
//! A turn's writable pass visits only connections whose responses
//! outlived a flush, so an idle connection costs a turn nothing.

use crate::request::Priority;
use aida_llm::noise::splitmix64;
use aida_testkit::NetSim;
use std::collections::BTreeMap;
use std::fmt;
use std::io;

/// First two bytes of every frame.
const WIRE_MAGIC: u16 = 0xA1DA;
/// The protocol version this build speaks.
const WIRE_VERSION: u8 = 1;
/// Largest accepted payload (1 MiB) — anything bigger is a typed
/// [`WireError::Oversize`], not an allocation.
const MAX_FRAME_BYTES: u32 = 1 << 20;

const HEADER_BYTES: usize = 8;

/// Everything that can go wrong between bytes and frames. Each variant
/// has a stable [`kind`](WireError::kind) label used as the counter key
/// in [`NetStats`] and in client-visible `Error` frames.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The first two bytes were not [`WIRE_MAGIC`].
    BadMagic {
        /// What arrived instead.
        got: u16,
    },
    /// A version this build does not speak.
    UnsupportedVersion {
        /// The version byte received.
        got: u8,
    },
    /// A frame kind outside the protocol.
    UnknownKind {
        /// The kind byte received.
        got: u8,
    },
    /// Declared payload length above [`MAX_FRAME_BYTES`].
    Oversize {
        /// Declared length.
        len: u32,
        /// The cap.
        max: u32,
    },
    /// The payload ended in the middle of a field.
    Truncated {
        /// Frame being decoded.
        frame: &'static str,
        /// Field that ran dry.
        field: &'static str,
    },
    /// Bytes left over after the last field of a payload.
    TrailingBytes {
        /// Frame being decoded.
        frame: &'static str,
        /// How many bytes too many.
        extra: usize,
    },
    /// A string field was not UTF-8.
    BadUtf8 {
        /// Frame being decoded.
        frame: &'static str,
        /// The offending field.
        field: &'static str,
    },
    /// A field decoded but held an illegal value (bad priority code,
    /// non-finite float, unknown body tag...).
    BadValue {
        /// Frame being decoded.
        frame: &'static str,
        /// The offending field.
        field: &'static str,
    },
    /// The connection ended mid-frame (clean FIN or abort with a
    /// partial header/payload buffered).
    TornFrame {
        /// Bytes of the unfinished frame that did arrive.
        have: usize,
        /// Bytes the frame needed.
        need: usize,
    },
    /// A `Request` referenced a plan hash the server has never seen.
    UnknownPlanHash {
        /// The unresolved hash.
        hash: u128,
    },
    /// A frame kind that is legal on the wire but illegal in this
    /// direction (e.g. a client sending `Completed`).
    UnexpectedFrame {
        /// The frame's kind label.
        kind: &'static str,
    },
}

impl WireError {
    /// Stable lowercase label (counter keys, `Error` frame codes).
    pub fn kind(&self) -> &'static str {
        match self {
            WireError::BadMagic { .. } => "bad_magic",
            WireError::UnsupportedVersion { .. } => "unsupported_version",
            WireError::UnknownKind { .. } => "unknown_kind",
            WireError::Oversize { .. } => "oversize",
            WireError::Truncated { .. } => "truncated",
            WireError::TrailingBytes { .. } => "trailing_bytes",
            WireError::BadUtf8 { .. } => "bad_utf8",
            WireError::BadValue { .. } => "bad_value",
            WireError::TornFrame { .. } => "torn_frame",
            WireError::UnknownPlanHash { .. } => "unknown_plan_hash",
            WireError::UnexpectedFrame { .. } => "unexpected_frame",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad magic 0x{got:04X}"),
            WireError::UnsupportedVersion { got } => write!(f, "unsupported version {got}"),
            WireError::UnknownKind { got } => write!(f, "unknown frame kind {got}"),
            WireError::Oversize { len, max } => write!(f, "frame of {len} bytes exceeds {max}"),
            WireError::Truncated { frame, field } => {
                write!(f, "{frame} payload truncated at {field}")
            }
            WireError::TrailingBytes { frame, extra } => {
                write!(f, "{frame} payload has {extra} trailing bytes")
            }
            WireError::BadUtf8 { frame, field } => write!(f, "{frame}.{field} is not utf-8"),
            WireError::BadValue { frame, field } => {
                write!(f, "{frame}.{field} holds an illegal value")
            }
            WireError::TornFrame { have, need } => {
                write!(f, "connection ended mid-frame ({have} of {need} bytes)")
            }
            WireError::UnknownPlanHash { hash } => write!(f, "unknown plan hash {hash:032x}"),
            WireError::UnexpectedFrame { kind } => write!(f, "unexpected {kind} frame"),
        }
    }
}

/// The body of a `Request`: full Pyrite source, or a 128-bit content
/// hash of source this listener has already interned (a returning
/// client skips re-sending the program).
#[derive(Debug, Clone, PartialEq)]
pub enum WireBody {
    /// Full program text.
    Source(String),
    /// [`plan_hash`] of previously-sent source.
    PlanHash(u128),
}

/// A decoded query submission.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-side sequence number, echoed in every response so the
    /// client can correlate.
    pub client_seq: u64,
    /// Client's virtual send instant (for ingest-latency attribution).
    pub sent_s: f64,
    /// Requesting tenant.
    pub tenant: String,
    /// Target Context name.
    pub context: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// Optional queueing deadline (seconds).
    pub deadline_s: Option<f64>,
    /// Program text or plan hash.
    pub body: WireBody,
}

/// Every frame the protocol speaks. Clients send `Request`; the server
/// sends the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A query submission (client -> server).
    Request(WireRequest),
    /// The request was admitted to the queue.
    Accepted {
        /// Echo of the client's sequence number.
        client_seq: u64,
        /// Server-assigned global sequence number.
        seq: u64,
    },
    /// The request was shed.
    Rejected {
        /// Echo of the client's sequence number.
        client_seq: u64,
        /// Whether retrying later can help (queue pressure) or not
        /// (budget, unknown names).
        retryable: bool,
        /// [`crate::RejectReason::kind`] label.
        reason: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The query finished.
    Completed {
        /// Echo of the client's sequence number.
        client_seq: u64,
        /// Server-assigned global sequence number.
        seq: u64,
        /// End-to-end latency in virtual seconds.
        latency_s: f64,
        /// Attributed spend.
        cost_usd: f64,
        /// Whether a non-null answer was produced.
        answered: bool,
    },
    /// A protocol-level error notice (usually followed by a close).
    Error {
        /// [`WireError::kind`] label.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl Frame {
    fn kind_code(&self) -> u8 {
        match self {
            Frame::Request(_) => 1,
            Frame::Accepted { .. } => 2,
            Frame::Rejected { .. } => 3,
            Frame::Completed { .. } => 4,
            Frame::Error { .. } => 5,
        }
    }

    /// Stable lowercase label.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Request(_) => "request",
            Frame::Accepted { .. } => "accepted",
            Frame::Rejected { .. } => "rejected",
            Frame::Completed { .. } => "completed",
            Frame::Error { .. } => "error",
        }
    }
}

/// Content hash a client may send in place of Pyrite source it has
/// already transmitted: two independently-offset FNV-1a streams, each
/// finalized through splitmix64, concatenated to 128 bits.
pub fn plan_hash(source: &str) -> u128 {
    let mut lo: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hi: u64 = 0x8422_2325_cbf2_9ce4;
    for byte in source.as_bytes() {
        lo = (lo ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3);
        hi = (hi ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (u128::from(splitmix64(hi)) << 64) | u128::from(splitmix64(lo))
}

// ----- encoding -------------------------------------------------------

fn push_str16(out: &mut Vec<u8>, text: &str) {
    let bytes = &text.as_bytes()[..text.len().min(u16::MAX as usize)];
    // Stay on a char boundary if the cap truncated mid-codepoint.
    let mut end = bytes.len();
    while end > 0 && !text.is_char_boundary(end) {
        end -= 1;
    }
    out.extend_from_slice(&(end as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..end]);
}

fn push_str32(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
}

/// Encodes a frame to wire bytes (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match frame {
        Frame::Request(req) => {
            payload.extend_from_slice(&req.client_seq.to_le_bytes());
            payload.extend_from_slice(&req.sent_s.to_le_bytes());
            push_str16(&mut payload, &req.tenant);
            push_str16(&mut payload, &req.context);
            payload.push(req.priority.code());
            match req.deadline_s {
                Some(deadline) => {
                    payload.push(1);
                    payload.extend_from_slice(&deadline.to_le_bytes());
                }
                None => payload.push(0),
            }
            match &req.body {
                WireBody::Source(source) => {
                    payload.push(0);
                    push_str32(&mut payload, source);
                }
                WireBody::PlanHash(hash) => {
                    payload.push(1);
                    payload.extend_from_slice(&hash.to_le_bytes());
                }
            }
        }
        Frame::Accepted { client_seq, seq } => {
            payload.extend_from_slice(&client_seq.to_le_bytes());
            payload.extend_from_slice(&seq.to_le_bytes());
        }
        Frame::Rejected {
            client_seq,
            retryable,
            reason,
            detail,
        } => {
            payload.extend_from_slice(&client_seq.to_le_bytes());
            payload.push(u8::from(*retryable));
            push_str16(&mut payload, reason);
            push_str16(&mut payload, detail);
        }
        Frame::Completed {
            client_seq,
            seq,
            latency_s,
            cost_usd,
            answered,
        } => {
            payload.extend_from_slice(&client_seq.to_le_bytes());
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.extend_from_slice(&latency_s.to_le_bytes());
            payload.extend_from_slice(&cost_usd.to_le_bytes());
            payload.push(u8::from(*answered));
        }
        Frame::Error { code, detail } => {
            push_str16(&mut payload, code);
            push_str16(&mut payload, detail);
        }
    }
    debug_assert!(payload.len() <= MAX_FRAME_BYTES as usize);
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(frame.kind_code());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ----- decoding -------------------------------------------------------

/// A bounds-checked payload reader: every read either succeeds or
/// yields a typed error — no panics, no silent wrap.
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    frame: &'static str,
}

impl<'a> PayloadReader<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Truncated {
                frame: self.frame,
                field,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], WireError> {
        let frame = self.frame;
        self.take(N, field)?
            .try_into()
            .map_err(|_| WireError::Truncated { frame, field })
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, field)?[0])
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array(field)?))
    }

    fn u128(&mut self, field: &'static str) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.array(field)?))
    }

    fn f64_finite(&mut self, field: &'static str) -> Result<f64, WireError> {
        let value = f64::from_le_bytes(self.array(field)?);
        if !value.is_finite() {
            return Err(WireError::BadValue {
                frame: self.frame,
                field,
            });
        }
        Ok(value)
    }

    fn str16(&mut self, field: &'static str) -> Result<String, WireError> {
        let len = u16::from_le_bytes(self.array(field)?) as usize;
        self.str_body(len, field)
    }

    fn str32(&mut self, field: &'static str) -> Result<String, WireError> {
        let len = u32::from_le_bytes(self.array(field)?) as usize;
        self.str_body(len, field)
    }

    fn str_body(&mut self, len: usize, field: &'static str) -> Result<String, WireError> {
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 {
            frame: self.frame,
            field,
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::TrailingBytes {
                frame: self.frame,
                extra: self.bytes.len() - self.pos,
            });
        }
        Ok(())
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let frame_name = match kind {
        1 => "request",
        2 => "accepted",
        3 => "rejected",
        4 => "completed",
        5 => "error",
        got => return Err(WireError::UnknownKind { got }),
    };
    let mut r = PayloadReader {
        bytes: payload,
        pos: 0,
        frame: frame_name,
    };
    let frame = match kind {
        1 => {
            let client_seq = r.u64("client_seq")?;
            let sent_s = r.f64_finite("sent_s")?;
            let tenant = r.str16("tenant")?;
            let context = r.str16("context")?;
            let priority = Priority::from_code(r.u8("priority")?).ok_or(WireError::BadValue {
                frame: frame_name,
                field: "priority",
            })?;
            let deadline_s = match r.u8("deadline_flag")? {
                0 => None,
                1 => Some(r.f64_finite("deadline_s")?),
                _ => {
                    return Err(WireError::BadValue {
                        frame: frame_name,
                        field: "deadline_flag",
                    })
                }
            };
            let body = match r.u8("body_tag")? {
                0 => WireBody::Source(r.str32("source")?),
                1 => WireBody::PlanHash(r.u128("plan_hash")?),
                _ => {
                    return Err(WireError::BadValue {
                        frame: frame_name,
                        field: "body_tag",
                    })
                }
            };
            Frame::Request(WireRequest {
                client_seq,
                sent_s,
                tenant,
                context,
                priority,
                deadline_s,
                body,
            })
        }
        2 => Frame::Accepted {
            client_seq: r.u64("client_seq")?,
            seq: r.u64("seq")?,
        },
        3 => Frame::Rejected {
            client_seq: r.u64("client_seq")?,
            retryable: match r.u8("retryable")? {
                0 => false,
                1 => true,
                _ => {
                    return Err(WireError::BadValue {
                        frame: frame_name,
                        field: "retryable",
                    })
                }
            },
            reason: r.str16("reason")?,
            detail: r.str16("detail")?,
        },
        4 => Frame::Completed {
            client_seq: r.u64("client_seq")?,
            seq: r.u64("seq")?,
            latency_s: r.f64_finite("latency_s")?,
            cost_usd: r.f64_finite("cost_usd")?,
            answered: match r.u8("answered")? {
                0 => false,
                1 => true,
                _ => {
                    return Err(WireError::BadValue {
                        frame: frame_name,
                        field: "answered",
                    })
                }
            },
        },
        _ => Frame::Error {
            code: r.str16("code")?,
            detail: r.str16("detail")?,
        },
    };
    r.finish()?;
    Ok(frame)
}

/// Incremental frame decoder over an arbitrary byte stream. Feed it
/// whatever the transport delivers — single bytes, torn chunks, two
/// frames glued together — and it yields complete frames or typed
/// errors, never panicking and never over-reading.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends delivered bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before it grows unbounded.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Decodes the next complete frame, if the buffer holds one.
    /// `Ok(None)` means "need more bytes". After an `Err` the stream is
    /// unframed — the caller must close the connection (there is no
    /// resynchronization point in a length-prefixed protocol).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let pending = self.pending();
        if pending.len() < HEADER_BYTES {
            return Ok(None);
        }
        let magic = u16::from_le_bytes([pending[0], pending[1]]);
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic { got: magic });
        }
        if pending[2] != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { got: pending[2] });
        }
        let kind = pending[3];
        let len = u32::from_le_bytes([pending[4], pending[5], pending[6], pending[7]]);
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversize {
                len,
                max: MAX_FRAME_BYTES,
            });
        }
        let total = HEADER_BYTES + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let frame = decode_payload(kind, &pending[HEADER_BYTES..total])?;
        self.pos += total;
        Ok(Some(frame))
    }

    /// Called at end-of-stream: leftover bytes mean the peer quit
    /// mid-frame.
    pub fn torn(&self) -> Option<WireError> {
        let pending = self.pending();
        if pending.is_empty() {
            return None;
        }
        let need = if pending.len() >= HEADER_BYTES {
            HEADER_BYTES
                + u32::from_le_bytes([pending[4], pending[5], pending[6], pending[7]]) as usize
        } else {
            HEADER_BYTES
        };
        Some(WireError::TornFrame {
            have: pending.len(),
            need,
        })
    }
}

// ----- transport ------------------------------------------------------

/// The transport the listener reacts over: accept, readiness, and
/// non-blocking byte I/O, addressed by opaque connection tokens. Time
/// and event ordering are the fabric's concern — the reactor holds no
/// clock and draws no randomness, which is what keeps a simulated soak
/// byte-identical at a fixed seed.
pub trait Fabric {
    /// Newly-arrived connections (each token reported exactly once).
    fn accept(&mut self) -> Vec<usize>;
    /// Connections with delivered bytes, a reachable EOF, or an error
    /// condition to report.
    fn poll(&mut self) -> Vec<usize>;
    /// Non-blocking read. `Ok(0)` = clean EOF; `WouldBlock` = nothing
    /// delivered yet.
    fn read(&mut self, token: usize, buf: &mut [u8]) -> io::Result<usize>;
    /// Non-blocking write; may accept a prefix (short write).
    fn write(&mut self, token: usize, bytes: &[u8]) -> io::Result<usize>;
    /// Releases the connection.
    fn close(&mut self, token: usize);
}

impl Fabric for NetSim {
    fn accept(&mut self) -> Vec<usize> {
        NetSim::accept(self)
    }

    fn poll(&mut self) -> Vec<usize> {
        NetSim::poll(self)
    }

    fn read(&mut self, token: usize, buf: &mut [u8]) -> io::Result<usize> {
        NetSim::read(self, token, buf)
    }

    fn write(&mut self, token: usize, bytes: &[u8]) -> io::Result<usize> {
        NetSim::write(self, token, bytes)
    }

    fn close(&mut self, token: usize) {
        NetSim::close(self, token)
    }
}

// ----- the reactor ----------------------------------------------------

/// Front-door traffic counters, reported through `ServiceReport` and
/// mirrored into `obs::registry` metrics by the service.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NetStats {
    /// Connections accepted.
    pub conns_opened: u64,
    /// Connections fully closed by the server.
    pub conns_closed: u64,
    /// Most connections open at once (accepted, not yet closed).
    pub conns_peak: u64,
    /// Complete request frames decoded.
    pub frames_in: u64,
    /// Response frames queued for send.
    pub frames_out: u64,
    /// Payload + header bytes read off the fabric.
    pub bytes_in: u64,
    /// Bytes accepted by fabric writes.
    pub bytes_out: u64,
    /// `Request` bodies resolved from an interned plan hash.
    pub plan_hash_hits: u64,
    /// Typed wire errors by [`WireError::kind`] label.
    pub wire_errors: BTreeMap<String, u64>,
}

impl NetStats {
    /// Sum across every error kind.
    pub fn wire_error_total(&self) -> u64 {
        self.wire_errors.values().sum()
    }

    fn record_error(&mut self, kind: &str) {
        *self.wire_errors.entry(kind.to_string()).or_insert(0) += 1;
    }
}

/// A fully-decoded inbound submission: the wire request plus its
/// resolved Pyrite source (plan hashes already interned away).
#[derive(Debug, Clone)]
pub struct Inbound {
    /// Token of the connection it arrived on.
    pub conn: usize,
    /// The decoded request.
    pub request: WireRequest,
    /// Resolved program text.
    pub instruction: String,
}

#[derive(Debug, Default)]
struct ConnState {
    reader: FrameReader,
    out: Vec<u8>,
    /// Close once the out-buffer drains (set after a wire error or
    /// peer EOF).
    closing: bool,
    /// Listed on [`Listener::pending`]: `out` still held bytes after a
    /// flush.
    pending: bool,
}

/// The readiness loop: accepts fabric connections, feeds delivered
/// bytes through per-connection [`FrameReader`]s, interns plan-hash
/// bodies, and flushes buffered responses as the fabric permits. One
/// [`turn`](Listener::turn) is one reactor iteration; the caller (the
/// live driver or a host event loop) decides when turns happen.
#[derive(Debug)]
pub struct Listener<F: Fabric> {
    fabric: F,
    conns: BTreeMap<usize, ConnState>,
    /// Connections whose responses outlived a flush (a short or blocked
    /// write): the only ones the writable pass visits.
    pending: Vec<usize>,
    plans: BTreeMap<u128, String>,
    stats: NetStats,
}

impl<F: Fabric> Listener<F> {
    /// Wraps a fabric.
    pub fn new(fabric: F) -> Listener<F> {
        Listener {
            fabric,
            conns: BTreeMap::new(),
            pending: Vec::new(),
            plans: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    /// The underlying fabric (the live driver owns the client ends).
    pub fn fabric_mut(&mut self) -> &mut F {
        &mut self.fabric
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// One reactor iteration: accept, flush, read, decode. Returns the
    /// requests decoded this turn, in fabric readiness order.
    pub fn turn(&mut self) -> Vec<Inbound> {
        for token in self.fabric.accept() {
            self.conns.insert(token, ConnState::default());
            self.stats.conns_opened += 1;
            self.stats.conns_peak = self.stats.conns_peak.max(self.conns.len() as u64);
        }

        // Writable pass: drain buffered responses in token order, retire
        // closing conns. A connection with nothing buffered is skipped: its
        // flush would write nothing (and a closing one was retired when its
        // buffer emptied).
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable();
        for token in pending {
            if let Some(state) = self.conns.get_mut(&token) {
                state.pending = false;
            }
            self.flush(token);
        }

        let mut inbound = Vec::new();
        for token in self.fabric.poll() {
            if !self.conns.contains_key(&token) {
                continue;
            }
            let mut eof = false;
            let mut buf = [0u8; 1024];
            loop {
                match self.fabric.read(token, &mut buf) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.stats.bytes_in += n as u64;
                        let Some(state) = self.conns.get_mut(&token) else {
                            break;
                        };
                        state.reader.push(&buf[..n]);
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            self.drain_frames(token, &mut inbound);
            if eof {
                if let Some(state) = self.conns.get(&token) {
                    if let Some(torn) = state.reader.torn() {
                        self.stats.record_error(torn.kind());
                    }
                }
                self.retire(token);
            }
        }
        inbound
    }

    fn drain_frames(&mut self, token: usize, inbound: &mut Vec<Inbound>) {
        loop {
            let Some(state) = self.conns.get_mut(&token) else {
                return;
            };
            if state.closing {
                return;
            }
            match state.reader.next_frame() {
                Ok(None) => return,
                Ok(Some(Frame::Request(request))) => {
                    self.stats.frames_in += 1;
                    match &request.body {
                        WireBody::Source(source) => {
                            let instruction = source.clone();
                            self.plans.insert(plan_hash(source), instruction.clone());
                            inbound.push(Inbound {
                                conn: token,
                                request,
                                instruction,
                            });
                        }
                        WireBody::PlanHash(hash) => match self.plans.get(hash) {
                            Some(instruction) => {
                                self.stats.plan_hash_hits += 1;
                                let instruction = instruction.clone();
                                inbound.push(Inbound {
                                    conn: token,
                                    request,
                                    instruction,
                                });
                            }
                            None => {
                                // Well-framed but unresolvable: tell the
                                // client to resend with full source; the
                                // connection stays up.
                                let err = WireError::UnknownPlanHash { hash: *hash };
                                self.stats.record_error(err.kind());
                                self.respond(
                                    token,
                                    &Frame::Error {
                                        code: err.kind().to_string(),
                                        detail: err.to_string(),
                                    },
                                );
                            }
                        },
                    }
                }
                Ok(Some(other)) => {
                    let err = WireError::UnexpectedFrame { kind: other.kind() };
                    self.fail_conn(token, err);
                    return;
                }
                Err(err) => {
                    self.fail_conn(token, err);
                    return;
                }
            }
        }
    }

    /// Records a fatal wire error, notifies the peer, and marks the
    /// connection for close-after-flush.
    fn fail_conn(&mut self, token: usize, err: WireError) {
        self.stats.record_error(err.kind());
        self.respond(
            token,
            &Frame::Error {
                code: err.kind().to_string(),
                detail: err.to_string(),
            },
        );
        if let Some(state) = self.conns.get_mut(&token) {
            state.closing = true;
        }
        self.flush(token);
    }

    /// Queues a response frame toward `token` and flushes what the
    /// fabric will take now; the rest drains on later turns.
    pub fn respond(&mut self, token: usize, frame: &Frame) {
        let Some(state) = self.conns.get_mut(&token) else {
            return;
        };
        state.out.extend_from_slice(&encode_frame(frame));
        self.stats.frames_out += 1;
        self.flush(token);
    }

    fn flush(&mut self, token: usize) {
        let Some(state) = self.conns.get_mut(&token) else {
            return;
        };
        while !state.out.is_empty() {
            match self.fabric.write(token, &state.out) {
                Ok(0) => break,
                Ok(n) => {
                    self.stats.bytes_out += n as u64;
                    state.out.drain(..n);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Peer is gone; the response dies with it.
                    state.out.clear();
                    state.closing = true;
                    break;
                }
            }
        }
        if state.out.is_empty() {
            if state.closing {
                self.retire(token);
            }
        } else if !state.pending {
            state.pending = true;
            self.pending.push(token);
        }
    }

    fn retire(&mut self, token: usize) {
        if self.conns.remove(&token).is_some() {
            self.fabric.close(token);
            self.stats.conns_closed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<F: Fabric> Listener<F> {
        /// Open (accepted, not yet closed) connections.
        fn open_conns(&self) -> usize {
            self.conns.len()
        }
    }

    fn sample_request() -> Frame {
        Frame::Request(WireRequest {
            client_seq: 7,
            sent_s: 1.25,
            tenant: "acme".into(),
            context: "reports".into(),
            priority: Priority::High,
            deadline_s: Some(60.0),
            body: WireBody::Source("count thefts".into()),
        })
    }

    fn decode_one(bytes: &[u8]) -> Result<Option<Frame>, WireError> {
        let mut reader = FrameReader::new();
        reader.push(bytes);
        reader.next_frame()
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            sample_request(),
            Frame::Request(WireRequest {
                client_seq: 0,
                sent_s: 0.0,
                tenant: "".into(),
                context: "c".into(),
                priority: Priority::Low,
                deadline_s: None,
                body: WireBody::PlanHash(0xDEAD_BEEF_0102_0304_0506_0708_090A_0B0C),
            }),
            Frame::Accepted {
                client_seq: 9,
                seq: 1000,
            },
            Frame::Rejected {
                client_seq: 3,
                retryable: true,
                reason: "queue_full".into(),
                detail: "queue full (8/8)".into(),
            },
            Frame::Completed {
                client_seq: 4,
                seq: 77,
                latency_s: 12.5,
                cost_usd: 0.0625,
                answered: true,
            },
            Frame::Error {
                code: "bad_magic".into(),
                detail: "bad magic 0x0000".into(),
            },
        ];
        for frame in &frames {
            let bytes = encode_frame(frame);
            let back = decode_one(&bytes).unwrap().unwrap();
            assert_eq!(&back, frame);
        }
    }

    #[test]
    fn reader_handles_byte_at_a_time_and_glued_frames() {
        let a = encode_frame(&sample_request());
        let b = encode_frame(&Frame::Accepted {
            client_seq: 1,
            seq: 2,
        });
        // Byte at a time.
        let mut reader = FrameReader::new();
        let mut seen = 0;
        for byte in a.iter().chain(b.iter()) {
            reader.push(&[*byte]);
            while let Some(_frame) = reader.next_frame().unwrap() {
                seen += 1;
            }
        }
        assert_eq!(seen, 2);
        // Glued in one push.
        let mut reader = FrameReader::new();
        let glued: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        reader.push(&glued);
        assert!(matches!(
            reader.next_frame().unwrap(),
            Some(Frame::Request(_))
        ));
        assert!(matches!(
            reader.next_frame().unwrap(),
            Some(Frame::Accepted { .. })
        ));
        assert!(reader.next_frame().unwrap().is_none());
        assert!(reader.torn().is_none());
    }

    #[test]
    fn error_taxonomy_is_typed() {
        // Bad magic.
        assert_eq!(
            decode_one(&[0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err(),
            WireError::BadMagic { got: 0 }
        );
        // Bad version.
        let mut bytes = encode_frame(&sample_request());
        bytes[2] = 9;
        assert_eq!(
            decode_one(&bytes).unwrap_err(),
            WireError::UnsupportedVersion { got: 9 }
        );
        // Unknown kind.
        let mut bytes = encode_frame(&sample_request());
        bytes[3] = 42;
        assert_eq!(
            decode_one(&bytes).unwrap_err(),
            WireError::UnknownKind { got: 42 }
        );
        // Oversize.
        let mut bytes = encode_frame(&sample_request());
        bytes[4..8].copy_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(
            decode_one(&bytes).unwrap_err(),
            WireError::Oversize { .. }
        ));
        // Truncated payload (shrink declared len below what request needs).
        let mut bytes = encode_frame(&sample_request());
        bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
        bytes.truncate(HEADER_BYTES + 4);
        assert!(matches!(
            decode_one(&bytes).unwrap_err(),
            WireError::Truncated { .. }
        ));
        // Trailing bytes (inflate declared len, pad payload).
        let frame = encode_frame(&Frame::Accepted {
            client_seq: 1,
            seq: 2,
        });
        let mut bytes = frame.clone();
        bytes[4..8].copy_from_slice(&20u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        assert_eq!(
            decode_one(&bytes).unwrap_err(),
            WireError::TrailingBytes {
                frame: "accepted",
                extra: 4
            }
        );
        // Bad priority code.
        let mut bytes = encode_frame(&sample_request());
        // priority sits after header + 8 (client_seq) + 8 (sent_s)
        // + 2+4 (tenant) + 2+7 (context).
        let at = HEADER_BYTES + 8 + 8 + 6 + 9;
        bytes[at] = 99;
        assert_eq!(
            decode_one(&bytes).unwrap_err(),
            WireError::BadValue {
                frame: "request",
                field: "priority"
            }
        );
        // Every kind label is distinct and stable.
        let labels = [
            WireError::BadMagic { got: 0 }.kind(),
            WireError::UnsupportedVersion { got: 0 }.kind(),
            WireError::UnknownKind { got: 0 }.kind(),
            WireError::Oversize { len: 0, max: 0 }.kind(),
            WireError::Truncated {
                frame: "f",
                field: "x",
            }
            .kind(),
            WireError::TrailingBytes {
                frame: "f",
                extra: 0,
            }
            .kind(),
            WireError::BadUtf8 {
                frame: "f",
                field: "x",
            }
            .kind(),
            WireError::BadValue {
                frame: "f",
                field: "x",
            }
            .kind(),
            WireError::TornFrame { have: 0, need: 0 }.kind(),
            WireError::UnknownPlanHash { hash: 0 }.kind(),
            WireError::UnexpectedFrame { kind: "error" }.kind(),
        ];
        let unique: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn torn_stream_is_reported() {
        let bytes = encode_frame(&sample_request());
        let mut reader = FrameReader::new();
        reader.push(&bytes[..bytes.len() - 3]);
        assert!(reader.next_frame().unwrap().is_none());
        let torn = reader.torn().unwrap();
        assert_eq!(torn.kind(), "torn_frame");
        assert!(matches!(torn, WireError::TornFrame { need, .. } if need == bytes.len()));
    }

    #[test]
    fn plan_hash_distinguishes_sources() {
        assert_eq!(plan_hash("count thefts"), plan_hash("count thefts"));
        assert_ne!(plan_hash("count thefts"), plan_hash("count theft"));
        assert_ne!(plan_hash(""), plan_hash(" "));
        // The two 64-bit halves are independent streams.
        let h = plan_hash("x");
        assert_ne!((h >> 64) as u64, h as u64);
    }

    #[test]
    fn listener_decodes_over_the_simulated_fabric() {
        let mut listener = Listener::new(NetSim::seeded(5));
        let token = listener.fabric_mut().connect(0.0);
        listener.fabric_mut().advance(0.0);
        let frame = encode_frame(&sample_request());
        listener.fabric_mut().client_send(token, &frame);
        let mut got = Vec::new();
        while let Some(t) = listener.fabric_mut().next_event_s() {
            listener.fabric_mut().advance(t);
            got.extend(listener.turn());
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].request.tenant, "acme");
        assert_eq!(got[0].instruction, "count thefts");
        assert_eq!(listener.stats().frames_in, 1);
        assert_eq!(listener.stats().conns_opened, 1);

        // Plan-hash round trip on the same listener.
        let now = listener.fabric_mut().now();
        let token2 = listener.fabric_mut().connect(now);
        let hashed = Frame::Request(WireRequest {
            client_seq: 8,
            sent_s: 2.0,
            tenant: "acme".into(),
            context: "reports".into(),
            priority: Priority::Normal,
            deadline_s: None,
            body: WireBody::PlanHash(plan_hash("count thefts")),
        });
        listener
            .fabric_mut()
            .client_send(token2, &encode_frame(&hashed));
        let mut got = Vec::new();
        while let Some(t) = listener.fabric_mut().next_event_s() {
            listener.fabric_mut().advance(t);
            got.extend(listener.turn());
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].instruction, "count thefts");
        assert_eq!(listener.stats().plan_hash_hits, 1);
    }

    #[test]
    fn listener_counts_mid_frame_disconnects() {
        // Tiny segments so the frame spans several delivery events and
        // the abort lands mid-frame.
        let mut listener = Listener::new(NetSim::new(aida_testkit::NetSimConfig {
            seed: 6,
            max_chunk: 8,
            ..aida_testkit::NetSimConfig::default()
        }));
        let token = listener.fabric_mut().connect(0.0);
        listener.fabric_mut().advance(0.0);
        let frame = encode_frame(&sample_request());
        listener.fabric_mut().client_send(token, &frame);
        // Deliver the first chunk only, then abort.
        let first = listener.fabric_mut().next_event_s().unwrap();
        listener.fabric_mut().advance(first);
        listener.turn();
        listener.fabric_mut().client_abort(token);
        listener.fabric_mut().advance(first + 1.0);
        listener.turn();
        assert_eq!(listener.stats().wire_errors.get("torn_frame"), Some(&1));
        assert_eq!(listener.stats().conns_closed, 1);
        assert_eq!(listener.open_conns(), 0);
    }

    #[test]
    fn listener_replies_typed_error_and_closes_on_garbage() {
        let mut listener = Listener::new(NetSim::seeded(7));
        let token = listener.fabric_mut().connect(0.0);
        listener.fabric_mut().advance(0.0);
        listener
            .fabric_mut()
            .client_send(token, b"GET / HTTP/1.1\r\n\r\n");
        while let Some(t) = listener.fabric_mut().next_event_s() {
            listener.fabric_mut().advance(t);
            listener.turn();
        }
        assert_eq!(listener.stats().wire_errors.get("bad_magic"), Some(&1));
        // The client received a decodable Error frame before the close.
        let bytes = listener.fabric_mut().client_recv(token);
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        match reader.next_frame().unwrap().unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, "bad_magic"),
            other => panic!("expected error frame, got {other:?}"),
        }
        assert_eq!(listener.open_conns(), 0);
    }

    /// `NetSim` with a congested send side: one `write` per turn, then
    /// `WouldBlock`, so a response outlives the `respond` that queued it.
    struct OneWritePerTurn {
        sim: NetSim,
        wrote: bool,
        /// Tokens the listener closed, in order.
        closed: Vec<usize>,
    }

    impl Fabric for OneWritePerTurn {
        fn accept(&mut self) -> Vec<usize> {
            // `accept` opens every turn: the congestion clears.
            self.wrote = false;
            self.sim.accept()
        }

        fn poll(&mut self) -> Vec<usize> {
            self.sim.poll()
        }

        fn read(&mut self, token: usize, buf: &mut [u8]) -> io::Result<usize> {
            self.sim.read(token, buf)
        }

        fn write(&mut self, token: usize, bytes: &[u8]) -> io::Result<usize> {
            if std::mem::replace(&mut self.wrote, true) {
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            self.sim.write(token, bytes)
        }

        fn close(&mut self, token: usize) {
            self.closed.push(token);
            self.sim.close(token)
        }
    }

    #[test]
    fn listener_flushes_responses_that_outlive_respond() {
        let sim = NetSim::new(aida_testkit::NetSimConfig {
            seed: 8,
            max_write: 3,
            ..aida_testkit::NetSimConfig::default()
        });
        let mut listener = Listener::new(OneWritePerTurn {
            sim,
            wrote: false,
            closed: Vec::new(),
        });
        let tokens: Vec<usize> = (0..200)
            .map(|_| listener.fabric_mut().sim.connect(0.0))
            .collect();
        listener.fabric_mut().sim.advance(0.0);
        assert!(listener.turn().is_empty());
        assert_eq!(listener.open_conns(), 200);

        // Turns with no further `respond` deliver the whole frame, three
        // bytes per turn, to that client and to no other.
        let frame = Frame::Accepted {
            client_seq: 5,
            seq: 9,
        };
        let wire = encode_frame(&frame);
        let target = tokens[117];
        listener.respond(target, &frame);
        let mut got = Vec::new();
        let mut now = 0.0;
        for _ in 0..wire.len() {
            now += 1.0;
            listener.fabric_mut().sim.advance(now);
            listener.turn();
            got.extend(listener.fabric_mut().sim.client_recv(target));
        }
        assert_eq!(got, wire);
        assert_eq!(
            listener.fabric_mut().sim.client_ready(),
            Vec::<usize>::new()
        );
        assert_eq!(listener.stats().bytes_out, wire.len() as u64);

        // A connection failed with bytes still pending closes only after
        // its flush, and then it is gone.
        let victim = tokens[42];
        listener.respond(victim, &frame);
        let err = WireError::BadMagic { got: 0 };
        let notice = encode_frame(&Frame::Error {
            code: err.kind().to_string(),
            detail: err.to_string(),
        });
        listener.fail_conn(victim, err);
        assert_eq!(listener.open_conns(), 200, "closes after its flush");
        let mut got = Vec::new();
        while listener.open_conns() == 200 {
            now += 1.0;
            listener.fabric_mut().sim.advance(now);
            listener.turn();
            got.extend(listener.fabric_mut().sim.client_recv(victim));
        }
        assert_eq!(listener.open_conns(), 199);
        assert_eq!(listener.stats().conns_closed, 1);
        assert_eq!(
            listener.fabric_mut().closed,
            [victim],
            "the fabric closed it"
        );
        now += 1.0;
        listener.fabric_mut().sim.advance(now);
        got.extend(listener.fabric_mut().sim.client_recv(victim));
        assert_eq!(got, [wire, notice].concat());
    }
}
