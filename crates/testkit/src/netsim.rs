//! # netsim — a deterministic in-process network fabric
//!
//! A discrete-event stand-in for a TCP stack, so the serving layer's
//! listener can be soaked with thousands of connections — partial
//! reads, partial writes, reordered readiness, and mid-frame
//! disconnects included — without opening a socket and without giving
//! up byte-identical replay.
//!
//! The model: every connection is a pair of one-way pipes. A send is
//! split into 1..=`max_chunk`-byte segments, each assigned a seeded
//! propagation delay; a segment becomes readable once virtual time
//! passes its delivery instant. Per-pipe delivery is FIFO (delays are
//! monotone within a pipe), but *across* connections readiness order is
//! a seeded shuffle — the interleaving a real `poll(2)` loop would see,
//! minus the nondeterminism.
//!
//! Everything is keyed off one [`KeyedRng`] advanced only by the
//! single-threaded simulation loop, so the whole fabric replays exactly
//! at the same seed.
//!
//! ## Cost follows what is due, not what is open
//!
//! The fabric is event-indexed. A min-heap holds the future instants
//! that can change anything: each unaccepted connect, the *front*
//! segment of each pipe, and each client FIN. [`NetSim::advance`] moves
//! the entries it passes onto three "may be due" lists (arrivals,
//! server-readable, client-readable), and [`NetSim::accept`],
//! [`NetSim::poll`] and [`NetSim::client_ready`] re-check only those
//! lists with the same predicates a full scan would use. A list entry
//! is re-armed whenever a connection can turn ready without time
//! passing: a send or a read exposes a front already due, a close sets
//! a FIN already due, an abort, an accept. Heap entries an abort or a
//! read made stale are dropped when they reach the top. So a step costs
//! O(due · log n) in the connections with something due, whatever the
//! number open, and returns exactly what the scan did: the same event
//! instants, the same token sets in ascending order before the seeded
//! shuffle, hence the same RNG draws.

use aida_llm::noise::KeyedRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io;

/// Tuning knobs for the simulated fabric. Shrinking `max_chunk` /
/// `max_write` injects aggressive partial reads and writes.
#[derive(Debug, Clone)]
pub struct NetSimConfig {
    /// Seed for chunking, delays, and readiness shuffles.
    pub seed: u64,
    /// Mean per-segment propagation delay (virtual seconds).
    pub mean_delay_s: f64,
    /// Largest contiguous segment a send is split into (>= 1). One
    /// `read` returns at most one segment, so this caps read sizes.
    pub max_chunk: usize,
    /// Most bytes one `write` call accepts (>= 1); the remainder is
    /// reported as a short write, as a congested socket would.
    pub max_write: usize,
}

impl Default for NetSimConfig {
    fn default() -> Self {
        NetSimConfig {
            seed: 0,
            mean_delay_s: 0.01,
            max_chunk: 512,
            max_write: 4096,
        }
    }
}

#[derive(Debug)]
struct Segment {
    deliver_s: f64,
    bytes: Vec<u8>,
    offset: usize,
}

#[derive(Debug, Default)]
struct Pipe {
    segments: VecDeque<Segment>,
    /// Last scheduled delivery instant — keeps the pipe FIFO.
    last_deliver_s: f64,
    /// Clean-close instant (readable as EOF once queued data drains).
    fin_s: Option<f64>,
}

impl Pipe {
    fn front_s(&self) -> Option<f64> {
        self.segments.front().map(|seg| seg.deliver_s)
    }

    fn readable_at(&self, now_s: f64) -> bool {
        self.front_s().is_some_and(|at| at <= now_s)
    }

    fn eof_at(&self, now_s: f64) -> bool {
        self.segments.is_empty() && self.fin_s.is_some_and(|fin| fin <= now_s)
    }
}

#[derive(Debug)]
struct Conn {
    connect_s: f64,
    accepted: bool,
    /// Abrupt client disconnect instant (undelivered bytes dropped).
    abort_s: Option<f64>,
    server_closed: bool,
    to_server: Pipe,
    to_client: Pipe,
    /// Listed on [`NetSim::server_due`].
    server_due: bool,
    /// Listed on [`NetSim::client_due`].
    client_due: bool,
}

impl Conn {
    /// What [`NetSim::poll`] reports: accepted, server-open, and with
    /// delivered bytes, a reachable EOF, or an abort.
    fn poll_ready(&self, now_s: f64) -> bool {
        self.accepted
            && !self.server_closed
            && (self.to_server.readable_at(now_s)
                || self.to_server.eof_at(now_s)
                || self.abort_s.is_some_and(|at| at <= now_s))
    }
}

/// The instants the timer heap tracks, one per kind of change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// An unaccepted connection becomes acceptable.
    Connect,
    /// The client->server pipe's front segment delivers.
    ToServer,
    /// The client's FIN reaches the server.
    Fin,
    /// The server->client pipe's front segment delivers.
    ToClient,
}

/// The simulated fabric: both ends of every connection, one virtual
/// clock, one seeded RNG. The server side (accept/poll/read/write) is
/// consumed by the listener; the client side (`connect`/`client_send`/
/// `client_recv`/...) by the closed-loop driver.
#[derive(Debug)]
pub struct NetSim {
    cfg: NetSimConfig,
    rng: KeyedRng,
    /// Every connection ever opened, at its token: tokens are dense and
    /// never reused.
    conns: Vec<Conn>,
    now_s: f64,
    /// Future instants as `(instant bits, token, event)`, earliest on
    /// top (instants here are positive, so the bits order like the
    /// floats). Every entry lies strictly after `now_s`.
    timers: BinaryHeap<Reverse<(u64, usize, Event)>>,
    /// Connections whose connect instant has passed.
    arrivals: Vec<usize>,
    /// A superset of the connections [`NetSim::poll`] would report.
    server_due: Vec<usize>,
    /// A superset of the connections with delivered server->client bytes.
    client_due: Vec<usize>,
}

impl NetSim {
    /// Creates a fabric with the given knobs.
    pub fn new(cfg: NetSimConfig) -> NetSim {
        let rng = KeyedRng::new(cfg.seed ^ 0x6E65_7473_696D_0001);
        NetSim {
            cfg,
            rng,
            conns: Vec::new(),
            now_s: 0.0,
            timers: BinaryHeap::new(),
            arrivals: Vec::new(),
            server_due: Vec::new(),
            client_due: Vec::new(),
        }
    }

    /// Creates a fabric with default knobs and the given seed.
    pub fn seeded(seed: u64) -> NetSim {
        NetSim::new(NetSimConfig {
            seed,
            ..NetSimConfig::default()
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Advances virtual time (never backwards).
    pub fn advance(&mut self, now_s: f64) {
        if now_s > self.now_s {
            self.now_s = now_s;
        }
        while let Some(&Reverse((bits, token, event))) = self.timers.peek() {
            if f64::from_bits(bits) > self.now_s {
                break;
            }
            self.timers.pop();
            self.wake(token, event);
        }
    }

    /// The next instant at which anything changes: a pending connect, a
    /// pipe's front segment delivering, or a queued FIN. `None` when
    /// fully quiescent.
    pub fn next_event_s(&mut self) -> Option<f64> {
        while let Some(&Reverse((bits, token, event))) = self.timers.peek() {
            let at = f64::from_bits(bits);
            if self.instant(token, event) == Some(at) {
                return at.is_finite().then_some(at);
            }
            self.timers.pop();
        }
        None
    }

    /// The instant `event` of `token` stands for now, if any.
    fn instant(&self, token: usize, event: Event) -> Option<f64> {
        let conn = self.conns.get(token)?;
        match event {
            Event::Connect => (!conn.accepted).then_some(conn.connect_s),
            Event::ToServer => conn.to_server.front_s(),
            Event::Fin => conn.to_server.fin_s,
            Event::ToClient => conn.to_client.front_s(),
        }
    }

    /// Files `event` of `token` under its current instant: on the timer
    /// heap if that lies ahead, on its due list at once otherwise.
    fn arm(&mut self, token: usize, event: Event) {
        match self.instant(token, event) {
            Some(at) if at > self.now_s => self.timers.push(Reverse((at.to_bits(), token, event))),
            Some(_) => self.wake(token, event),
            None => {}
        }
    }

    /// Lists `token` on the due list `event` feeds.
    fn wake(&mut self, token: usize, event: Event) {
        match event {
            Event::Connect => self.arrivals.push(token),
            Event::ToServer | Event::Fin => self.wake_server(token),
            Event::ToClient => {
                if let Some(conn) = self.conns.get_mut(token) {
                    if !conn.client_due {
                        conn.client_due = true;
                        self.client_due.push(token);
                    }
                }
            }
        }
    }

    fn wake_server(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token) {
            if !conn.server_due {
                conn.server_due = true;
                self.server_due.push(token);
            }
        }
    }

    fn transmit(rng: &mut KeyedRng, cfg: &NetSimConfig, pipe: &mut Pipe, now_s: f64, bytes: &[u8]) {
        let mut at = pipe.last_deliver_s.max(now_s);
        let mut off = 0;
        while off < bytes.len() {
            let n = (bytes.len() - off).min(1 + rng.below(cfg.max_chunk.max(1)));
            at += cfg.mean_delay_s * (0.5 + rng.next_f64());
            pipe.segments.push_back(Segment {
                deliver_s: at,
                bytes: bytes[off..off + n].to_vec(),
                offset: 0,
            });
            pipe.last_deliver_s = at;
            off += n;
        }
    }

    fn shuffled(&mut self, mut tokens: Vec<usize>) -> Vec<usize> {
        for i in (1..tokens.len()).rev() {
            tokens.swap(i, self.rng.below(i + 1));
        }
        tokens
    }

    // ----- client side -------------------------------------------------

    /// Opens a connection that the server can accept from `at_s` on.
    /// Returns the connection token shared by both ends.
    pub fn connect(&mut self, at_s: f64) -> usize {
        let token = self.conns.len();
        self.conns.push(Conn {
            connect_s: at_s.max(self.now_s),
            accepted: false,
            abort_s: None,
            server_closed: false,
            to_server: Pipe::default(),
            to_client: Pipe::default(),
            server_due: false,
            client_due: false,
        });
        self.arm(token, Event::Connect);
        token
    }

    /// Queues bytes toward the server (chunked, delayed). Sends on an
    /// aborted or closed connection are dropped on the floor, exactly
    /// like packets after a RST.
    pub fn client_send(&mut self, token: usize, bytes: &[u8]) {
        let now = self.now_s;
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.abort_s.is_some() || conn.to_server.fin_s.is_some() {
            return;
        }
        let fresh_front = conn.to_server.segments.is_empty();
        Self::transmit(&mut self.rng, &self.cfg, &mut conn.to_server, now, bytes);
        if fresh_front {
            self.arm(token, Event::ToServer);
        }
    }

    /// Drains every server->client byte delivered by now.
    pub fn client_recv(&mut self, token: usize) -> Vec<u8> {
        let now = self.now_s;
        let mut out = Vec::new();
        let Some(conn) = self.conns.get_mut(token) else {
            return out;
        };
        let mut popped = false;
        while conn.to_client.readable_at(now) {
            let Some(seg) = conn.to_client.segments.pop_front() else {
                break;
            };
            out.extend_from_slice(&seg.bytes[seg.offset..]);
            popped = true;
        }
        if popped {
            self.arm(token, Event::ToClient);
        }
        out
    }

    /// Every connection whose client end has delivered bytes waiting, in
    /// ascending token order.
    pub fn client_ready(&mut self) -> Vec<usize> {
        let now = self.now_s;
        let conns = &mut self.conns;
        self.client_due.retain(|&token| {
            conns.get_mut(token).is_some_and(|conn| {
                conn.client_due = conn.to_client.readable_at(now);
                conn.client_due
            })
        });
        let mut ready = self.client_due.clone();
        ready.sort_unstable();
        ready
    }

    /// Cleanly closes the client end: queued bytes still deliver, then
    /// the server reads EOF.
    pub fn client_close(&mut self, token: usize) {
        let now = self.now_s;
        if let Some(conn) = self.conns.get_mut(token) {
            if conn.to_server.fin_s.is_none() {
                conn.to_server.fin_s = Some(conn.to_server.last_deliver_s.max(now));
                self.arm(token, Event::Fin);
            }
        }
    }

    /// Abruptly disconnects the client: bytes not yet delivered are
    /// dropped (this is how a mid-frame disconnect is injected), reads
    /// on the server side fail with `ConnectionReset` once drained, and
    /// server writes fail with `BrokenPipe` immediately.
    pub fn client_abort(&mut self, token: usize) {
        let now = self.now_s;
        if let Some(conn) = self.conns.get_mut(token) {
            if conn.abort_s.is_none() {
                conn.abort_s = Some(now);
                conn.to_server.segments.retain(|seg| seg.deliver_s <= now);
                conn.to_client.segments.clear();
                conn.to_server.fin_s = None;
                self.wake_server(token);
            }
        }
    }

    // ----- server side -------------------------------------------------

    /// Connections that have arrived and not yet been accepted, in a
    /// seeded order.
    pub fn accept(&mut self) -> Vec<usize> {
        let now = self.now_s;
        let mut fresh = Vec::new();
        for token in std::mem::take(&mut self.arrivals) {
            if let Some(conn) = self.conns.get_mut(token) {
                if !conn.accepted && conn.connect_s <= now {
                    conn.accepted = true;
                    fresh.push(token);
                }
            }
        }
        fresh.sort_unstable();
        // Bytes, a FIN or an abort may have arrived before the accept.
        for &token in &fresh {
            self.wake_server(token);
        }
        self.shuffled(fresh)
    }

    /// Accepted, server-open connections with something to report:
    /// delivered bytes, a reachable EOF, or an abort. Seeded order.
    pub fn poll(&mut self) -> Vec<usize> {
        let now = self.now_s;
        let conns = &mut self.conns;
        self.server_due.retain(|&token| {
            conns.get_mut(token).is_some_and(|conn| {
                conn.server_due = conn.poll_ready(now);
                conn.server_due
            })
        });
        let mut ready = self.server_due.clone();
        ready.sort_unstable();
        self.shuffled(ready)
    }

    /// Nonblocking read on the server end. Returns at most one
    /// delivered segment per call (partial reads are the norm);
    /// `Ok(0)` is a clean EOF, `WouldBlock` means undelivered data (or
    /// none yet), `ConnectionReset` reports a client abort.
    pub fn read(&mut self, token: usize, buf: &mut [u8]) -> io::Result<usize> {
        let now = self.now_s;
        let conn = self
            .conns
            .get_mut(token)
            .filter(|conn| conn.accepted && !conn.server_closed)
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotConnected))?;
        if let Some(seg) = conn
            .to_server
            .segments
            .front_mut()
            .filter(|seg| seg.deliver_s <= now)
        {
            let n = buf.len().min(seg.bytes.len() - seg.offset);
            buf[..n].copy_from_slice(&seg.bytes[seg.offset..seg.offset + n]);
            seg.offset += n;
            if seg.offset == seg.bytes.len() {
                conn.to_server.segments.pop_front();
                self.arm(token, Event::ToServer);
            }
            return Ok(n);
        }
        if conn.abort_s.is_some_and(|at| at <= now) {
            return Err(io::Error::from(io::ErrorKind::ConnectionReset));
        }
        if conn.to_server.eof_at(now) {
            return Ok(0);
        }
        Err(io::Error::from(io::ErrorKind::WouldBlock))
    }

    /// Nonblocking write on the server end: accepts at most
    /// `max_write` bytes (short writes exercise the caller's
    /// out-buffer), queues them toward the client with seeded delays.
    pub fn write(&mut self, token: usize, bytes: &[u8]) -> io::Result<usize> {
        let now = self.now_s;
        let conn = self
            .conns
            .get_mut(token)
            .filter(|conn| conn.accepted && !conn.server_closed)
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotConnected))?;
        if conn.abort_s.is_some_and(|at| at <= now) {
            return Err(io::Error::from(io::ErrorKind::BrokenPipe));
        }
        if bytes.is_empty() {
            return Ok(0);
        }
        let n = bytes.len().min(self.cfg.max_write.max(1));
        let fresh_front = conn.to_client.segments.is_empty();
        Self::transmit(
            &mut self.rng,
            &self.cfg,
            &mut conn.to_client,
            now,
            &bytes[..n],
        );
        if fresh_front {
            self.arm(token, Event::ToClient);
        }
        Ok(n)
    }

    /// Closes the server end; further server reads/writes fail.
    pub fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(token) {
            conn.server_closed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NetSim {
        /// Whether the client end has delivered bytes waiting.
        fn client_readable(&self, token: usize) -> bool {
            self.conns
                .get(token)
                .is_some_and(|conn| conn.to_client.readable_at(self.now_s))
        }

        /// Whether the server has closed its end of `token`.
        fn server_closed(&self, token: usize) -> bool {
            self.conns.get(token).is_none_or(|conn| conn.server_closed)
        }
    }

    fn drain(sim: &mut NetSim, token: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match sim.read(token, &mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
        out
    }

    #[test]
    fn bytes_round_trip_in_order() {
        let mut sim = NetSim::seeded(7);
        let token = sim.connect(0.0);
        sim.advance(0.0);
        assert_eq!(sim.accept(), vec![token]);
        sim.client_send(token, b"hello fabric, this is a long-ish message");
        // Nothing is readable before its delivery instant.
        assert!(sim.poll().is_empty());
        let mut got = Vec::new();
        while let Some(t) = sim.next_event_s() {
            sim.advance(t);
            for ready in sim.poll() {
                got.extend(drain(&mut sim, ready));
            }
        }
        assert_eq!(got, b"hello fabric, this is a long-ish message");
    }

    #[test]
    fn same_seed_replays_identical_event_sequence() {
        let run = |seed: u64| {
            let mut sim = NetSim::seeded(seed);
            let a = sim.connect(0.0);
            let b = sim.connect(0.0);
            sim.advance(0.0);
            let order = sim.accept();
            sim.client_send(a, b"aaaaaaaaaaaaaaaaaaaaaaaa");
            sim.client_send(b, b"bbbbbbbbbbbbbbbbbbbbbbbb");
            let mut log: Vec<(usize, Vec<u8>)> = vec![];
            while let Some(t) = sim.next_event_s() {
                sim.advance(t);
                for ready in sim.poll() {
                    let bytes = drain(&mut sim, ready);
                    if !bytes.is_empty() {
                        log.push((ready, bytes));
                    }
                }
            }
            (order, log)
        };
        assert_eq!(run(3), run(3));
        // A different seed perturbs chunking/interleaving but not content.
        let (_, log3) = run(3);
        let (_, log4) = run(4);
        let cat = |log: &[(usize, Vec<u8>)], t: usize| -> Vec<u8> {
            log.iter()
                .filter(|(tok, _)| *tok == t)
                .flat_map(|(_, b)| b.clone())
                .collect()
        };
        assert_eq!(cat(&log3, 0), cat(&log4, 0));
        assert_eq!(cat(&log3, 1), cat(&log4, 1));
    }

    #[test]
    fn chunking_injects_partial_reads() {
        let mut sim = NetSim::new(NetSimConfig {
            seed: 1,
            max_chunk: 3,
            ..NetSimConfig::default()
        });
        let token = sim.connect(0.0);
        sim.advance(0.0);
        sim.accept();
        sim.client_send(token, b"0123456789");
        sim.advance(1e9);
        let mut buf = [0u8; 64];
        let first = sim.read(token, &mut buf).unwrap();
        assert!(first <= 3, "segment cap respected, got {first}");
        assert_eq!(drain(&mut sim, token).len(), 10 - first);
    }

    #[test]
    fn short_writes_respect_max_write() {
        let mut sim = NetSim::new(NetSimConfig {
            seed: 1,
            max_write: 4,
            ..NetSimConfig::default()
        });
        let token = sim.connect(0.0);
        sim.advance(0.0);
        sim.accept();
        assert_eq!(sim.write(token, b"0123456789").unwrap(), 4);
        assert_eq!(sim.write(token, b"456789").unwrap(), 4);
        assert_eq!(sim.write(token, b"89").unwrap(), 2);
        sim.advance(1e9);
        assert_eq!(sim.client_recv(token), b"0123456789");
    }

    #[test]
    fn clean_close_yields_eof_after_data() {
        let mut sim = NetSim::seeded(9);
        let token = sim.connect(0.0);
        sim.advance(0.0);
        sim.accept();
        sim.client_send(token, b"tail");
        sim.client_close(token);
        sim.advance(1e9);
        assert_eq!(drain(&mut sim, token), b"tail");
        let mut buf = [0u8; 8];
        assert_eq!(sim.read(token, &mut buf).unwrap(), 0);
    }

    #[test]
    fn abort_drops_undelivered_bytes_and_resets() {
        let mut sim = NetSim::seeded(11);
        let token = sim.connect(0.0);
        sim.advance(0.0);
        sim.accept();
        sim.client_send(token, b"this frame will be torn off mid-flight");
        // Let a prefix deliver, then yank the cable.
        let first = sim.next_event_s().unwrap();
        sim.advance(first);
        let prefix = drain(&mut sim, token);
        sim.client_abort(token);
        sim.advance(1e9);
        assert!(prefix.len() < 39);
        let mut buf = [0u8; 64];
        let err = sim.read(token, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let err = sim.write(token, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn server_close_disconnects_the_token() {
        let mut sim = NetSim::seeded(2);
        let token = sim.connect(0.0);
        sim.advance(0.0);
        sim.accept();
        sim.close(token);
        assert!(sim.server_closed(token));
        let mut buf = [0u8; 8];
        assert_eq!(
            sim.read(token, &mut buf).unwrap_err().kind(),
            io::ErrorKind::NotConnected
        );
        assert!(sim.poll().is_empty());
    }

    #[test]
    fn connects_are_not_visible_before_their_instant() {
        let mut sim = NetSim::seeded(5);
        let _early = sim.connect(1.0);
        let _late = sim.connect(5.0);
        sim.advance(0.5);
        assert!(sim.accept().is_empty());
        assert_eq!(sim.next_event_s(), Some(1.0));
        sim.advance(1.0);
        assert_eq!(sim.accept().len(), 1);
        sim.advance(5.0);
        assert_eq!(sim.accept().len(), 1);
    }

    /// The fabric's queries as they were before the event index: each
    /// one scans every connection ever opened. Kept as the reference the
    /// indexed `next_event_s`, `accept`, `poll` and `client_ready` must
    /// agree with, value for value and RNG draw for RNG draw.
    mod scan {
        use super::super::NetSim;

        pub fn next_event_s(sim: &NetSim) -> Option<f64> {
            let mut next = f64::INFINITY;
            let mut fold = |t: f64| {
                if t > sim.now_s && t < next {
                    next = t;
                }
            };
            for conn in sim.conns.iter() {
                if !conn.accepted {
                    fold(conn.connect_s);
                }
                for pipe in [&conn.to_server, &conn.to_client] {
                    if let Some(seg) = pipe.segments.front() {
                        fold(seg.deliver_s);
                    }
                    if let Some(fin) = pipe.fin_s {
                        fold(fin);
                    }
                }
            }
            next.is_finite().then_some(next)
        }

        pub fn accept(sim: &mut NetSim) -> Vec<usize> {
            let now = sim.now_s;
            let fresh: Vec<usize> = sim
                .conns
                .iter_mut()
                .enumerate()
                .filter(|(_, conn)| !conn.accepted && conn.connect_s <= now)
                .map(|(token, conn)| {
                    conn.accepted = true;
                    token
                })
                .collect();
            sim.shuffled(fresh)
        }

        pub fn poll(sim: &mut NetSim) -> Vec<usize> {
            let now = sim.now_s;
            let ready: Vec<usize> = sim
                .conns
                .iter()
                .enumerate()
                .filter(|(_, conn)| {
                    conn.accepted
                        && !conn.server_closed
                        && (conn.to_server.readable_at(now)
                            || conn.to_server.eof_at(now)
                            || conn.abort_s.is_some_and(|at| at <= now))
                })
                .map(|(token, _)| token)
                .collect();
            sim.shuffled(ready)
        }

        pub fn client_ready(sim: &NetSim) -> Vec<usize> {
            (0..sim.conns.len())
                .filter(|&token| sim.client_readable(token))
                .collect()
        }
    }

    /// One call's observable result.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Token(usize),
        Tokens(Vec<usize>),
        /// Per ready token: the bytes read and the read that stopped.
        Drained(Vec<(usize, Vec<u8>, Result<usize, io::ErrorKind>)>),
        Instant(Option<f64>),
        Bytes(Vec<u8>),
        Io(Result<usize, io::ErrorKind>),
        Flag(bool),
        Done,
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Connect `delay` after now (zero: at once).
        Connect(f64),
        Send(usize, Vec<u8>),
        Advance(f64),
        /// Jump to `next_event_s`, landing exactly on an instant.
        AdvanceToNext,
        NextEvent,
        Accept,
        Poll,
        /// Poll, then read every ready token dry, as the listener does.
        PollAndDrain(usize),
        Read(usize, usize),
        Write(usize, Vec<u8>),
        Recv(usize),
        Ready,
        Readable(usize),
        ClientClose(usize),
        ClientAbort(usize),
        Close(usize),
    }

    fn random_op(rng: &mut KeyedRng, conns: usize) -> Op {
        // One past the last token exercises the unknown-token paths.
        let token = rng.below(conns + 1);
        let bytes = |rng: &mut KeyedRng| -> Vec<u8> { (0..rng.below(25) as u8).collect() };
        match rng.below(24) {
            0 | 1 => Op::Connect(if rng.chance(0.5) {
                0.0
            } else {
                rng.range_f64(0.0, 0.05)
            }),
            2..=4 => Op::Send(token, bytes(rng)),
            5 => Op::Advance(rng.range_f64(0.0, 0.02)),
            6..=8 => Op::AdvanceToNext,
            9 => Op::NextEvent,
            10 => Op::Accept,
            11 => Op::Poll,
            12 | 13 => Op::PollAndDrain(1 + rng.below(16)),
            14 => Op::Read(token, 1 + rng.below(16)),
            15 | 16 => Op::Write(token, bytes(rng)),
            17 => Op::Recv(token),
            18 | 19 => Op::Ready,
            20 => Op::Readable(token),
            21 => Op::ClientClose(token),
            22 => Op::ClientAbort(token),
            _ => Op::Close(token),
        }
    }

    fn io_seen(result: io::Result<usize>) -> Seen {
        Seen::Io(result.map_err(|err| err.kind()))
    }

    /// Applies `op` through the indexed queries, or through the scans
    /// when `reference` is set; every other call is shared code.
    fn apply(sim: &mut NetSim, op: &Op, reference: bool) -> Seen {
        let next = |sim: &mut NetSim| {
            if reference {
                scan::next_event_s(sim)
            } else {
                sim.next_event_s()
            }
        };
        let poll = |sim: &mut NetSim| {
            if reference {
                scan::poll(sim)
            } else {
                sim.poll()
            }
        };
        match op {
            Op::Connect(delay) => Seen::Token(sim.connect(sim.now() + delay)),
            Op::Send(token, bytes) => {
                sim.client_send(*token, bytes);
                Seen::Done
            }
            Op::Advance(dt) => {
                sim.advance(sim.now() + dt);
                Seen::Done
            }
            Op::AdvanceToNext => {
                let at = next(sim);
                if let Some(at) = at {
                    sim.advance(at);
                }
                Seen::Instant(at)
            }
            Op::NextEvent => Seen::Instant(next(sim)),
            Op::Accept => Seen::Tokens(if reference {
                scan::accept(sim)
            } else {
                sim.accept()
            }),
            Op::Poll => Seen::Tokens(poll(sim)),
            Op::PollAndDrain(cap) => {
                let mut drained = Vec::new();
                for token in poll(sim) {
                    let mut bytes = Vec::new();
                    let mut buf = vec![0u8; *cap];
                    let last = loop {
                        match sim.read(token, &mut buf) {
                            Ok(n) if n > 0 => bytes.extend_from_slice(&buf[..n]),
                            other => break other.map_err(|err| err.kind()),
                        }
                    };
                    drained.push((token, bytes, last));
                }
                Seen::Drained(drained)
            }
            Op::Read(token, cap) => io_seen(sim.read(*token, &mut vec![0u8; *cap])),
            Op::Write(token, bytes) => io_seen(sim.write(*token, bytes)),
            Op::Recv(token) => Seen::Bytes(sim.client_recv(*token)),
            Op::Ready => Seen::Tokens(if reference {
                scan::client_ready(sim)
            } else {
                sim.client_ready()
            }),
            Op::Readable(token) => Seen::Flag(sim.client_readable(*token)),
            Op::ClientClose(token) => {
                sim.client_close(*token);
                Seen::Done
            }
            Op::ClientAbort(token) => {
                sim.client_abort(*token);
                Seen::Done
            }
            Op::Close(token) => {
                sim.close(*token);
                Seen::Flag(sim.server_closed(*token))
            }
        }
    }

    fn differential_case(cfg: NetSimConfig, case: u64, steps: usize) {
        let mut indexed = NetSim::new(cfg.clone());
        let mut reference = NetSim::new(cfg.clone());
        let mut rng = KeyedRng::new(aida_llm::noise::combine(&[0x6E65_7464, case]));
        for step in 0..steps {
            let op = random_op(&mut rng, indexed.conns.len());
            let got = apply(&mut indexed, &op, false);
            let want = apply(&mut reference, &op, true);
            assert_eq!(got, want, "case {case} ({cfg:?}) step {step}: {op:?}");
            assert_eq!(indexed.now().to_bits(), reference.now().to_bits());
            if let Op::Ready = op {
                assert_eq!(got, Seen::Tokens(scan::client_ready(&indexed)));
            }
        }
    }

    #[test]
    fn indexed_queries_match_the_full_scans() {
        for case in 0..240u64 {
            let mut knobs = KeyedRng::new(case);
            let cfg = match case % 4 {
                0 => NetSimConfig::default(),
                1 => NetSimConfig {
                    max_chunk: 1 + knobs.below(8),
                    ..NetSimConfig::default()
                },
                2 => NetSimConfig {
                    max_write: 1 + knobs.below(4),
                    ..NetSimConfig::default()
                },
                _ => NetSimConfig {
                    mean_delay_s: 0.0,
                    max_chunk: 1 + knobs.below(8),
                    max_write: 1 + knobs.below(4),
                    ..NetSimConfig::default()
                },
            };
            differential_case(NetSimConfig { seed: case, ..cfg }, case, 400);
        }
    }

    #[test]
    fn client_ready_lists_clients_with_delivered_bytes_in_token_order() {
        let mut sim = NetSim::seeded(21);
        let tokens: Vec<usize> = (0..5).map(|_| sim.connect(0.0)).collect();
        sim.advance(0.0);
        assert_eq!(sim.accept().len(), 5);
        for &token in tokens.iter().rev().step_by(2) {
            sim.write(token, b"reply").unwrap();
        }
        assert!(sim.client_ready().is_empty(), "nothing delivered yet");
        sim.advance(1e9);
        assert_eq!(sim.client_ready(), vec![0, 2, 4]);
        // Level-triggered: still ready until drained.
        assert_eq!(sim.client_ready(), vec![0, 2, 4]);
        assert_eq!(sim.client_recv(2), b"reply");
        assert_eq!(sim.client_ready(), vec![0, 4]);
        // An abort drops the undelivered and the delivered alike.
        sim.client_abort(4);
        assert_eq!(sim.client_ready(), vec![0]);
    }

    #[test]
    fn zero_delay_sends_are_due_at_once() {
        let mut sim = NetSim::new(NetSimConfig {
            seed: 4,
            mean_delay_s: 0.0,
            ..NetSimConfig::default()
        });
        let token = sim.connect(0.0);
        // Bytes land before the accept; the accept must still surface them.
        sim.client_send(token, b"early");
        assert_eq!(sim.next_event_s(), None);
        assert!(sim.poll().is_empty(), "not accepted yet");
        assert_eq!(sim.accept(), vec![token]);
        assert_eq!(sim.poll(), vec![token]);
        assert_eq!(drain(&mut sim, token), b"early");
        sim.write(token, b"late").unwrap();
        assert_eq!(sim.client_ready(), vec![token]);
        sim.client_close(token);
        assert_eq!(sim.poll(), vec![token]);
        let mut buf = [0u8; 4];
        assert_eq!(sim.read(token, &mut buf).unwrap(), 0);
    }
}
