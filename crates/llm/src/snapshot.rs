//! Shared durable-state plumbing: checksummed snapshot framing, atomic
//! file commits, an append-only WAL record codec, one field reader for
//! every text record, and deterministic crash injection.
//!
//! Four whole-file formats in the workspace — the semantic call cache
//! ([`crate::cache`]), the ContextManager snapshot in `aida-core`, the
//! tenant-ledger snapshot in `aida-serve`, and the compiled Pyrite
//! artifact in `aida-script` (the source of a plan's content hash) —
//! write the same frame:
//!
//! ```text
//! <magic line>
//! entries <n>
//! checksum <fnv64(body) as hex16>
//! <body: n lines>
//! ```
//!
//! A reader verifies the magic, the declared line count, and the
//! checksum before trusting a single byte; any violation is a typed
//! [`SnapshotError`] and the caller starts cold. The tenant-ledger WAL
//! in `aida-serve` and a runtime's delta chain (one per runtime, shared
//! by the Context store and the semantic cache) use the per-record
//! variant instead ([`wal_append`] / [`DeltaChain::append`] /
//! [`wal_replay`]): every record carries its own monotone sequence
//! number and checksum, so a torn tail truncates to the last intact
//! record instead of rejecting the whole file.
//!
//! Every decoder reads the fields of a body line or record payload
//! through a [`Fields`] cursor — one typed read per field (escaped text,
//! a number at its type's width, hex float bits, a `0`/`1` flag, a
//! tagged [`Value`]) and a check that nothing is left over — so a field
//! kind is parsed, and rejected, the same way in every format. Writers
//! use [`esc`] and [`encode_value`] directly.
//!
//! Crash injection: every durable write site threads an optional
//! [`FailPlan`] through [`commit_atomic`] and [`wal_append`]. A plan
//! names one [`CrashPoint`] and fires once — erroring before the write,
//! tearing it mid-record, or erroring after the commit. The durability
//! suite (`tests/durability.rs`) uses this to prove the invariant
//! `recover(crash(S)) ∈ {S_pre, S_committed}` at every point.

use aida_data::Value;
use std::borrow::Cow;
use std::fmt;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Why a snapshot (or WAL ledger snapshot) failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file is not a well-formed snapshot (bad magic, count,
    /// checksum, or entry encoding).
    Format(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Format(msg) => write!(f, "snapshot format error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64 over raw bytes (the snapshot and WAL-record checksum).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---- string / value codec ----------------------------------------------
//
// Strings escape `\`, tab, newline, and CR so one encoded field never
// spans a tab-separated column or a line; value payloads additionally
// escape the structural `,` `[` `]` so the recursive decoder can split
// on them. Floats round-trip via `f64::to_bits`.

/// The escape for a byte [`esc`] may not emit raw, if it is one.
fn text_escape(byte: u8) -> Option<&'static str> {
    match byte {
        b'\\' => Some("\\\\"),
        b'\t' => Some("\\t"),
        b'\n' => Some("\\n"),
        b'\r' => Some("\\r"),
        _ => None,
    }
}

/// Copies `s` to `out` a run at a time: everything up to the next byte
/// `escape` names is one `push_str`. Every escaped byte is ASCII, so
/// the cuts always fall on character boundaries.
fn esc_with(s: &str, out: &mut String, escape: impl Fn(u8) -> Option<&'static str>) {
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if let Some(escaped) = escape(byte) {
            out.push_str(&s[run..i]);
            out.push_str(escaped);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// Escapes a string for a tab-separated snapshot field.
pub fn esc(s: &str, out: &mut String) {
    esc_with(s, out, text_escape);
}

fn esc_value_str(s: &str, out: &mut String) {
    esc_with(s, out, |byte| match byte {
        b',' => Some("\\c"),
        b'[' => Some("\\o"),
        b']' => Some("\\e"),
        _ => text_escape(byte),
    });
}

/// Unescapes the front of `*rest` a run at a time and advances `*rest`
/// past what it read: the whole field for text, up to the first
/// unescaped `,` or `]` inside a value payload. Borrowed when the run
/// holds no backslash.
fn unesc_run<'a>(rest: &mut &'a str, in_value: bool) -> Result<Cow<'a, str>, SnapshotError> {
    let mut out = String::new();
    loop {
        let stop = rest
            .bytes()
            .position(|b| b == b'\\' || (in_value && (b == b',' || b == b']')))
            .unwrap_or(rest.len());
        let (run, tail) = rest.split_at(stop);
        let Some(escape) = tail.strip_prefix('\\') else {
            *rest = tail;
            // Every escape pushes a character: empty means none was seen.
            return Ok(if out.is_empty() {
                Cow::Borrowed(run)
            } else {
                out.push_str(run);
                Cow::Owned(out)
            });
        };
        out.reserve(rest.len());
        out.push_str(run);
        let mut chars = escape.chars();
        out.push(match (chars.next(), in_value) {
            (Some('\\'), _) => '\\',
            (Some('t'), _) => '\t',
            (Some('n'), _) => '\n',
            (Some('r'), _) => '\r',
            (Some('c'), true) => ',',
            (Some('o'), true) => '[',
            (Some('e'), true) => ']',
            (None, true) => return ValueParser::fail("dangling escape"),
            (_, true) => return ValueParser::fail("unknown escape"),
            (_, false) => return ValueParser::fail("bad text escape"),
        });
        *rest = chars.as_str();
    }
}

/// Reverses [`esc`]; borrows `raw` when it holds no escape. Any
/// malformed escape is a format error.
fn unesc(mut raw: &str) -> Result<Cow<'_, str>, SnapshotError> {
    unesc_run(&mut raw, false)
}

/// Appends `v` in decimal, the digits `format!("{v}")` writes, straight
/// into `out`: the durable codecs write several numbers per record.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
}

/// [`push_u64`] for a signed number, `i64::MIN` included.
fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends `v` as 16 lowercase hex digits, as `format!("{v:016x}")`.
pub fn push_hex16(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = HEX[(v >> (60 - 4 * i)) as usize & 15];
    }
    out.push_str(std::str::from_utf8(&digits).unwrap_or_default());
}

/// Appends the tagged encoding of a [`Value`] (`n`, `b0`/`b1`, `i…`,
/// `f<bits>`, `s…`, `l[…]`).
pub fn encode_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push('n'),
        Value::Bool(b) => out.push_str(if *b { "b1" } else { "b0" }),
        Value::Int(i) => {
            out.push('i');
            push_i64(out, *i);
        }
        Value::Float(f) => {
            out.push('f');
            push_hex16(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push('s');
            esc_value_str(s, out);
        }
        Value::List(items) => {
            out.push_str("l[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_value(item, out);
            }
            out.push(']');
        }
    }
}

struct ValueParser<'a> {
    rest: &'a str,
}

impl<'a> ValueParser<'a> {
    fn fail<T>(msg: &str) -> Result<T, SnapshotError> {
        Err(SnapshotError::Format(msg.to_string()))
    }

    fn next(&mut self) -> Option<char> {
        let mut chars = self.rest.chars();
        let c = chars.next();
        self.rest = chars.as_str();
        c
    }

    /// Reads up to an unescaped structural delimiter (`,` or `]`) or end
    /// of input, unescaping as it goes.
    fn read_str(&mut self) -> Result<Cow<'a, str>, SnapshotError> {
        unesc_run(&mut self.rest, true)
    }

    fn parse(&mut self) -> Result<Value, SnapshotError> {
        let Some(tag) = self.next() else {
            return Self::fail("empty value");
        };
        match tag {
            'n' => Ok(Value::Null),
            'b' => match self.next() {
                Some('1') => Ok(Value::Bool(true)),
                Some('0') => Ok(Value::Bool(false)),
                _ => Self::fail("bad bool"),
            },
            'i' => {
                let raw = self.read_str()?;
                raw.parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| SnapshotError::Format("bad int".into()))
            }
            'f' => {
                let raw = self.read_str()?;
                u64::from_str_radix(&raw, 16)
                    .map(|bits| Value::Float(f64::from_bits(bits)))
                    .map_err(|_| SnapshotError::Format("bad float bits".into()))
            }
            // Straight from the (usually borrowed) run into the `Arc`:
            // one copy of the text, not two.
            's' => Ok(Value::Str(self.read_str()?.as_ref().into())),
            'l' => {
                if self.next() != Some('[') {
                    return Self::fail("list missing [");
                }
                let mut items = Vec::new();
                if let Some(rest) = self.rest.strip_prefix(']') {
                    self.rest = rest;
                    return Ok(Value::List(items));
                }
                loop {
                    items.push(self.parse()?);
                    match self.next() {
                        Some(',') => continue,
                        Some(']') => break,
                        _ => return Self::fail("unterminated list"),
                    }
                }
                Ok(Value::List(items))
            }
            _ => Self::fail("unknown value tag"),
        }
    }
}

/// Reverses [`encode_value`]; trailing bytes are a format error.
fn decode_value(raw: &str) -> Result<Value, SnapshotError> {
    let mut parser = ValueParser { rest: raw };
    let value = parser.parse()?;
    if !parser.rest.is_empty() {
        return Err(SnapshotError::Format("trailing value bytes".into()));
    }
    Ok(value)
}

// ---- field cursor ------------------------------------------------------

fn bad(what: &str) -> SnapshotError {
    SnapshotError::Format(what.to_string())
}

/// The one reader of text records: every durable decoder takes its
/// fields from a cursor, one typed read per field, instead of indexing a
/// split line. `I` splits the record the way its format does — tabs
/// (cache entries, ledger records), tabs and newlines (a Context-store
/// body) or spaces (a bytecode artifact line).
///
/// The reads are strict: a number parses at the width of the type it
/// is read into (`65537` is not a `u16`), a flag is exactly `0` or `1`,
/// and [`Fields::end`] rejects a field left over.
pub struct Fields<I>(I);

impl<'a, I: Iterator<Item = &'a str>> Fields<I> {
    /// A cursor over the fields `split` yields.
    pub fn new(split: I) -> Fields<I> {
        Fields(split)
    }

    /// The next field, or `None` at the end of the record.
    pub fn try_field(&mut self) -> Option<&'a str> {
        self.0.next()
    }

    /// The next field, as written.
    pub fn field(&mut self) -> Result<&'a str, SnapshotError> {
        self.0.next().ok_or_else(|| bad("truncated record"))
    }

    /// The next field, unescaped (the reverse of [`esc`]).
    pub fn text(&mut self) -> Result<String, SnapshotError> {
        Ok(unesc(self.field()?)?.into_owned())
    }

    /// The next field as a decimal number of type `T`; `what` is the
    /// error message.
    pub fn num<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, SnapshotError> {
        self.field()?.parse().map_err(|_| bad(what))
    }

    /// The next field as a hexadecimal `u64`.
    pub fn hex(&mut self, what: &str) -> Result<u64, SnapshotError> {
        u64::from_str_radix(self.field()?, 16).map_err(|_| bad(what))
    }

    /// The next field as an `f64` written by its bits in hex, so every
    /// float (NaN payloads included) comes back bit for bit.
    pub fn f64_bits(&mut self, what: &str) -> Result<f64, SnapshotError> {
        self.hex(what).map(f64::from_bits)
    }

    /// The next field as a flag: `0` or `1`, nothing else.
    pub fn flag(&mut self, what: &str) -> Result<bool, SnapshotError> {
        match self.field()? {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad(what)),
        }
    }

    /// The next field as an [`encode_value`] payload.
    pub fn value(&mut self) -> Result<Value, SnapshotError> {
        decode_value(self.field()?)
    }

    /// Succeeds only when every field has been read.
    pub fn end(&mut self) -> Result<(), SnapshotError> {
        match self.0.next() {
            None => Ok(()),
            Some(_) => Err(bad("trailing field")),
        }
    }
}

// ---- whole-file snapshot framing ---------------------------------------

/// Frames a body under the `magic / entries n / checksum` header.
pub fn encode_file(magic: &str, body: &str) -> String {
    let n = body.lines().count();
    format!(
        "{magic}\nentries {n}\nchecksum {:016x}\n{body}",
        fnv64(body.as_bytes())
    )
}

/// Verifies the frame and returns the body. Rejects the whole file on a
/// bad magic, entry count, or checksum — a durable store never applies a
/// partially-trusted snapshot.
pub fn decode_file<'a>(magic: &str, text: &'a str) -> Result<&'a str, SnapshotError> {
    let mut lines = text.splitn(4, '\n');
    let found = lines.next().unwrap_or("");
    if found != magic {
        return Err(SnapshotError::Format(format!("bad magic {found:?}")));
    }
    let count_line = lines.next().unwrap_or("");
    let declared: usize = count_line
        .strip_prefix("entries ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| SnapshotError::Format("bad entry count".into()))?;
    let checksum_line = lines.next().unwrap_or("");
    let declared_sum = checksum_line
        .strip_prefix("checksum ")
        .and_then(|raw| u64::from_str_radix(raw, 16).ok())
        .ok_or_else(|| SnapshotError::Format("bad checksum line".into()))?;
    let body = lines.next().unwrap_or("");
    if fnv64(body.as_bytes()) != declared_sum {
        return Err(SnapshotError::Format("checksum mismatch".into()));
    }
    let found_lines = body.lines().count();
    if found_lines != declared {
        return Err(SnapshotError::Format(format!(
            "declared {declared} entries, found {found_lines}"
        )));
    }
    Ok(body)
}

// ---- crash injection ---------------------------------------------------

/// A named instant in a durable write where an injected crash can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before any snapshot byte is written (temp file not created).
    SnapshotBeforeWrite,
    /// Mid-write of the snapshot temp file: a prefix lands, then the
    /// process dies. The real path is never touched.
    SnapshotTornWrite,
    /// After the temp file is complete but before the atomic rename.
    SnapshotBeforeRename,
    /// After the rename: the snapshot IS committed, the process dies
    /// before it can report success.
    SnapshotAfterCommit,
    /// Before a WAL record's first byte reaches the file.
    WalBeforeAppend,
    /// Mid-append: a prefix of the record lands, then the process dies.
    WalTornAppend,
    /// After the record is fully appended: the write IS durable, the
    /// process dies before acknowledging.
    WalAfterAppend,
    /// Before the rename that seals the active WAL tail into an
    /// immutable segment. The records themselves are already durable;
    /// only the seal is lost, so recovery replays the unsealed tail.
    WalSegmentSeal,
    /// Mid-append of a delta frame: a prefix of the frame lands, then
    /// the process dies. Replay truncates to the previous intact frame.
    DeltaTornAppend,
    /// Before a group-commit batch reaches the file: every record in
    /// the batch is lost together, so the durable log trails memory by
    /// at most one batch.
    GroupCommitFlush,
}

impl CrashPoint {
    /// Every crash point, for exhaustive matrices in tests.
    pub const ALL: [CrashPoint; 10] = [
        CrashPoint::SnapshotBeforeWrite,
        CrashPoint::SnapshotTornWrite,
        CrashPoint::SnapshotBeforeRename,
        CrashPoint::SnapshotAfterCommit,
        CrashPoint::WalBeforeAppend,
        CrashPoint::WalTornAppend,
        CrashPoint::WalAfterAppend,
        CrashPoint::WalSegmentSeal,
        CrashPoint::DeltaTornAppend,
        CrashPoint::GroupCommitFlush,
    ];
}

/// A seeded, one-shot crash plan threaded through the durable write
/// paths. The plan fires at the `skip`-th matching [`CrashPoint`]
/// encounter (default: the first) and then never again, so recovery code
/// running after the "crash" sees a healthy filesystem.
#[derive(Debug)]
pub struct FailPlan {
    point: CrashPoint,
    skip: AtomicU32,
    torn_keep: usize,
    tripped: AtomicBool,
    /// Flight-recorder handle: when enabled, a firing plan notes the
    /// crash and triggers the recorder's autodump, so the forensic tail
    /// is on disk before the injected error even surfaces.
    recorder: aida_obs::Recorder,
}

impl FailPlan {
    /// A plan that fires at the first encounter of `point`.
    pub fn new(point: CrashPoint) -> FailPlan {
        FailPlan::nth(point, 0)
    }

    /// A plan that skips `skip` matching encounters before firing.
    pub fn nth(point: CrashPoint, skip: u32) -> FailPlan {
        FailPlan {
            point,
            skip: AtomicU32::new(skip),
            torn_keep: 7,
            tripped: AtomicBool::new(false),
            recorder: aida_obs::Recorder::disabled(),
        }
    }

    /// Attaches a flight-recorder handle: when the plan fires, the crash
    /// is recorded and the recorder's configured autodump is written.
    pub fn with_recorder(mut self, recorder: aida_obs::Recorder) -> FailPlan {
        self.recorder = recorder;
        self
    }

    /// A deterministic plan derived from a test seed: which encounter
    /// dies and how many bytes a torn write keeps both vary with `seed`.
    pub fn seeded(point: CrashPoint, seed: u64) -> FailPlan {
        let mut plan = FailPlan::nth(point, (seed % 3) as u32);
        plan.torn_keep = 1 + ((seed / 3) % 23) as usize;
        plan
    }

    /// Sets how many bytes a torn write leaves behind.
    pub fn torn_keep(mut self, bytes: usize) -> FailPlan {
        self.torn_keep = bytes;
        self
    }

    /// The crash point this plan targets.
    pub fn point(&self) -> CrashPoint {
        self.point
    }

    /// Whether the plan has fired.
    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    fn fires(&self, point: CrashPoint) -> bool {
        if point != self.point || self.tripped() {
            return false;
        }
        let mut fired = false;
        let _ = self
            .skip
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                if s == 0 {
                    fired = true;
                    None
                } else {
                    fired = false;
                    Some(s - 1)
                }
            });
        if fired {
            self.tripped.store(true, Ordering::Relaxed);
            self.recorder
                .flight("llm.crash", "crash_point", format!("{point:?}"));
            self.recorder.flight_autodump("crash_point");
        }
        fired
    }

    /// Returns the injected crash error if the plan fires at `point`.
    fn check(&self, point: CrashPoint) -> io::Result<()> {
        if self.fires(point) {
            Err(FailPlan::crash_error(point))
        } else {
            Ok(())
        }
    }

    /// For torn points: how many bytes to keep if the plan fires here.
    fn torn(&self, point: CrashPoint) -> Option<usize> {
        if self.fires(point) {
            Some(self.torn_keep)
        } else {
            None
        }
    }

    /// The error an injected crash surfaces as.
    fn crash_error(point: CrashPoint) -> io::Error {
        io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected crash at {point:?}"),
        )
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsyncs `path`'s parent directory so a just-created or just-renamed
/// entry survives an OS crash/power cut, not merely a process crash.
/// Platforms whose directory handles reject fsync (e.g. Windows) report
/// success once the rename itself has been issued.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if !cfg!(unix) {
        return Ok(());
    }
    let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) else {
        return Ok(());
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Writes `contents` to a temp sibling and renames it over `path`, so
/// readers only ever observe the old snapshot or the complete new one.
/// The optional [`FailPlan`] injects a crash at the snapshot points.
pub fn commit_atomic(path: &Path, contents: &str, plan: Option<&FailPlan>) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    if let Some(plan) = plan {
        plan.check(CrashPoint::SnapshotBeforeWrite)?;
    }
    let tmp = tmp_sibling(path);
    let bytes = contents.as_bytes();
    if let Some(keep) = plan.and_then(|p| p.torn(CrashPoint::SnapshotTornWrite)) {
        std::fs::write(&tmp, &bytes[..keep.min(bytes.len())])?;
        return Err(FailPlan::crash_error(CrashPoint::SnapshotTornWrite));
    }
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // sync_all (not just flush) so the rename below never commits a
        // name whose contents are still in the page cache: a power cut
        // must yield the old snapshot or the complete new one.
        file.sync_all()?;
    }
    if let Some(plan) = plan {
        plan.check(CrashPoint::SnapshotBeforeRename)?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    if let Some(plan) = plan {
        plan.check(CrashPoint::SnapshotAfterCommit)?;
    }
    Ok(())
}

// ---- append-only WAL ---------------------------------------------------
//
// One record per line:
//   <seq:hex16> \t <payload> \t <fnv64(seq-hex \t payload):hex16> \n
// The payload may itself contain tabs (its fields are escaped with
// `esc`, which removes raw newlines), so a reader peels the checksum off
// the right and the sequence number off the left.

/// Appends one WAL record line (including the trailing newline) to
/// `out`: `payload` writes the record's payload in place, and the
/// checksum covers the bytes this call added before it.
fn push_wal_record(out: &mut String, seq: u64, payload: impl FnOnce(&mut String)) {
    let start = out.len();
    push_hex16(out, seq);
    out.push('\t');
    payload(out);
    debug_assert!(
        !out[start..].contains('\n'),
        "WAL payloads must be newline-free (escape fields with esc)"
    );
    let sum = fnv64(&out.as_bytes()[start..]);
    out.push('\t');
    push_hex16(out, sum);
    out.push('\n');
}

/// Encodes one WAL record line (including the trailing newline).
fn wal_record_line(seq: u64, payload: &str) -> String {
    let mut line = String::with_capacity(payload.len() + 35);
    push_wal_record(&mut line, seq, |out| out.push_str(payload));
    line
}

/// Appends one checksummed record to the WAL at `path`, creating the
/// file (and parent directory) if needed. The optional [`FailPlan`]
/// injects a crash at the WAL points; a torn append leaves a prefix of
/// the record behind, exactly as a mid-write power cut would.
pub fn wal_append(path: &Path, seq: u64, payload: &str, plan: Option<&FailPlan>) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let line = wal_record_line(seq, payload);
    let created = !path.exists();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if let Some(plan) = plan {
        plan.check(CrashPoint::WalBeforeAppend)?;
        if let Some(keep) = plan.torn(CrashPoint::WalTornAppend) {
            let bytes = line.as_bytes();
            file.write_all(&bytes[..keep.min(bytes.len())])?;
            file.flush()?;
            return Err(FailPlan::crash_error(CrashPoint::WalTornAppend));
        }
    }
    file.write_all(line.as_bytes())?;
    // sync_all (not just flush) so an acknowledged record survives an OS
    // crash/power cut, not merely a process crash.
    file.sync_all()?;
    if created {
        sync_parent_dir(path)?;
    }
    if let Some(plan) = plan {
        plan.check(CrashPoint::WalAfterAppend)?;
    }
    Ok(())
}

/// Appends a batch of records to the WAL at `path` with a SINGLE
/// `sync_all` (group commit): records are numbered `first_seq..` in
/// order and written as one contiguous byte run, so either the batch's
/// prefix survives a tear (the per-record checksums truncate the rest)
/// or the whole batch lands durably under one fsync. `encode` writes
/// one record's payload; every record is encoded straight into the one
/// buffer the batch is written from. The optional [`FailPlan`] can drop
/// the entire batch before any byte lands
/// ([`CrashPoint::GroupCommitFlush`]) or tear it mid-record
/// ([`CrashPoint::WalTornAppend`]).
pub fn wal_append_batch<T>(
    path: &Path,
    first_seq: u64,
    records: &[T],
    encode: impl Fn(&T, &mut String),
    plan: Option<&FailPlan>,
) -> io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut batch = String::new();
    for (seq, record) in (first_seq..).zip(records) {
        push_wal_record(&mut batch, seq, |out| encode(record, out));
    }
    if let Some(plan) = plan {
        plan.check(CrashPoint::GroupCommitFlush)?;
    }
    let created = !path.exists();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if let Some(keep) = plan.and_then(|p| p.torn(CrashPoint::WalTornAppend)) {
        let bytes = batch.as_bytes();
        file.write_all(&bytes[..keep.min(bytes.len())])?;
        file.flush()?;
        return Err(FailPlan::crash_error(CrashPoint::WalTornAppend));
    }
    file.write_all(batch.as_bytes())?;
    // One sync_all for the whole batch: this is the entire point of
    // group commit — durability cost amortizes across the records.
    file.sync_all()?;
    if created {
        sync_parent_dir(path)?;
    }
    if let Some(plan) = plan {
        plan.check(CrashPoint::WalAfterAppend)?;
    }
    Ok(())
}

/// Seals the active WAL tail at `path` into the immutable segment file
/// at `sealed` via rename. The records inside are already individually
/// durable (every append fsyncs), so the seal is pure metadata: a crash
/// before the rename ([`CrashPoint::WalSegmentSeal`]) simply leaves the
/// tail active and recovery replays it in place. `sync_all` on the tail
/// plus the parent-directory fsync make the new name itself survive a
/// power cut.
pub fn wal_seal_segment(path: &Path, sealed: &Path, plan: Option<&FailPlan>) -> io::Result<()> {
    if let Some(plan) = plan {
        plan.check(CrashPoint::WalSegmentSeal)?;
    }
    // Re-sync the tail so no acknowledged byte is still in the page
    // cache when the rename commits the segment's final name.
    std::fs::File::open(path)?.sync_all()?;
    std::fs::rename(path, sealed)?;
    sync_parent_dir(sealed)?;
    Ok(())
}

/// The delta-chain sibling of a snapshot path: `<path>.delta`.
pub fn delta_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".delta");
    PathBuf::from(os)
}

/// Where a writer stands in the delta chain extending its full
/// snapshots. The frames carry the stamps (FNV-64) of the snapshots they
/// extend, so a stale chain (a crash between a full rewrite and the
/// chain's removal) never applies to the wrong base; the chain itself
/// only knows whether it has a base, `frames` (also the next frame's
/// sequence number), `durable_len`, the bytes of the chain file the
/// writer has made durable, and whether a failed append may have left
/// residue beyond them.
#[derive(Debug, Default)]
pub struct DeltaChain {
    based: bool,
    frames: u64,
    durable_len: u64,
    torn: bool,
}

impl DeltaChain {
    /// Whether the next checkpoint may append a frame: the chain has a
    /// base and fewer than `full_every` frames (0 acts as 1) extend it.
    /// Otherwise it must rewrite the full snapshots.
    pub fn extends(&self, full_every: u64) -> bool {
        self.based && self.frames < full_every.max(1)
    }

    /// Starts an empty chain on full snapshots just committed: removes
    /// the chain file `chain` that extended the previous ones. Until the
    /// removal succeeds there is no base, so a failure leaves the next
    /// checkpoint a full rewrite again.
    pub fn rebase(&mut self, chain: &Path) -> io::Result<()> {
        *self = DeltaChain::default();
        match std::fs::remove_file(chain) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        self.based = true;
        Ok(())
    }

    /// Appends the next frame to the chain file `chain`: `encode` writes
    /// its payload straight into the record buffer and returns whether
    /// to write it at all. Returns the bytes the frame took, or `None`
    /// when `encode` declined (the file is not touched). Same record
    /// codec and fsync discipline as [`wal_append`], with its own
    /// torn-write crash point ([`CrashPoint::DeltaTornAppend`]) so the
    /// durability suite can kill a checkpoint independently of the
    /// ledger WAL.
    ///
    /// A failed append advances nothing: the retried frame takes the
    /// same sequence number and lands at `durable_len`, after cutting
    /// off whatever residue the failure left. Only the first frame
    /// creates the file (and its directory); later ones open it to
    /// append.
    pub fn append(
        &mut self,
        chain: &Path,
        plan: Option<&FailPlan>,
        encode: impl FnOnce(&mut String) -> bool,
    ) -> io::Result<Option<u64>> {
        let mut line = String::new();
        let mut write = false;
        push_wal_record(&mut line, self.frames, |out| write = encode(out));
        if !write {
            return Ok(None);
        }
        // Until it lands, the frame may leave residue behind.
        let residue = std::mem::replace(&mut self.torn, true);
        self.write_frame(chain, residue, line.as_bytes(), plan)?;
        self.torn = false;
        self.durable_len += line.len() as u64;
        self.frames += 1;
        Ok(Some(line.len() as u64))
    }

    /// Writes `line` at `durable_len`; `residue`: a failed append may
    /// have left bytes beyond it.
    fn write_frame(
        &self,
        chain: &Path,
        residue: bool,
        line: &[u8],
        plan: Option<&FailPlan>,
    ) -> io::Result<()> {
        let first = self.durable_len == 0;
        if first {
            if let Some(dir) = chain.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(first)
            .write(true)
            .truncate(first)
            .open(chain)?;
        // The end of the file is `durable_len` unless a failed append
        // left residue: cut that off first.
        if residue && !first {
            file.set_len(self.durable_len)?;
        }
        file.seek(io::SeekFrom::Start(self.durable_len))?;
        if let Some(keep) = plan.and_then(|p| p.torn(CrashPoint::DeltaTornAppend)) {
            file.write_all(&line[..keep.min(line.len())])?;
            file.flush()?;
            return Err(FailPlan::crash_error(CrashPoint::DeltaTornAppend));
        }
        file.write_all(line)?;
        // sync_all (not just flush): an emitted frame must survive an OS
        // crash/power cut, or replay could skip a hole in the chain.
        file.sync_all()?;
        if first {
            sync_parent_dir(chain)?;
        }
        Ok(())
    }
}

/// What [`wal_replay`] recovered.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Intact records in file order: `(seq, payload)`.
    pub records: Vec<(u64, String)>,
    /// Whether a torn/corrupt tail was logically truncated (everything
    /// before it is still trusted).
    pub dropped_tail: bool,
    /// Byte length of the intact prefix (every accepted record including
    /// its trailing newline). When `dropped_tail` is set, the file must
    /// be physically truncated to this offset before any new append —
    /// otherwise the next record lands on the torn line, fails its
    /// checksum on the following replay, and takes every acknowledged
    /// record after it down too.
    pub valid_len: u64,
}

/// Replays the WAL at `path`. A missing file is an empty WAL. Records
/// are trusted up to the first violation — bad checksum, unparsable
/// line, or non-increasing sequence number — which truncates the
/// logical log there (`dropped_tail`), exactly the torn-tail semantics
/// of a crash mid-append.
pub fn wal_replay(path: &Path) -> io::Result<WalReplay> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(e),
    };
    let mut replay = WalReplay::default();
    // A torn write can split a multi-byte character: trust the valid
    // UTF-8 prefix and truncate there.
    let text = match String::from_utf8(bytes) {
        Ok(text) => text,
        Err(e) => {
            replay.dropped_tail = true;
            let valid = e.utf8_error().valid_up_to();
            let mut bytes = e.into_bytes();
            bytes.truncate(valid);
            match String::from_utf8(bytes) {
                Ok(prefix) => prefix,
                // Unreachable by construction (the prefix up to
                // valid_up_to is valid), but recovery never panics:
                // treat it as a fully torn log.
                Err(_) => return Ok(replay),
            }
        }
    };
    let lines: Vec<&str> = text.split('\n').collect();
    let mut last_seq: Option<u64> = None;
    for (i, line) in lines.iter().enumerate() {
        if line.is_empty() {
            // The empty tail after the final newline is well-formed;
            // a blank line anywhere else is corruption.
            if i + 1 != lines.len() {
                replay.dropped_tail = true;
            }
            break;
        }
        // An unterminated final line tore on its last byte(s): the
        // newline is part of the record, so without it the record was
        // never fully durable and the next append would merge into it.
        if i + 1 == lines.len() {
            replay.dropped_tail = true;
            break;
        }
        let Some((head, sum_hex)) = line.rsplit_once('\t') else {
            replay.dropped_tail = true;
            break;
        };
        let checks_out = u64::from_str_radix(sum_hex, 16)
            .map(|sum| sum == fnv64(head.as_bytes()))
            .unwrap_or(false);
        if !checks_out {
            replay.dropped_tail = true;
            break;
        }
        let Some((seq_hex, payload)) = head.split_once('\t') else {
            replay.dropped_tail = true;
            break;
        };
        let Ok(seq) = u64::from_str_radix(seq_hex, 16) else {
            replay.dropped_tail = true;
            break;
        };
        if last_seq.is_some_and(|prev| seq <= prev) {
            replay.dropped_tail = true;
            break;
        }
        replay.valid_len += line.len() as u64 + 1;
        replay.records.push((seq, payload.to_string()));
        last_seq = Some(seq);
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FailPlan {
        /// Whether an error came from an injected crash (vs. a real I/O
        /// failure).
        fn is_crash(err: &io::Error) -> bool {
            err.kind() == io::ErrorKind::Interrupted && err.to_string().contains("injected crash")
        }
    }

    /// The batch encoder for payloads that are already text.
    fn push_str(payload: &&str, out: &mut String) {
        out.push_str(payload);
    }

    fn dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("aida-snapshot-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn file_frame_round_trips_and_rejects_corruption() {
        let body = "alpha\tone\nbeta\ttwo\n";
        let framed = encode_file("test v1", body);
        assert_eq!(decode_file("test v1", &framed).unwrap(), body);
        assert!(matches!(
            decode_file("other v1", &framed),
            Err(SnapshotError::Format(_))
        ));
        let mut garbled = framed.clone().into_bytes();
        let last = garbled.len() - 2;
        garbled[last] = garbled[last].wrapping_add(1);
        let garbled = String::from_utf8(garbled).unwrap();
        assert!(matches!(
            decode_file("test v1", &garbled),
            Err(SnapshotError::Format(_))
        ));
    }

    #[test]
    fn commit_atomic_never_exposes_a_partial_file() {
        let d = dir("atomic");
        let path = d.join("state.snap");
        commit_atomic(&path, "first\n", None).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");

        // A torn write dies mid-temp-file; the real path still holds the
        // previous committed contents.
        let plan = FailPlan::new(CrashPoint::SnapshotTornWrite).torn_keep(3);
        let err = commit_atomic(&path, "second\n", Some(&plan)).unwrap_err();
        assert!(FailPlan::is_crash(&err));
        assert!(plan.tripped());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");

        // After the commit point the new contents ARE durable even
        // though the caller sees a crash.
        let plan = FailPlan::new(CrashPoint::SnapshotAfterCommit);
        let err = commit_atomic(&path, "third\n", Some(&plan)).unwrap_err();
        assert!(FailPlan::is_crash(&err));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "third\n");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn wal_replay_truncates_at_torn_tail() {
        let d = dir("wal");
        let path = d.join("ledger.wal");
        wal_append(&path, 0, "admit\tacme", None).unwrap();
        wal_append(&path, 1, "spend\tacme\t42", None).unwrap();
        let plan = FailPlan::new(CrashPoint::WalTornAppend).torn_keep(9);
        let err = wal_append(&path, 2, "spend\tbolt\t7", Some(&plan)).unwrap_err();
        assert!(FailPlan::is_crash(&err));

        let replay = wal_replay(&path).unwrap();
        assert!(replay.dropped_tail);
        assert_eq!(
            replay.records,
            vec![
                (0, "admit\tacme".to_string()),
                (1, "spend\tacme\t42".to_string())
            ]
        );
        // valid_len marks the end of the intact prefix: truncating there
        // removes exactly the torn bytes.
        let intact = wal_record_line(0, "admit\tacme") + &wal_record_line(1, "spend\tacme\t42");
        assert_eq!(replay.valid_len, intact.len() as u64);
        assert!((replay.valid_len as usize) < std::fs::read(&path).unwrap().len());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn wal_replay_drops_an_unterminated_final_record() {
        let d = dir("walnoterm");
        let path = d.join("ledger.wal");
        wal_append(&path, 0, "a", None).unwrap();
        wal_append(&path, 1, "b", None).unwrap();
        // Tear off only the final newline: the record's bytes are all
        // present, but an append would merge into its line, so replay
        // must treat it as torn.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        let replay = wal_replay(&path).unwrap();
        assert!(replay.dropped_tail);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.valid_len, wal_record_line(0, "a").len() as u64);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn wal_replay_rejects_non_monotone_sequences() {
        let d = dir("walseq");
        let path = d.join("ledger.wal");
        wal_append(&path, 3, "a", None).unwrap();
        wal_append(&path, 4, "b", None).unwrap();
        // A duplicated sequence number (e.g. a buggy writer re-appending
        // after a partial recovery) truncates the log at the violation.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&wal_record_line(4, "dup"));
        std::fs::write(&path, text).unwrap();
        let replay = wal_replay(&path).unwrap();
        assert!(replay.dropped_tail);
        assert_eq!(replay.records.len(), 2);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_wal_is_empty() {
        let replay = wal_replay(Path::new("/nonexistent/aida/ledger.wal")).unwrap();
        assert!(replay.records.is_empty());
        assert!(!replay.dropped_tail);
    }

    #[test]
    fn firing_plan_dumps_the_flight_recorder() {
        let d = dir("flight");
        let dump = d.join("flight.jsonl");
        let recorder = aida_obs::Recorder::new();
        recorder.set_flight_autodump(&dump);
        recorder.flight("test", "setup", "before crash");
        let plan = FailPlan::new(CrashPoint::WalBeforeAppend).with_recorder(recorder.clone());
        assert!(plan.check(CrashPoint::WalBeforeAppend).is_err());
        let text = std::fs::read_to_string(&dump).unwrap();
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains(r#""flight":"crash_point""#));
        assert!(text.contains(r#""kind":"crash_point","detail":"WalBeforeAppend""#));
        // The crash itself is the last record in the ring.
        assert!(text
            .lines()
            .last()
            .unwrap()
            .contains(r#""kind":"crash_point""#));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn wal_append_batch_is_one_tail_and_replays_in_order() {
        let d = dir("walbatch");
        let path = d.join("ledger.wal");
        wal_append(&path, 0, "admit\tacme", None).unwrap();
        let batch = ["spend\tacme\t1", "spend\tbolt\t2"];
        wal_append_batch(&path, 1, &batch, push_str, None).unwrap();
        let replay = wal_replay(&path).unwrap();
        assert!(!replay.dropped_tail);
        assert_eq!(
            replay.records,
            vec![
                (0, "admit\tacme".to_string()),
                (1, "spend\tacme\t1".to_string()),
                (2, "spend\tbolt\t2".to_string()),
            ]
        );
        // Encoded into one buffer, the batch is the bytes of its records
        // appended one by one.
        let one_by_one = [
            wal_record_line(0, "admit\tacme"),
            wal_record_line(1, batch[0]),
            wal_record_line(2, batch[1]),
        ];
        assert_eq!(std::fs::read_to_string(&path).unwrap(), one_by_one.concat());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn group_flush_crash_loses_the_whole_batch() {
        let d = dir("groupflush");
        let path = d.join("ledger.wal");
        wal_append(&path, 0, "admit\tacme", None).unwrap();
        let before = std::fs::read(&path).unwrap();
        let plan = FailPlan::new(CrashPoint::GroupCommitFlush);
        let batch = ["spend\tacme\t1", "spend\tbolt\t2"];
        let err = wal_append_batch(&path, 1, &batch, push_str, Some(&plan)).unwrap_err();
        assert!(FailPlan::is_crash(&err));
        // Not a single byte of the batch landed: the log is exactly the
        // pre-crash log (trails memory by one batch, never a torn one).
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_batch_keeps_an_intact_prefix() {
        let d = dir("tornbatch");
        let path = d.join("ledger.wal");
        let first = wal_record_line(0, "spend\tacme\t1");
        let plan = FailPlan::new(CrashPoint::WalTornAppend).torn_keep(first.len() + 5);
        let batch = ["spend\tacme\t1", "spend\tbolt\t2"];
        let err = wal_append_batch(&path, 0, &batch, push_str, Some(&plan)).unwrap_err();
        assert!(FailPlan::is_crash(&err));
        let replay = wal_replay(&path).unwrap();
        assert!(replay.dropped_tail);
        assert_eq!(replay.records, vec![(0, "spend\tacme\t1".to_string())]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn seal_crash_leaves_the_tail_active() {
        let d = dir("seal");
        let tail = d.join("ledger.wal");
        let sealed = d.join("ledger.wal.0000000000000000.seg");
        wal_append(&tail, 0, "a", None).unwrap();
        let plan = FailPlan::new(CrashPoint::WalSegmentSeal);
        let err = wal_seal_segment(&tail, &sealed, Some(&plan)).unwrap_err();
        assert!(FailPlan::is_crash(&err));
        assert!(tail.exists() && !sealed.exists());
        // Without the plan the seal commits: same bytes, new name.
        wal_seal_segment(&tail, &sealed, None).unwrap();
        assert!(!tail.exists() && sealed.exists());
        assert_eq!(wal_replay(&sealed).unwrap().records.len(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn delta_append_tears_like_a_wal_record() {
        let d = dir("delta");
        let path = d.join("state.delta");
        let mut chain = DeltaChain::default();
        chain.rebase(&path).unwrap();
        let frame = |payload: &'static str| {
            move |out: &mut String| {
                out.push_str(payload);
                true
            }
        };
        let len = chain.append(&path, None, frame("I\tctx-one")).unwrap();
        assert_eq!(len, Some(wal_record_line(0, "I\tctx-one").len() as u64));
        let plan = FailPlan::new(CrashPoint::DeltaTornAppend).torn_keep(4);
        let err = chain
            .append(&path, Some(&plan), frame("E\tctx-one"))
            .unwrap_err();
        assert!(FailPlan::is_crash(&err));
        let replay = wal_replay(&path).unwrap();
        assert!(replay.dropped_tail);
        assert_eq!(replay.records, vec![(0, "I\tctx-one".to_string())]);
        // The writer owns the durable length: the retried frame first
        // cuts the torn bytes off, so it is not lost with them.
        chain.append(&path, None, frame("E\tctx-one")).unwrap();
        let replay = wal_replay(&path).unwrap();
        assert!(!replay.dropped_tail);
        assert_eq!(replay.records.len(), 2);
        // A declined frame touches nothing; then frames append again.
        let before = std::fs::read(&path).unwrap();
        assert_eq!(chain.append(&path, None, |_| false).unwrap(), None);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        chain.append(&path, None, frame("B\t0\t9")).unwrap();
        assert_eq!(wal_replay(&path).unwrap().records[2], (2, "B\t0\t9".into()));
        // A rebase removes the chain and starts it over.
        assert!(chain.extends(4) && !chain.extends(3));
        chain.rebase(&path).unwrap();
        assert!(!path.exists());
        chain.append(&path, None, frame("I\tctx-two")).unwrap();
        assert_eq!(
            wal_replay(&path).unwrap().records,
            vec![(0, "I\tctx-two".into())]
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    /// The codec as it was before it copied a run at a time: one
    /// character per step. Kept as the reference the run-wise functions
    /// must agree with byte for byte and error for error.
    mod charwise {
        use super::super::SnapshotError;
        use aida_data::Value;

        pub fn esc(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\t' => out.push_str("\\t"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    _ => out.push(c),
                }
            }
        }

        pub fn esc_value_str(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\t' => out.push_str("\\t"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    ',' => out.push_str("\\c"),
                    '[' => out.push_str("\\o"),
                    ']' => out.push_str("\\e"),
                    _ => out.push(c),
                }
            }
        }

        pub fn unesc(raw: &str) -> Result<String, SnapshotError> {
            let mut out = String::with_capacity(raw.len());
            let mut chars = raw.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                out.push(match chars.next() {
                    Some('\\') => '\\',
                    Some('t') => '\t',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    _ => return Err(SnapshotError::Format("bad text escape".into())),
                });
            }
            Ok(out)
        }

        struct ValueParser<'a> {
            chars: std::iter::Peekable<std::str::Chars<'a>>,
        }

        impl ValueParser<'_> {
            fn fail<T>(msg: &str) -> Result<T, SnapshotError> {
                Err(SnapshotError::Format(msg.to_string()))
            }

            fn read_str(&mut self) -> Result<String, SnapshotError> {
                let mut out = String::new();
                while let Some(&c) = self.chars.peek() {
                    match c {
                        ',' | ']' => break,
                        '\\' => {
                            self.chars.next();
                            let Some(esc) = self.chars.next() else {
                                return Self::fail("dangling escape");
                            };
                            out.push(match esc {
                                '\\' => '\\',
                                't' => '\t',
                                'n' => '\n',
                                'r' => '\r',
                                'c' => ',',
                                'o' => '[',
                                'e' => ']',
                                _ => return Self::fail("unknown escape"),
                            });
                        }
                        _ => {
                            self.chars.next();
                            out.push(c);
                        }
                    }
                }
                Ok(out)
            }

            fn parse(&mut self) -> Result<Value, SnapshotError> {
                let Some(tag) = self.chars.next() else {
                    return Self::fail("empty value");
                };
                match tag {
                    'n' => Ok(Value::Null),
                    'b' => match self.chars.next() {
                        Some('1') => Ok(Value::Bool(true)),
                        Some('0') => Ok(Value::Bool(false)),
                        _ => Self::fail("bad bool"),
                    },
                    'i' => {
                        let raw = self.read_str()?;
                        raw.parse::<i64>()
                            .map(Value::Int)
                            .map_err(|_| SnapshotError::Format("bad int".into()))
                    }
                    'f' => {
                        let raw = self.read_str()?;
                        u64::from_str_radix(&raw, 16)
                            .map(|bits| Value::Float(f64::from_bits(bits)))
                            .map_err(|_| SnapshotError::Format("bad float bits".into()))
                    }
                    's' => Ok(Value::Str(self.read_str()?.into())),
                    'l' => {
                        if self.chars.next() != Some('[') {
                            return Self::fail("list missing [");
                        }
                        let mut items = Vec::new();
                        if self.chars.peek() == Some(&']') {
                            self.chars.next();
                            return Ok(Value::List(items));
                        }
                        loop {
                            items.push(self.parse()?);
                            match self.chars.next() {
                                Some(',') => continue,
                                Some(']') => break,
                                _ => return Self::fail("unterminated list"),
                            }
                        }
                        Ok(Value::List(items))
                    }
                    _ => Self::fail("unknown value tag"),
                }
            }
        }

        pub fn decode_value(raw: &str) -> Result<Value, SnapshotError> {
            let mut parser = ValueParser {
                chars: raw.chars().peekable(),
            };
            let value = parser.parse()?;
            if parser.chars.next().is_some() {
                return Err(SnapshotError::Format("trailing value bytes".into()));
            }
            Ok(value)
        }
    }

    #[test]
    fn unesc_borrows_a_field_without_escapes() {
        assert!(matches!(
            unesc("plain é text"),
            Ok(Cow::Borrowed("plain é text"))
        ));
        assert!(matches!(unesc(""), Ok(Cow::Borrowed(""))));
        assert!(matches!(unesc("a\\tb"), Ok(Cow::Owned(s)) if s == "a\tb"));
        // A lone backslash, a trailing one, and an escape the text codec
        // does not know are all the same format error.
        for bad in ["\\", "ab\\", "a\\cb", "\\é"] {
            assert!(matches!(unesc(bad), Err(SnapshotError::Format(m)) if m == "bad text escape"));
        }
    }

    #[test]
    fn wal_record_line_keeps_its_bytes() {
        // The line is built in one buffer now; this is the layout the
        // two `format!` copies used to produce.
        for (seq, payload) in [(0u64, ""), (7, "spend\tacme\t42"), (u64::MAX, "é\\t")] {
            let head = format!("{seq:016x}\t{payload}");
            let expected = format!("{head}\t{:016x}\n", fnv64(head.as_bytes()));
            assert_eq!(wal_record_line(seq, payload), expected);
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Every escape letter, every byte the codecs treat specially,
        /// lone backslashes, and multi-byte characters on both sides of
        /// them.
        const ALPHABET: [char; 20] = [
            '\\', '\t', '\n', '\r', ',', '[', ']', 't', 'n', 'r', 'c', 'o', 'e', 'a', ' ', 'é',
            'ß', '語', '😀', '\u{0}',
        ];

        fn text() -> impl Strategy<Value = String> {
            prop::collection::vec(0usize..ALPHABET.len(), 0..24)
                .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
        }

        /// Value payloads, well-formed or not: the tags and digits too.
        fn value_text() -> impl Strategy<Value = String> {
            const EXTRA: [char; 8] = ['s', 'l', 'i', 'f', 'b', '0', '1', '-'];
            prop::collection::vec(0usize..ALPHABET.len() + EXTRA.len(), 0..16).prop_map(|picks| {
                picks
                    .into_iter()
                    .map(|i| *ALPHABET.get(i).unwrap_or(&EXTRA[i % EXTRA.len()]))
                    .collect()
            })
        }

        fn outcome<T: std::fmt::Debug>(r: Result<T, SnapshotError>) -> String {
            format!("{r:?}")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The number helpers write what `format!` writes, for a
            /// number of every digit count (`shift` drops high bits).
            #[test]
            fn number_helpers_match_format(v in any::<u64>(), shift in 0u32..64) {
                for v in [v, v >> shift, u64::MAX, 0] {
                    let signed = v as i64;
                    let mut out = String::from("x");
                    push_u64(&mut out, v);
                    push_i64(&mut out, signed);
                    push_hex16(&mut out, v);
                    prop_assert_eq!(out, format!("x{v}{signed}{v:016x}"));
                }
                let mut out = String::new();
                push_i64(&mut out, i64::MIN);
                prop_assert_eq!(out, i64::MIN.to_string());
            }

            #[test]
            fn esc_matches_the_charwise_reference(s in text()) {
                let (mut new, mut old) = (String::from("x"), String::from("x"));
                esc(&s, &mut new);
                charwise::esc(&s, &mut old);
                prop_assert_eq!(&new, &old);
                prop_assert_eq!(unesc(&new[1..]).unwrap(), s.as_str());
                let (mut new, mut old) = (String::new(), String::new());
                esc_value_str(&s, &mut new);
                charwise::esc_value_str(&s, &mut old);
                prop_assert_eq!(new, old);
            }

            /// Arbitrary (mostly malformed) input: same text or the same
            /// error.
            #[test]
            fn unesc_matches_the_charwise_reference(raw in text()) {
                let new = unesc(&raw).map(Cow::into_owned);
                prop_assert_eq!(outcome(new), outcome(charwise::unesc(&raw)));
            }

            #[test]
            fn decode_value_matches_the_charwise_reference(raw in value_text(), s in text()) {
                prop_assert_eq!(
                    outcome(decode_value(&raw)),
                    outcome(charwise::decode_value(&raw))
                );
                let value = Value::List(vec![Value::Str(s.as_str().into()), Value::Int(-3)]);
                let mut encoded = String::new();
                encode_value(&value, &mut encoded);
                prop_assert_eq!(decode_value(&encoded).unwrap(), value.clone());
                prop_assert_eq!(charwise::decode_value(&encoded).unwrap(), value);
            }
        }
    }

    #[test]
    fn fail_plan_skips_then_fires_once() {
        let plan = FailPlan::nth(CrashPoint::WalBeforeAppend, 2);
        assert!(plan.check(CrashPoint::WalBeforeAppend).is_ok());
        assert!(plan.check(CrashPoint::SnapshotBeforeWrite).is_ok());
        assert!(plan.check(CrashPoint::WalBeforeAppend).is_ok());
        assert!(plan.check(CrashPoint::WalBeforeAppend).is_err());
        assert!(plan.tripped());
        // One-shot: recovery code after the crash runs unimpeded.
        assert!(plan.check(CrashPoint::WalBeforeAppend).is_ok());
    }
}
