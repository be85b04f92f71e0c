//! Shared durable-state plumbing: checksummed snapshot framing, atomic
//! file commits, one segmented log and one manifest per service, one
//! field reader for every text record, and deterministic crash
//! injection.
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
//! [`SnapshotError`] and the caller starts cold. Between snapshots the
//! stores of a service — the tenant ledger, the Context store and the
//! semantic cache — write to one [`Log`], whose records each carry a
//! store, a length, a sequence number and a checksum: a torn tail cuts
//! the log back to its last whole unit. One [`Manifest`] names each
//! store's snapshot and the sequence number it covers.
//!
//! Every decoder reads the fields of a body line or record payload
//! through a [`Fields`] cursor — one typed read per field (escaped text,
//! a number at its type's width, hex float bits, a `0`/`1` flag, a
//! tagged [`Value`]) and a check that nothing is left over — so a field
//! kind is parsed, and rejected, the same way in every format. Writers
//! use [`esc`] and [`encode_value`] directly.
//!
//! Crash injection: every durable write site threads an optional
//! [`FailPlan`] naming one [`CrashPoint`], which fires once — erroring
//! before the write, tearing it mid-record, or erroring after the
//! commit. The durability suite (`tests/durability.rs`) uses this to
//! prove `recover(crash(S)) ∈ {S_pre, S_committed}` at every point.

use aida_data::Value;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
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
    /// Before any byte of a snapshot file is written: a
    /// [`commit_atomic`] temp file, a generation snapshot or a manifest.
    SnapshotBeforeWrite,
    /// Mid-write of a snapshot file: a prefix lands, then the process
    /// dies. The committed file (or manifest) is never touched.
    SnapshotTornWrite,
    /// After the temp file is complete but before the atomic rename.
    SnapshotBeforeRename,
    /// After the rename: the snapshot (or manifest) IS committed, the
    /// process dies before it can report success.
    SnapshotAfterCommit,
    /// Before a log commit's first byte reaches the file: everything
    /// staged is lost together.
    LogBeforeCommit,
    /// Mid-commit: a prefix of the staged records lands, then the
    /// process dies. Replay truncates to the last whole unit.
    LogTornCommit,
    /// After the commit's fsync: the records ARE durable, the process
    /// dies before acknowledging them.
    LogAfterCommit,
    /// A commit that opens a new segment dies once the file exists and
    /// before any record is in it.
    LogSegmentRoll,
}

impl CrashPoint {
    /// Every crash point, for exhaustive matrices in tests.
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::SnapshotBeforeWrite,
        CrashPoint::SnapshotTornWrite,
        CrashPoint::SnapshotBeforeRename,
        CrashPoint::SnapshotAfterCommit,
        CrashPoint::LogBeforeCommit,
        CrashPoint::LogTornCommit,
        CrashPoint::LogAfterCommit,
        CrashPoint::LogSegmentRoll,
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

    /// Whether the plan has fired.
    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    fn fires(&self, point: CrashPoint) -> bool {
        if point != self.point || self.tripped() {
            return false;
        }
        // Counts a skipped encounter down; fires once there is none left.
        let skip =
            (self.skip).fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1));
        if skip.is_ok() {
            return false;
        }
        self.tripped.store(true, Ordering::Relaxed);
        self.recorder
            .flight("llm.crash", "crash_point", format!("{point:?}"));
        self.recorder.flight_autodump("crash_point");
        true
    }

    /// Returns the injected crash error if the plan fires at `point`.
    fn check(&self, point: CrashPoint) -> io::Result<()> {
        match self.fires(point) {
            true => Err(FailPlan::crash_error(point)),
            false => Ok(()),
        }
    }

    /// For torn points: how many bytes to keep if the plan fires here.
    fn torn(&self, point: CrashPoint) -> Option<usize> {
        self.fires(point).then_some(self.torn_keep)
    }

    /// The error an injected crash surfaces as.
    fn crash_error(point: CrashPoint) -> io::Error {
        io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected crash at {point:?}"),
        )
    }
}

/// Checks `point` against an optional plan.
fn check(plan: Option<&FailPlan>, point: CrashPoint) -> io::Result<()> {
    plan.map_or(Ok(()), |plan| plan.check(point))
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

fn numbered(path: &Path, n: u64, tail: &str) -> PathBuf {
    let mut suffix = String::from(".");
    push_hex16(&mut suffix, n);
    sibling(path, &(suffix + tail))
}

fn create_parent(path: &Path) -> io::Result<()> {
    match path.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => std::fs::create_dir_all(dir),
        None => Ok(()),
    }
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Fsyncs `path`'s parent directory so a just-created or just-renamed
/// entry survives an OS crash/power cut, not merely a process crash.
/// Platforms whose directory handles reject fsync (e.g. Windows) report
/// success once the rename itself has been issued.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if !cfg!(unix) {
        return Ok(());
    }
    let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) else {
        return Ok(());
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Writes `contents` to `path` durably: the file and its directory
/// fsynced, through a temp sibling renamed over `path` when `atomic`, so
/// readers only ever observe the old file or the complete new one. A
/// torn write leaves a prefix behind (of the temp file when `atomic`).
fn write_durably(
    path: &Path,
    contents: &str,
    atomic: bool,
    plan: Option<&FailPlan>,
) -> io::Result<()> {
    create_parent(path)?;
    check(plan, CrashPoint::SnapshotBeforeWrite)?;
    let target = if atomic {
        sibling(path, ".tmp")
    } else {
        path.to_path_buf()
    };
    let bytes = contents.as_bytes();
    if let Some(keep) = plan.and_then(|p| p.torn(CrashPoint::SnapshotTornWrite)) {
        std::fs::write(&target, &bytes[..keep.min(bytes.len())])?;
        return Err(FailPlan::crash_error(CrashPoint::SnapshotTornWrite));
    }
    let mut file = std::fs::File::create(&target)?;
    file.write_all(bytes)?;
    // sync_all (not just flush): a name committed after this must never
    // point at contents still in the page cache.
    file.sync_all()?;
    if atomic {
        check(plan, CrashPoint::SnapshotBeforeRename)?;
        std::fs::rename(&target, path)?;
    }
    sync_parent_dir(path)
}

/// Writes `contents` to a temp sibling and renames it over `path`, so
/// readers only ever observe the old snapshot or the complete new one.
/// The optional [`FailPlan`] injects a crash at the snapshot points.
pub fn commit_atomic(path: &Path, contents: &str, plan: Option<&FailPlan>) -> io::Result<()> {
    write_durably(path, contents, true, plan)?;
    check(plan, CrashPoint::SnapshotAfterCommit)
}

// ---- the log and its manifest ------------------------------------------
//
// One record per line:
//   <seq:hex16> \t <store><link> \t <len:hex8> \t <payload> \t <sum:hex16> \n
// `<store>` is `L` (ledger), `S` (Context store) or `C` (semantic cache);
// `<link>` is `+` when the next record is of the same unit (which applies
// whole or not at all), `.` where a unit ends; `<len>` is the payload's
// byte length, patched in once the payload is encoded in place; `<sum>`
// is the FNV-64 of what precedes its tab. Sequence numbers are
// consecutive across the log.

/// The store a log record or a manifest entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StoreId {
    /// The tenant ledger: admissions and spends.
    Ledger,
    /// The Context store: a checkpoint's journal section.
    State,
    /// The semantic cache: a checkpoint's section.
    Cache,
}

impl StoreId {
    fn tag(self) -> &'static str {
        match self {
            StoreId::Ledger => "L",
            StoreId::State => "S",
            StoreId::Cache => "C",
        }
    }

    fn from_tag(tag: &str) -> Option<StoreId> {
        [StoreId::Ledger, StoreId::State, StoreId::Cache]
            .into_iter()
            .find(|store| store.tag() == tag)
    }
}

/// One record of the log: its sequence number, its store, whether the
/// next record belongs to the same unit, and what the store wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    pub seq: u64,
    pub store: StoreId,
    pub linked: bool,
    pub payload: String,
}

/// `<seq> \t <store><link> \t <len> \t`, and `\t <sum> \n`.
const RECORD_HEAD: usize = 29;
const RECORD_TAIL: usize = 18;

/// Appends one record to `out`, `payload` writing its payload in place.
/// A payload of 4 GiB or more is refused and leaves `out` as it was.
fn push_record(
    out: &mut String,
    seq: u64,
    store: StoreId,
    linked: bool,
    payload: impl FnOnce(&mut String),
) -> io::Result<()> {
    let start = out.len();
    push_hex16(out, seq);
    out.push('\t');
    out.push_str(store.tag());
    out.push(if linked { '+' } else { '.' });
    out.push_str("\t00000000\t");
    payload(out);
    let Ok(len) = u32::try_from(out.len() - start - RECORD_HEAD) else {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "log record over 4 GiB",
        ));
    };
    let mut hex = String::with_capacity(16);
    push_hex16(&mut hex, len.into());
    out.replace_range(start + 20..start + 28, &hex[8..]);
    let sum = fnv64(&out.as_bytes()[start..]);
    out.push('\t');
    push_hex16(out, sum);
    out.push('\n');
    Ok(())
}

/// The record at the front of `bytes` and its length, if it is whole and
/// its checksum holds.
fn read_record(bytes: &[u8]) -> Option<(LogRecord, usize)> {
    let head = std::str::from_utf8(bytes.get(..RECORD_HEAD)?).ok()?;
    let mut fields = Fields::new(head.strip_suffix('\t')?.split('\t'));
    let seq = fields.hex("bad seq").ok()?;
    let kind = fields.field().ok()?;
    let len = usize::try_from(fields.hex("bad length").ok()?).ok()?;
    fields.end().ok()?;
    let store = StoreId::from_tag(kind.get(..1)?)?;
    let linked = match kind.get(1..)? {
        "+" => true,
        "." => false,
        _ => return None,
    };
    let end = RECORD_HEAD.checked_add(len)?;
    let payload = std::str::from_utf8(bytes.get(RECORD_HEAD..end)?).ok()?;
    let tail = std::str::from_utf8(bytes.get(end..end + RECORD_TAIL)?).ok()?;
    let sum = tail.strip_prefix('\t')?.strip_suffix('\n')?;
    if u64::from_str_radix(sum, 16).ok()? != fnv64(&bytes[..end]) {
        return None;
    }
    let record = LogRecord {
        seq,
        store,
        linked,
        payload: payload.to_string(),
    };
    Some((record, end + RECORD_TAIL))
}

/// What [`read_records`] trusts of a byte run: the records of its
/// longest prefix that ends on a unit boundary, that prefix's length,
/// and whether anything after it was refused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadRecords {
    pub records: Vec<LogRecord>,
    pub valid_len: usize,
    pub dropped_tail: bool,
}

/// Reads the records of `bytes`, the first of which must carry sequence
/// number `seq` and each later one the next. Reading stops at the first
/// record that does not hold, and the records of a unit it leaves open
/// go with it.
pub fn read_records(bytes: &[u8], mut seq: u64) -> ReadRecords {
    let mut read = ReadRecords::default();
    let (mut at, mut units) = (0, 0);
    while at < bytes.len() {
        match read_record(&bytes[at..]) {
            Some((record, len)) if record.seq == seq => {
                at += len;
                seq += 1;
                let ends = !record.linked;
                read.records.push(record);
                if ends {
                    (read.valid_len, units) = (at, read.records.len());
                }
            }
            _ => break,
        }
    }
    read.dropped_tail = read.valid_len < bytes.len();
    read.records.truncate(units);
    read
}

/// Which snapshot each store starts from: its generation, and the first
/// sequence number of the log the snapshot does not cover. A store
/// replays the records from there on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Bumped by every commit that writes snapshots; the snapshots it
    /// writes are named by it.
    pub generation: u64,
    /// Per store: `(generation of its snapshot, covered sequence number)`.
    pub stores: BTreeMap<StoreId, (u64, u64)>,
}

const MANIFEST_MAGIC: &str = "aida-manifest v1";

impl Manifest {
    /// The framed manifest file: `G <generation>`, then one
    /// `<store> <generation> <covered>` line per store.
    pub fn encode(&self) -> String {
        let mut body = format!("G\t{}\n", self.generation);
        for (store, (generation, covered)) in &self.stores {
            body += &format!("{}\t{generation}\t{covered}\n", store.tag());
        }
        encode_file(MANIFEST_MAGIC, &body)
    }

    /// Reverses [`Manifest::encode`]. A store named twice, or with a
    /// snapshot newer than the manifest, is a format error.
    pub fn decode(text: &str) -> Result<Manifest, SnapshotError> {
        let mut lines = decode_file(MANIFEST_MAGIC, text)?.lines();
        let mut fields = Fields::new(lines.next().unwrap_or("").split('\t'));
        if fields.field()? != "G" {
            return Err(bad("bad generation line"));
        }
        let mut manifest = Manifest {
            generation: fields.num("bad generation")?,
            stores: BTreeMap::new(),
        };
        fields.end()?;
        for line in lines {
            let mut fields = Fields::new(line.split('\t'));
            let store = StoreId::from_tag(fields.field()?).ok_or_else(|| bad("bad store"))?;
            let entry = (fields.num("bad generation")?, fields.num("bad covered")?);
            fields.end()?;
            if entry.0 > manifest.generation || manifest.stores.insert(store, entry).is_some() {
                return Err(bad("bad store entry"));
            }
        }
        Ok(manifest)
    }
}

/// A [`Log`] shared by the stores of one service.
pub type SharedLog = Arc<Mutex<Log>>;

/// Lifetime counters of a [`Log`] (monotone; diff two readings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Data-file fsyncs: one per commit, per snapshot a rewrite writes
    /// and per manifest commit (directory fsyncs are not counted).
    pub fsyncs: u64,
    /// Commits that carried ledger records.
    pub ledger_commits: u64,
    /// Ledger records committed.
    pub ledger_records: u64,
    /// Segments closed because the active one was full.
    pub rolls: u64,
}

/// Where staged records stood: [`Log::rewind`] returns to it.
#[derive(Debug, Clone, Copy)]
pub struct LogMark {
    seq: u64,
    len: usize,
}

/// One checksummed, segmented log for every store of a service, and one
/// manifest naming each store's snapshot: `<base>.manifest`, segments
/// `<base>.<first seq:hex16>.log`, snapshots `<store path>.<generation>`.
/// Stores [`stage`](Log::stage) records; one [`commit`](Log::commit)
/// writes all staged with one `write` and one `sync_all`.
#[derive(Default)]
pub struct Log {
    base: PathBuf,
    paths: BTreeMap<StoreId, PathBuf>,
    manifest: Manifest,
    /// Per store, the first of its records its snapshot does not cover:
    /// the segments from the lowest on stay.
    pending: BTreeMap<StoreId, u64>,
    segment_records: u64,
    group_commit: u64,
    next_seq: u64,
    staged: String,
    staged_from: u64,
    staged_ledger: u64,
    /// First sequence numbers of the segments; the last is written to.
    segments: Vec<u64>,
    /// Bytes of the last segment made durable.
    durable_len: u64,
    /// A failed commit may have left bytes past `durable_len`.
    residue: bool,
    recovered: Vec<LogRecord>,
    /// Whether the last recovery cut a refused suffix off the files.
    dropped_tail: bool,
    /// Why the last recovery refused the manifest, until a rewrite.
    refused: Option<String>,
    stats: LogStats,
}

impl Log {
    /// A log at `base`; nothing is read until [`Log::recover`].
    pub fn open(base: impl Into<PathBuf>) -> Log {
        Log {
            base: base.into(),
            group_commit: 1,
            ..Log::default()
        }
    }

    /// Opens a new segment once the last holds this many records (0:
    /// never; a rewrite that covers them all deletes it).
    pub fn set_segment_records(&mut self, records: usize) {
        self.segment_records = records as u64;
    }

    /// How many ledger records may wait staged (0 or 1: none).
    pub fn set_group_commit(&mut self, records: usize) {
        self.group_commit = records.max(1) as u64;
    }

    /// Whether the staged ledger records reached the group bound, the
    /// last not being one that `waits` for the next under group commit.
    pub fn commit_due(&self, waits: bool) -> bool {
        self.staged_ledger >= self.group_commit && !(waits && self.group_commit > 1)
    }

    /// Where `store`'s snapshots live: `<path>.<generation>`.
    pub fn set_store_path(&mut self, store: StoreId, path: impl Into<PathBuf>) {
        self.paths.insert(store, path.into());
    }

    /// `store`'s current snapshot file, if the manifest names one.
    pub fn snapshot_path(&self, store: StoreId) -> Option<PathBuf> {
        let (generation, _) = self.manifest.stores.get(&store)?;
        self.generation_path(store, *generation)
    }

    fn generation_path(&self, store: StoreId, generation: u64) -> Option<PathBuf> {
        Some(numbered(self.paths.get(&store)?, generation, ""))
    }

    /// The first sequence number `store`'s snapshot does not cover.
    pub fn covered(&self, store: StoreId) -> u64 {
        self.manifest.stores.get(&store).map_or(0, |entry| entry.1)
    }

    /// The sequence number the next staged record takes.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Whether the last recovery cut a refused suffix off the files.
    pub fn dropped_tail(&self) -> bool {
        self.dropped_tail
    }

    /// Why the last recovery refused the manifest (a store that joins
    /// after it is refused too), until a rewrite succeeds.
    pub fn refused(&self) -> Option<SnapshotError> {
        self.refused.clone().map(SnapshotError::Format)
    }

    /// Whether files of a log are at the base path: a manifest, a
    /// segment, or a file at the path itself (the layout before it).
    pub fn exists(&self) -> io::Result<bool> {
        Ok(self.manifest_path().exists() || self.base.exists() || !self.list(".log")?.is_empty())
    }

    /// Whether the log at the base path holds state of `store`: a
    /// snapshot its manifest names, or a record. Reads, changes nothing.
    pub fn holds(&self, store: StoreId) -> Result<bool, SnapshotError> {
        let manifest = match std::fs::read_to_string(self.manifest_path()) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Manifest::default(),
            text => Manifest::decode(&text?)?,
        };
        let mut held = manifest.stores.contains_key(&store);
        for first in self.list(".log")? {
            let read = read_records(&std::fs::read(self.segment_path(first))?, first);
            held |= read.records.iter().any(|record| record.store == store);
        }
        Ok(held)
    }

    /// The segment files, oldest first.
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        self.segments
            .iter()
            .map(|&first| self.segment_path(first))
            .collect()
    }

    fn segment_path(&self, first: u64) -> PathBuf {
        numbered(&self.base, first, ".log")
    }

    fn manifest_path(&self) -> PathBuf {
        sibling(&self.base, ".manifest")
    }

    /// The numbers `n` of the files `<base>.<n:hex16><tail>` beside
    /// `base`, ascending.
    fn list(&self, tail: &str) -> io::Result<Vec<u64>> {
        let dir = self.base.parent().filter(|d| !d.as_os_str().is_empty());
        let stem = self.base.file_name().map(|n| n.to_string_lossy() + ".");
        let entries = match std::fs::read_dir(dir.unwrap_or(Path::new("."))) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            entries => entries?,
        };
        let mut found = Vec::new();
        for entry in entries {
            let name = entry?.file_name();
            let hex = (name.to_str().zip(stem.as_deref()))
                .and_then(|(name, stem)| name.strip_prefix(stem)?.strip_suffix(tail))
                .filter(|hex| hex.len() == 16);
            found.extend(hex.and_then(|hex| u64::from_str_radix(hex, 16).ok()));
        }
        found.sort_unstable();
        Ok(found)
    }

    /// Reads the manifest, then every segment once, and positions the
    /// writer after the last whole unit. From the first torn, mis-sized,
    /// mis-checksummed or mis-sequenced record on, the log is cut off
    /// the files for every store, and a snapshot covering past the cut
    /// covers up to it. The records read wait until each store
    /// [takes](Log::take_records) its own. A manifest that does not
    /// decode, or a file at `base` with no manifest (the layout before
    /// it), is refused ([`Log::refused`]): the writer continues after
    /// the log, but keeps every segment and never writes over a manifest
    /// that is there.
    pub fn recover(&mut self) -> Result<(), SnapshotError> {
        let manifest = match std::fs::read_to_string(self.manifest_path()) {
            Ok(text) => Manifest::decode(&text),
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e.into()),
            Err(_) if self.base.exists() => Err(bad("state in the layout before the manifest")),
            Err(_) => Ok(Manifest::default()),
        };
        self.manifest = manifest.as_ref().cloned().unwrap_or_default();
        (self.staged, self.staged_ledger, self.durable_len) = (String::new(), 0, 0);
        (self.segments, self.recovered) = (Vec::new(), Vec::new());
        self.dropped_tail = false;
        let found = self.list(".log")?;
        // Segments no pending record needed are gone, but the log never
        // starts past where the last snapshot ends.
        let ends = self.manifest.stores.values().map(|entry| entry.1).max();
        let mut seq = match found.first() {
            Some(&first) if ends.is_none_or(|end| first <= end) => first,
            _ => ends.unwrap_or(0),
        };
        for &first in &found {
            if first != seq || self.dropped_tail {
                remove_if_present(&self.segment_path(first))?;
                self.dropped_tail = true;
                continue;
            }
            let read = read_records(&std::fs::read(self.segment_path(first))?, first);
            seq += read.records.len() as u64;
            self.recovered.extend(read.records);
            (self.durable_len, self.dropped_tail) = (read.valid_len as u64, read.dropped_tail);
            self.segments.push(first);
            if read.dropped_tail {
                truncate_durably(&self.segment_path(first), self.durable_len)?;
            }
        }
        if self.dropped_tail {
            sync_parent_dir(&self.base)?;
        }
        (self.next_seq, self.staged_from) = (seq, seq);
        self.cover_to(seq)?;
        self.pending.clear();
        let stores = &self.manifest.stores;
        for record in &self.recovered {
            if record.seq >= stores.get(&record.store).map_or(0, |entry| entry.1) {
                self.pending.entry(record.store).or_insert(record.seq);
            }
        }
        self.drop_covered()?;
        self.refused = manifest.as_ref().err().map(ToString::to_string);
        if self.refused.is_some() {
            self.recovered.clear();
        }
        manifest.map(drop)
    }

    /// Lowers every covered sequence number past `seq` to it, committing
    /// the manifest if one moved: such a snapshot holds what it covered,
    /// and the records numbered from `seq` on are new to it.
    fn cover_to(&mut self, seq: u64) -> io::Result<()> {
        let past = self
            .manifest
            .stores
            .values_mut()
            .filter(|entry| entry.1 > seq);
        if past.map(|entry| entry.1 = seq).count() > 0 {
            write_durably(&self.manifest_path(), &self.manifest.encode(), true, None)?;
        }
        Ok(())
    }

    /// The committed records of `stores`, read from the segments again
    /// for a store that reloads; the writer, and what other stores
    /// staged, stay as they are.
    pub fn read_back(&self, stores: &[StoreId]) -> Result<Vec<LogRecord>, SnapshotError> {
        if let Some(e) = self.refused() {
            return Err(e);
        }
        let mut records = Vec::new();
        // What a failed commit left past the durable bytes is not read.
        let ours =
            |record: &LogRecord| stores.contains(&record.store) && record.seq < self.staged_from;
        for &first in &self.segments {
            let read = read_records(&std::fs::read(self.segment_path(first))?, first);
            records.extend(read.records.into_iter().filter(ours));
        }
        Ok(records)
    }

    /// Takes the recovered records of `stores`, in log order.
    pub fn take_records(&mut self, stores: &[StoreId]) -> Vec<LogRecord> {
        let (taken, kept) = std::mem::take(&mut self.recovered)
            .into_iter()
            .partition(|record| stores.contains(&record.store));
        self.recovered = kept;
        taken
    }

    /// Where the staged records stand now.
    pub fn mark(&self) -> LogMark {
        LogMark {
            seq: self.next_seq,
            len: self.staged.len(),
        }
    }

    /// Drops the records staged after `mark` and returns true, unless a
    /// commit made them durable.
    pub fn rewind(&mut self, mark: LogMark) -> bool {
        let staged = self.staged_from <= mark.seq;
        if staged {
            self.staged.truncate(mark.len);
            self.next_seq = mark.seq;
            self.pending.retain(|_, first| *first < mark.seq);
        }
        staged
    }

    /// Stages one record of `store`, `payload` writing it in place;
    /// `linked`: the next record staged belongs to the same unit.
    /// Returns the record's length in bytes.
    pub fn stage(
        &mut self,
        store: StoreId,
        linked: bool,
        payload: impl FnOnce(&mut String),
    ) -> io::Result<u64> {
        let start = self.staged.len();
        push_record(&mut self.staged, self.next_seq, store, linked, payload)?;
        self.pending.entry(store).or_insert(self.next_seq);
        self.next_seq += 1;
        self.staged_ledger += u64::from(store == StoreId::Ledger);
        Ok((self.staged.len() - start) as u64)
    }

    /// Writes everything staged with one `write` and one `sync_all` (in
    /// a new segment when the last is full) and returns the bytes. On a
    /// failure before they are durable the records stay staged, and the
    /// next commit first cuts off what the failed one left behind.
    pub fn commit(&mut self, plan: Option<&FailPlan>) -> io::Result<u64> {
        if self.staged.is_empty() {
            return Ok(0);
        }
        check(plan, CrashPoint::LogBeforeCommit)?;
        let last = self.segments.last().copied();
        let held = |first: u64| self.staged_from - first;
        if last.is_none_or(|first| self.segment_records > 0 && held(first) >= self.segment_records)
        {
            let path = self.segment_path(self.staged_from);
            create_parent(&path)?;
            std::fs::File::create(&path)?;
            self.stats.rolls += u64::from(last.is_some());
            self.segments.push(self.staged_from);
            (self.durable_len, self.residue) = (0, false);
            check(plan, CrashPoint::LogSegmentRoll)?;
        }
        let path = self.segment_path(self.segments[self.segments.len() - 1]);
        let mut file = std::fs::OpenOptions::new().write(true).open(&path)?;
        if self.residue {
            file.set_len(self.durable_len)?;
        }
        file.seek(io::SeekFrom::Start(self.durable_len))?;
        self.residue = true;
        let bytes = self.staged.as_bytes();
        if let Some(keep) = plan.and_then(|p| p.torn(CrashPoint::LogTornCommit)) {
            file.write_all(&bytes[..keep.min(bytes.len())])?;
            return Err(FailPlan::crash_error(CrashPoint::LogTornCommit));
        }
        file.write_all(bytes)?;
        file.sync_all()?;
        if self.durable_len == 0 {
            // The segment's first bytes: its name must survive too.
            sync_parent_dir(&path)?;
        }
        let written = bytes.len() as u64;
        (self.residue, self.durable_len) = (false, self.durable_len + written);
        self.stats.fsyncs += 1;
        self.stats.ledger_commits += u64::from(self.staged_ledger > 0);
        self.stats.ledger_records += self.staged_ledger;
        (self.staged_from, self.staged_ledger) = (self.next_seq, 0);
        self.staged.clear();
        check(plan, CrashPoint::LogAfterCommit)?;
        Ok(written)
    }

    /// Commits what is staged, writes `snapshots` as the next generation
    /// covering the log up to here, and makes them current with one
    /// manifest rename, leaving the entries of the other stores as they
    /// are; then deletes the previous generation of the stores written
    /// and the segments no store's pending records need. Returns the
    /// bytes of the snapshots and the manifest.
    pub fn rewrite(
        &mut self,
        snapshots: Vec<(StoreId, String)>,
        plan: Option<&FailPlan>,
    ) -> io::Result<u64> {
        if self.refused.is_some() && self.manifest_path().exists() {
            return Err(io::Error::other("the log's manifest was refused"));
        }
        self.commit(plan)?;
        let mut next = self.manifest.clone();
        next.generation += 1;
        let mut written = 0;
        for (store, text) in &snapshots {
            let path = self
                .generation_path(*store, next.generation)
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "a store without a path")
                })?;
            write_durably(&path, text, false, plan)?;
            next.stores.insert(*store, (next.generation, self.next_seq));
            written += text.len() as u64;
        }
        let manifest = next.encode();
        write_durably(&self.manifest_path(), &manifest, true, plan)?;
        self.stats.fsyncs += snapshots.len() as u64 + 1;
        let old = std::mem::replace(&mut self.manifest, next);
        self.refused = None;
        for (store, _) in &snapshots {
            self.pending.remove(store);
            let last = old.stores.get(store);
            if let Some(path) = last.and_then(|entry| self.generation_path(*store, entry.0)) {
                remove_if_present(&path)?;
            }
        }
        self.drop_covered()?;
        check(plan, CrashPoint::SnapshotAfterCommit)?;
        Ok(written + manifest.len() as u64)
    }

    /// Deletes the segments before the first record a store's snapshot
    /// does not cover.
    fn drop_covered(&mut self) -> io::Result<()> {
        let covered = self.pending.values().min().copied().unwrap_or(u64::MAX);
        let follows = self.segments.iter().skip(1).chain([&self.staged_from]);
        let dead = (follows.take(self.segments.len()))
            .take_while(|&&next| next <= covered)
            .count();
        if dead == 0 {
            return Ok(());
        }
        for first in self.segments.drain(..dead).collect::<Vec<_>>() {
            remove_if_present(&self.segment_path(first))?;
        }
        if self.segments.is_empty() {
            self.durable_len = 0;
        }
        sync_parent_dir(&self.base)
    }
}

/// Truncates `path` to `len` bytes and fsyncs, so the dropped suffix is
/// gone durably. A missing file needs no truncation.
fn truncate_durably(path: &Path, len: u64) -> io::Result<()> {
    let file = match std::fs::OpenOptions::new().write(true).open(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        file => file?,
    };
    file.set_len(len)?;
    file.sync_all()
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

    /// A log at `dir/name` with a ledger, a state and a cache path.
    fn log(dir: &Path) -> Log {
        let mut log = Log::open(dir.join("svc.log"));
        for (store, name) in [
            (StoreId::Ledger, "ledger"),
            (StoreId::State, "state"),
            (StoreId::Cache, "cache"),
        ] {
            log.set_store_path(store, dir.join(name));
        }
        log
    }

    fn stage(log: &mut Log, store: StoreId, linked: bool, payload: &str) {
        log.stage(store, linked, |out| out.push_str(payload))
            .unwrap();
    }

    /// What a fresh log over `dir` recovers: `(store, payload)` in order.
    fn recovered(dir: &Path) -> Vec<(StoreId, String)> {
        let mut log = log(dir);
        log.recover().unwrap();
        let records = log.take_records(&[StoreId::Ledger, StoreId::State, StoreId::Cache]);
        records.into_iter().map(|r| (r.store, r.payload)).collect()
    }

    #[test]
    fn one_commit_writes_every_staged_record_with_one_fsync() {
        let d = dir("log-commit");
        let mut log = log(&d);
        stage(&mut log, StoreId::Ledger, false, "admit\tacme");
        stage(&mut log, StoreId::State, true, "3\tE\t0");
        stage(&mut log, StoreId::Cache, false, "");
        assert_eq!(log.stats().fsyncs, 0, "staging writes nothing");
        let bytes = log.commit(None).unwrap();
        assert_eq!(log.stats().fsyncs, 1);
        assert_eq!(log.stats().ledger_records, 1);
        let segments = log.segment_paths();
        assert_eq!(segments.len(), 1);
        assert_eq!(std::fs::metadata(&segments[0]).unwrap().len(), bytes);
        assert_eq!(
            recovered(&d),
            vec![
                (StoreId::Ledger, "admit\tacme".into()),
                (StoreId::State, "3\tE\t0".into()),
                (StoreId::Cache, String::new()),
            ]
        );
        // The record is the layout the log comment documents.
        let mut one = String::new();
        push_record(&mut one, 7, StoreId::State, true, |out| out.push('é')).unwrap();
        let head = "0000000000000007\tS+\t00000002\té";
        assert_eq!(one, format!("{head}\t{:016x}\n", fnv64(head.as_bytes())));
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A record whose declared length disagrees with its bytes is
    /// refused even under a checksum that holds, and it ends the replay
    /// for every store: the records after it are lost with it.
    #[test]
    fn a_record_of_the_wrong_length_ends_the_prefix_for_every_store() {
        let d = dir("log-length");
        let mut log = log(&d);
        stage(&mut log, StoreId::State, false, "first");
        stage(&mut log, StoreId::Ledger, false, "spend\tacme");
        stage(&mut log, StoreId::Cache, false, "third");
        log.commit(None).unwrap();
        let path = log.segment_paths().remove(0);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for len in ["00000009", "0000000b", "00000000"] {
            let head = format!("0000000000000001\tL.\t{len}\tspend\tacme");
            let forged = format!("{head}\t{:016x}\n", fnv64(head.as_bytes()));
            std::fs::write(&path, [lines[0], &forged, lines[2]].concat()).unwrap();
            let read = read_records(&std::fs::read(&path).unwrap(), 0);
            assert_eq!(read.records.len(), 1, "{len}");
            assert!(read.dropped_tail);
            assert_eq!(
                recovered(&d),
                vec![(StoreId::State, "first".into())],
                "{len}"
            );
            // Recovery cut the refused records off the file.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), lines[0]);
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A torn commit loses the unit it tore whole, and the ledger records
    /// of the same commit before it survive. The retried commit first
    /// cuts the torn bytes off, so it is not lost with them.
    #[test]
    fn a_torn_commit_keeps_only_whole_units_and_the_retry_lands() {
        let d = dir("log-torn");
        let mut log = log(&d);
        stage(&mut log, StoreId::Ledger, false, "admit\tacme");
        log.commit(None).unwrap();
        stage(&mut log, StoreId::Ledger, false, "spend\tacme");
        stage(&mut log, StoreId::State, true, "state section");
        stage(&mut log, StoreId::Cache, false, "cache section");
        let keep = RECORD_HEAD + "spend\tacme".len() + RECORD_TAIL + RECORD_HEAD + 20;
        let plan = FailPlan::new(CrashPoint::LogTornCommit).torn_keep(keep);
        assert!(FailPlan::is_crash(&log.commit(Some(&plan)).unwrap_err()));
        let got = recovered(&d);
        assert_eq!(got.len(), 2, "the state record's unit never ended");
        assert_eq!(got[1], (StoreId::Ledger, "spend\tacme".into()));
        // The surviving process still holds the staged records; recovery
        // truncated the file meanwhile, which the retry must not mind.
        log.commit(None).unwrap();
        assert_eq!(recovered(&d).len(), 4);
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A commit that opens a new segment and dies before writing leaves
    /// an empty segment, which recovery reads as one; full segments roll,
    /// and a rewrite's manifest makes new snapshots current and drops
    /// the segments no store's pending records need.
    #[test]
    fn segments_roll_and_a_rewrite_drops_what_it_covers() {
        let d = dir("log-roll");
        let mut log = log(&d);
        log.set_segment_records(2);
        for i in 0..3 {
            stage(&mut log, StoreId::Ledger, false, &format!("r{i}"));
            log.commit(None).unwrap();
        }
        assert_eq!(log.segment_paths().len(), 2);
        assert_eq!(log.stats().rolls, 1);
        stage(&mut log, StoreId::Ledger, false, "r3");
        stage(&mut log, StoreId::Ledger, false, "r4");
        log.commit(None).unwrap();
        let plan = FailPlan::new(CrashPoint::LogSegmentRoll);
        stage(&mut log, StoreId::Ledger, false, "r5");
        assert!(FailPlan::is_crash(&log.commit(Some(&plan)).unwrap_err()));
        let segments = log.segment_paths();
        assert_eq!(segments.len(), 3);
        assert_eq!(std::fs::metadata(&segments[2]).unwrap().len(), 0);
        assert_eq!(recovered(&d).len(), 5);

        log.rewrite(vec![(StoreId::State, "state image".into())], None)
            .unwrap();
        assert_eq!(log.segment_paths(), segments, "the ledger's are pending");
        log.rewrite(vec![(StoreId::Ledger, "ledger image".into())], None)
            .unwrap();
        assert!(log.segment_paths().is_empty(), "every record is covered");
        let mut fresh = self::log(&d);
        fresh.recover().unwrap();
        assert_eq!(fresh.covered(StoreId::Ledger), 6);
        assert_eq!(fresh.next_seq(), 6);
        let state = fresh.snapshot_path(StoreId::State).unwrap();
        assert_eq!(std::fs::read_to_string(state).unwrap(), "state image");
        assert!(fresh.snapshot_path(StoreId::Cache).is_none());
        // A store's next generation replaces the file of its last.
        log.rewrite(vec![(StoreId::State, "newer".into())], None)
            .unwrap();
        assert!(!d.join("state.0000000000000001").exists());
        assert!(d.join("state.0000000000000003").exists());
        assert!(d.join("ledger.0000000000000002").exists());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn manifests_round_trip_and_old_layouts_are_refused() {
        let mut manifest = Manifest {
            generation: 4,
            stores: BTreeMap::new(),
        };
        manifest.stores.insert(StoreId::State, (4, 17));
        manifest.stores.insert(StoreId::Ledger, (2, 9));
        assert_eq!(Manifest::decode(&manifest.encode()).unwrap(), manifest);
        manifest.stores.insert(StoreId::Cache, (5, 17));
        assert!(
            Manifest::decode(&manifest.encode()).is_err(),
            "from the future"
        );

        let d = dir("log-old");
        std::fs::write(d.join("svc.log"), "aida-ctxstore v3\n").unwrap();
        let mut log = log(&d);
        assert!(matches!(log.recover(), Err(SnapshotError::Format(_))));
        let _ = std::fs::remove_dir_all(&d);
    }
    #[test]
    fn firing_plan_dumps_the_flight_recorder() {
        let d = dir("flight");
        let dump = d.join("flight.jsonl");
        let recorder = aida_obs::Recorder::new();
        recorder.set_flight_autodump(&dump);
        recorder.flight("test", "setup", "before crash");
        let plan = FailPlan::new(CrashPoint::LogBeforeCommit).with_recorder(recorder.clone());
        assert!(plan.check(CrashPoint::LogBeforeCommit).is_err());
        let text = std::fs::read_to_string(&dump).unwrap();
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains(r#""flight":"crash_point""#));
        assert!(text.contains(r#""kind":"crash_point","detail":"LogBeforeCommit""#));
        // The crash itself is the last record in the ring.
        assert!(text
            .lines()
            .last()
            .unwrap()
            .contains(r#""kind":"crash_point""#));
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
        let plan = FailPlan::nth(CrashPoint::LogBeforeCommit, 2);
        assert!(plan.check(CrashPoint::LogBeforeCommit).is_ok());
        assert!(plan.check(CrashPoint::SnapshotBeforeWrite).is_ok());
        assert!(plan.check(CrashPoint::LogBeforeCommit).is_ok());
        assert!(plan.check(CrashPoint::LogBeforeCommit).is_err());
        assert!(plan.tripped());
        // One-shot: recovery code after the crash runs unimpeded.
        assert!(plan.check(CrashPoint::LogBeforeCommit).is_ok());
    }
}
