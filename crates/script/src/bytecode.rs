//! Compiler from the checked Pyrite AST to a compact register bytecode.
//!
//! Every Pyrite program runs as bytecode on the register VM
//! ([`crate::vm`]); this module gives it a flat, re-runnable
//! representation:
//!
//! * **Register chunks.** Every function (and the top-level program) is a
//!   [`Chunk`]: a flat `Vec<Insn>` over a per-frame register window, with
//!   a shared constant pool and interned name table. Expression
//!   temporaries are stack-allocated registers; variables stay
//!   name-resolved (locals get slots with a dynamic fall-through to
//!   globals) because Pyrite is late-bound — a call site can resolve to a
//!   local, a global, a host tool, or a builtin depending on runtime
//!   state.
//! * **Fuel defined on the AST.** A program is charged one fuel per
//!   statement entered and one per expression node evaluated (plus one
//!   per list-comprehension iteration); `docs/PYRITE.md` states the whole
//!   rule. The compiler emits explicit [`Insn::Burn`] instructions at
//!   exactly those points — pre-order, before child evaluation — so the
//!   budget runs out at the instant the rule says, with the same
//!   observable side effects. Adjacent burns with no intervening effect
//!   are merged into one `Burn { n }` whose all-or-nothing semantics
//!   leave the fuel counter bit-identical on both the success and
//!   exhaustion paths.
//! * **Artifacts.** [`CompiledProgram::encode`] writes the whole program
//!   as text framed by the checksummed snapshot codec
//!   ([`aida_llm::snapshot::encode_file`]); [`CompiledProgram::decode`]
//!   reads it back. Nothing stores artifacts on disk: the text is the
//!   source of [`CompiledProgram::content_hash`], a stable 128-bit digest
//!   over the *canonical* encoding (line metadata zeroed) that the
//!   semantic call cache keys on — two textually different plans that
//!   compile to the same instructions share one cache entry — and the
//!   round trip is what the differential suite and the bounds bench check
//!   a plan survives. Each opcode's mnemonic and operand order is written
//!   once, in the opcode table below; the reader and writer are both
//!   generated from it. The reader is strict: an operand parses at its own
//!   width, a flag is `0` or `1`, and a token or line left over rejects
//!   the artifact.

use crate::ast::*;
use crate::bounds::{self, Bound, CostBound};
use crate::error::ScriptError;
use crate::parser::parse;
use crate::types::{self, TypeEnv};
use aida_llm::models::ModelId;
use aida_llm::snapshot::{decode_file, encode_file, esc, fnv64, Fields, SnapshotError};
use aida_llm::CacheKey;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// Register operand sentinel meaning "absent" (open slice bound, bare
/// `return`, callee name with no local slot).
pub const NO_REG: u16 = u16::MAX;

/// Snapshot magic for serialized artifacts.
const BYTECODE_MAGIC: &str = "aida-pyrite-bytecode v1";

/// A pooled constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// Integer literal.
    Int(i64),
    /// Float literal (bit-exact through serialization).
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// The `None` literal.
    None,
}

/// One register instruction. `line` operands are 1-based source lines
/// used only for diagnostics; the canonical (content-hash) encoding
/// zeroes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Insn {
    /// Charge `n` fuel (all-or-nothing: on shortfall the counter drops
    /// to zero and execution fails, matching `n` single charges).
    Burn { n: u32, line: u32 },
    /// `regs[dst] = consts[idx]`.
    Const { dst: u16, idx: u16 },
    /// Load a variable: local slot first (when `slot != NO_REG`), then
    /// globals, else a name error at `line`.
    Load {
        dst: u16,
        name: u16,
        slot: u16,
        line: u32,
    },
    /// Store a variable: into the local slot when present, else globals.
    Store { name: u16, slot: u16, src: u16 },
    /// Build a list from `n` consecutive registers starting at `base`.
    MakeList { dst: u16, base: u16, n: u16 },
    /// `regs[dst] = {}`.
    NewDict { dst: u16 },
    /// Assert `regs[reg]` is a string dict key (type error at `line`).
    DictKey { reg: u16, line: u32 },
    /// `dict[key] = val` for a freshly built dict literal.
    DictSet { dict: u16, key: u16, val: u16 },
    /// Binary operator via the interpreter's shared `binary` kernel.
    Bin {
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
        line: u32,
    },
    /// Arithmetic negation.
    Neg { dst: u16, src: u16, line: u32 },
    /// Boolean `not` (truthiness).
    Not { dst: u16, src: u16 },
    /// Unconditional jump to instruction index `to`.
    Jump { to: u32 },
    /// Jump when `regs[src]` is falsy.
    JumpFalse { src: u16, to: u32 },
    /// Jump when `regs[src]` is truthy.
    JumpTrue { src: u16, to: u32 },
    /// `regs[dst] = obj[key]`.
    GetIndex {
        dst: u16,
        obj: u16,
        key: u16,
        line: u32,
    },
    /// `obj[key] = src`.
    SetIndex {
        obj: u16,
        key: u16,
        src: u16,
        line: u32,
    },
    /// Coerce a slice bound to an int in place (type error at `line`).
    SliceIdx { reg: u16, line: u32 },
    /// `regs[dst] = obj[lo:hi]` (`NO_REG` bound = open).
    Slice {
        dst: u16,
        obj: u16,
        lo: u16,
        hi: u16,
        line: u32,
    },
    /// Call a named callee: a name bound as a local or global is called
    /// as a value (burning one fuel for the callee lookup); an unbound
    /// name dispatches to a host function, else a builtin. `cline` is the
    /// callee token's own line (name-error diagnostics).
    CallName {
        dst: u16,
        name: u16,
        slot: u16,
        base: u16,
        argc: u16,
        line: u32,
        cline: u32,
    },
    /// Call an evaluated callee value.
    CallValue {
        dst: u16,
        callee: u16,
        base: u16,
        argc: u16,
        line: u32,
    },
    /// Call a bound method on `obj`.
    CallMethod {
        dst: u16,
        obj: u16,
        name: u16,
        base: u16,
        argc: u16,
        line: u32,
    },
    /// Materialize function `idx` as a value.
    MakeFunc { dst: u16, idx: u16 },
    /// Materialize `regs[src]` as an iteration vector and push it on the
    /// iterator stack (type error at `line` when not iterable).
    IterNew { src: u16, line: u32 },
    /// Advance the top iterator into `dst`, or pop it and jump to `done`.
    IterNext { dst: u16, done: u32 },
    /// Pop the top iterator (early loop exit).
    IterPop,
    /// Bind loop variables (`var_lists[vars]`) from `regs[src]`,
    /// unpacking list elements for multi-name targets.
    Bind { src: u16, vars: u16, line: u32 },
    /// Append `regs[src]` to the list in `regs[list]`.
    Push { list: u16, src: u16 },
    /// Record `regs[src]` as the program result (top-level expression
    /// statements only).
    SetLast { src: u16 },
    /// Return from the current frame (`NO_REG` = `None`); from the main
    /// frame this ends the program with the value.
    Ret { src: u16 },
    /// Raise the "'break'/'continue' outside loop" error
    /// attributed to the enclosing frame-top statement at `line`.
    LoopMisuse { line: u32 },
    /// End of the main chunk; the program result is the last recorded
    /// expression-statement value.
    Halt,
}

/// A compiled instruction sequence with its register-window size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Chunk {
    /// Flat instruction stream.
    pub code: Vec<Insn>,
    /// Registers the frame needs.
    pub nregs: u16,
}

/// A compiled user function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledFn {
    /// Function name (diagnostics and arity errors).
    pub name: String,
    /// Parameter names, in order (slots `0..params.len()`).
    pub params: Vec<String>,
    /// All local slot names (params first, then every assigned name).
    pub locals: Vec<String>,
    /// The function body.
    pub chunk: Chunk,
}

/// What a program's functions share: the pools their instructions index
/// and every compiled function. A function value holds an `Arc` of them
/// ([`crate::value::UserFn`]), so it runs on the VM from any later
/// program on the same interpreter, a decoded artifact's included.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pools {
    /// Constant pool.
    pub consts: Vec<Const>,
    /// Interned identifier table (variables, callees, methods).
    pub names: Vec<String>,
    /// Loop-variable binding lists: `(name index, local slot | NO_REG)`.
    pub var_lists: Vec<Vec<(u16, u16)>>,
    /// Compiled user functions.
    pub funcs: Vec<CompiledFn>,
}

/// A whole compiled program: shared pools plus the main chunk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledProgram {
    /// Pools and functions, shared with every function value the
    /// program makes.
    pub pools: Arc<Pools>,
    /// Top-level code.
    pub main: Chunk,
    /// Static cost bound (see [`crate::bounds`]). Computed by
    /// [`compile`], carried in the serialized artifact (version 2
    /// body), and excluded from the canonical content hash — the hash
    /// identifies the *instructions*; the bound is derived metadata.
    pub bound: CostBound,
}

impl CompiledProgram {
    /// Serializes the program through the checksummed frame codec.
    pub fn encode(&self) -> String {
        encode_file(BYTECODE_MAGIC, &self.body_text(false))
    }

    /// Decodes a serialized artifact, verifying magic, line count, and
    /// checksum.
    pub fn decode(text: &str) -> Result<CompiledProgram, ScriptError> {
        decode_body(decode_file(BYTECODE_MAGIC, text)?)
    }

    /// The stable 128-bit content hash of the canonical encoding (line
    /// metadata zeroed): equal hashes mean instruction-identical plans.
    pub fn content_hash(&self) -> (u64, u64) {
        let body = self.body_text(true);
        let parts: Vec<u64> = body.lines().map(|l| fnv64(l.as_bytes())).collect();
        let key = CacheKey::from_parts(&parts);
        (key.hi, key.lo)
    }

    /// Total instruction count across the main chunk and every function.
    pub fn insn_count(&self) -> usize {
        let funcs = self.pools.funcs.iter().map(|f| f.chunk.code.len());
        self.main.code.len() + funcs.sum::<usize>()
    }

    fn body_text(&self, canonical: bool) -> String {
        let pools = &self.pools;
        let mut out = format!("version 2\nconsts {}\n", pools.consts.len());
        for c in &pools.consts {
            let _ = match c {
                Const::Int(v) => writeln!(out, "c i {v}"),
                Const::Float(v) => writeln!(out, "c f {:016x}", v.to_bits()),
                Const::Str(s) => text_line(&mut out, "c s ", s),
                Const::Bool(b) => writeln!(out, "c b {}", u8::from(*b)),
                Const::None => writeln!(out, "c n"),
            };
        }
        let _ = writeln!(out, "names {}", pools.names.len());
        for n in &pools.names {
            let _ = text_line(&mut out, "n ", n);
        }
        let _ = writeln!(out, "vars {}", pools.var_lists.len());
        for list in &pools.var_lists {
            let _ = write!(out, "v {}", list.len());
            for (name, slot) in list {
                let _ = write!(out, " {name} {slot}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "funcs {}", pools.funcs.len());
        for f in &pools.funcs {
            let (params, locals) = (f.params.len(), f.locals.len());
            let (nregs, ncode) = (f.chunk.nregs, f.chunk.code.len());
            let _ = text_line(
                &mut out,
                &format!("func {params} {locals} {nregs} {ncode} "),
                &f.name,
            );
            for l in &f.locals {
                let _ = text_line(&mut out, "l ", l);
            }
            for i in &f.chunk.code {
                write_insn(&mut out, i, canonical);
            }
        }
        let _ = writeln!(out, "main {} {}", self.main.nregs, self.main.code.len());
        for i in &self.main.code {
            write_insn(&mut out, i, canonical);
        }
        // The bound rides in the artifact (exact round-trip) but stays
        // out of the canonical text: the content hash identifies the
        // instruction stream alone.
        if !canonical {
            let b = &self.bound;
            let (unbounded, open) = (u8::from(b.unbounded), u8::from(b.calls_open));
            let _ = writeln!(
                out,
                "bound unbounded={unbounded} open={open} fuel={}",
                b.fuel_max
            );
            let _ = writeln!(out, "bcalls {}", b.calls_per_tool.len());
            for (name, calls) in &b.calls_per_tool {
                let _ = text_line(&mut out, &format!("bc {calls} "), name);
            }
            let _ = writeln!(out, "busd {}", b.usd_max_per_tier.len());
            for (tier, usd) in &b.usd_max_per_tier {
                let _ = writeln!(out, "bu {} {:016x}", tier.name(), usd.to_bits());
            }
        }
        out
    }
}

/// Appends `head`, the escaped `text` and a newline: a line whose last
/// field is text.
fn text_line(out: &mut String, head: &str, text: &str) -> std::fmt::Result {
    out.push_str(head);
    esc(text, out);
    writeln!(out)
}

fn bad_artifact(message: String) -> ScriptError {
    ScriptError::Static {
        line: 0,
        message: format!("bytecode artifact rejected: {message}"),
    }
}

/// A field the artifact's cursor cannot read rejects the artifact.
impl From<SnapshotError> for ScriptError {
    fn from(e: SnapshotError) -> ScriptError {
        bad_artifact(match e {
            SnapshotError::Format(message) => message,
            SnapshotError::Io(e) => e.to_string(),
        })
    }
}

/// Every binary operator's artifact mnemonic, in declaration order (the
/// writer indexes it by discriminant); the reader searches it.
const BIN_OPS: [(BinOp, &str); 16] = [
    (BinOp::Add, "add"),
    (BinOp::Sub, "sub"),
    (BinOp::Mul, "mul"),
    (BinOp::Div, "div"),
    (BinOp::FloorDiv, "fdiv"),
    (BinOp::Mod, "mod"),
    (BinOp::Eq, "eq"),
    (BinOp::NotEq, "ne"),
    (BinOp::Lt, "lt"),
    (BinOp::LtEq, "le"),
    (BinOp::Gt, "gt"),
    (BinOp::GtEq, "ge"),
    (BinOp::And, "and"),
    (BinOp::Or, "or"),
    (BinOp::In, "in"),
    (BinOp::NotIn, "nin"),
];

/// An instruction operand's text form: written after a space, read from
/// one space-separated token at the operand's own width.
trait Operand: Sized {
    fn write(&self, out: &mut String);
    fn parse(token: &str) -> Option<Self>;
}

/// Registers, indices, counts and lines: decimal.
impl<T: std::fmt::Display + std::str::FromStr> Operand for T {
    fn write(&self, out: &mut String) {
        let _ = write!(out, " {self}");
    }

    fn parse(token: &str) -> Option<T> {
        token.parse().ok()
    }
}

impl Operand for BinOp {
    fn write(&self, out: &mut String) {
        out.push(' ');
        out.push_str(BIN_OPS[*self as usize].1);
    }

    fn parse(token: &str) -> Option<BinOp> {
        BIN_OPS
            .iter()
            .find(|(_, name)| *name == token)
            .map(|(op, _)| *op)
    }
}

/// The fields of one artifact line after its tag.
type Tokens<'a> = Fields<std::str::SplitN<'a, char>>;

fn operand<T: Operand>(fields: &mut Tokens, opcode: &str) -> Result<T, ScriptError> {
    let token = fields.field()?;
    T::parse(token).ok_or_else(|| bad_artifact(format!("bad {opcode} operand {token:?}")))
}

/// The opcode table: each instruction's mnemonic, then its operands in
/// the order they are written, then its source-line operands (always
/// last). The artifact's instruction writer and reader are both
/// generated from it, so an opcode is one row; the canonical encoding,
/// which the content hash reads, writes every line operand as 0.
macro_rules! opcodes {
    ($($variant:ident $mnemonic:literal ($($operand:ident),*) ($($line:ident),*),)*) => {
        fn write_insn(out: &mut String, insn: &Insn, canonical: bool) {
            out.push_str("i ");
            match *insn {
                $(Insn::$variant { $($operand,)* $($line,)* } => {
                    out.push_str($mnemonic);
                    $(Operand::write(&$operand, out);)*
                    $(Operand::write(&if canonical { 0 } else { $line }, out);)*
                })*
            }
            out.push('\n');
        }

        /// Reads an instruction from the fields after its `i` tag.
        fn parse_insn(mut fields: Tokens) -> Result<Insn, ScriptError> {
            let insn = match fields.field()? {
                $($mnemonic => Insn::$variant {
                    $($operand: operand(&mut fields, $mnemonic)?,)*
                    $($line: operand(&mut fields, $mnemonic)?,)*
                },)*
                other => return Err(bad_artifact(format!("unknown opcode {other:?}"))),
            };
            fields.end()?;
            Ok(insn)
        }
    };
}

opcodes! {
    Burn "burn" (n) (line),
    Const "const" (dst, idx) (),
    Load "load" (dst, name, slot) (line),
    Store "store" (name, slot, src) (),
    MakeList "list" (dst, base, n) (),
    NewDict "dict" (dst) (),
    DictKey "dkey" (reg) (line),
    DictSet "dset" (dict, key, val) (),
    Bin "bin" (op, dst, a, b) (line),
    Neg "neg" (dst, src) (line),
    Not "not" (dst, src) (),
    Jump "jmp" (to) (),
    JumpFalse "jf" (src, to) (),
    JumpTrue "jt" (src, to) (),
    GetIndex "geti" (dst, obj, key) (line),
    SetIndex "seti" (obj, key, src) (line),
    SliceIdx "slidx" (reg) (line),
    Slice "slice" (dst, obj, lo, hi) (line),
    CallName "calln" (dst, name, slot, base, argc) (line, cline),
    CallValue "callv" (dst, callee, base, argc) (line),
    CallMethod "callm" (dst, obj, name, base, argc) (line),
    MakeFunc "mkfn" (dst, idx) (),
    IterNew "iter" (src) (line),
    IterNext "next" (dst, done) (),
    IterPop "ipop" () (),
    Bind "bind" (src, vars) (line),
    Push "push" (list, src) (),
    SetLast "last" (src) (),
    Ret "ret" (src) (),
    LoopMisuse "loopmis" () (line),
    Halt "halt" () (),
}

/// An artifact body, one record per line, each line led by its tag.
struct Records<'a>(std::str::Lines<'a>);

impl<'a> Records<'a> {
    /// The next line, which must carry `tag`, split into at most `n`
    /// fields counting the tag: the last keeps its spaces, so escaped
    /// text, which may hold them, ends a line.
    fn record(&mut self, tag: &str, n: usize) -> Result<Tokens<'a>, ScriptError> {
        let line = self
            .0
            .next()
            .ok_or_else(|| bad_artifact(format!("missing {tag} line")))?;
        let mut fields = Fields::new(line.splitn(n, ' '));
        if fields.field()? != tag {
            return Err(bad_artifact(format!("expected {tag} line, got {line:?}")));
        }
        Ok(fields)
    }

    /// A `<tag> <count>` line.
    fn count(&mut self, tag: &str) -> Result<usize, ScriptError> {
        let mut fields = self.record(tag, usize::MAX)?;
        let n = fields.num("bad count")?;
        fields.end()?;
        Ok(n)
    }

    /// `n` instruction lines. Nothing is reserved from a count read off
    /// the input: a forged count must fail on a missing line, not on an
    /// allocation.
    fn code(&mut self, n: usize) -> Result<Vec<Insn>, ScriptError> {
        let mut code = Vec::new();
        for _ in 0..n {
            code.push(parse_insn(self.record("i", usize::MAX)?)?);
        }
        Ok(code)
    }
}

fn decode_body(body: &str) -> Result<CompiledProgram, ScriptError> {
    let mut records = Records(body.lines());
    let mut version = records.record("version", usize::MAX)?;
    match version.field()? {
        "2" => version.end()?,
        v => return Err(bad_artifact(format!("unsupported version {v:?}"))),
    }
    let mut p = Pools::default();
    for _ in 0..records.count("consts")? {
        let mut c = records.record("c", 3)?;
        p.consts.push(match c.field()? {
            "i" => Const::Int(c.num("bad int const")?),
            "f" => Const::Float(c.f64_bits("bad float const")?),
            "s" => Const::Str(c.text()?),
            "b" => Const::Bool(c.flag("bad bool const")?),
            "n" => Const::None,
            kind => return Err(bad_artifact(format!("unknown const kind {kind:?}"))),
        });
        c.end()?;
    }
    for _ in 0..records.count("names")? {
        p.names.push(records.record("n", 2)?.text()?);
    }
    for _ in 0..records.count("vars")? {
        let mut v = records.record("v", usize::MAX)?;
        let mut list = Vec::new();
        for _ in 0..v.num::<usize>("bad varlist count")? {
            list.push((v.num("bad varlist name")?, v.num("bad varlist slot")?));
        }
        v.end()?;
        p.var_lists.push(list);
    }
    for _ in 0..records.count("funcs")? {
        let mut header = records.record("func", 6)?;
        let nparams: usize = header.num("bad func params")?;
        let nlocals: usize = header.num("bad func locals")?;
        let nregs = header.num("bad func nregs")?;
        let ncode = header.num("bad func code count")?;
        let name = header.text()?;
        let mut locals = Vec::new();
        for _ in 0..nlocals {
            locals.push(records.record("l", 2)?.text()?);
        }
        let code = records.code(ncode)?;
        p.funcs.push(CompiledFn {
            name,
            params: locals[..nparams.min(locals.len())].to_vec(),
            locals,
            chunk: Chunk { code, nregs },
        });
    }
    let mut header = records.record("main", usize::MAX)?;
    let nregs = header.num("bad main nregs")?;
    let ncode = header.num("bad main code count")?;
    header.end()?;
    let main = Chunk {
        code: records.code(ncode)?,
        nregs,
    };
    let bound = decode_bound(&mut records)?;
    if let Some(line) = records.0.next() {
        return Err(bad_artifact(format!("trailing line {line:?}")));
    }
    Ok(CompiledProgram {
        pools: Arc::new(p),
        main,
        bound,
    })
}

/// The value of the next `key=value` field, as a cursor over it alone.
fn setting<'a>(
    fields: &mut Tokens<'a>,
    key: &str,
) -> Result<Fields<std::option::IntoIter<&'a str>>, ScriptError> {
    let token = fields.field()?;
    match token.split_once('=') {
        Some((k, value)) if k == key => Ok(Fields::new(Some(value).into_iter())),
        _ => Err(bad_artifact(format!("expected {key}=, got {token:?}"))),
    }
}

/// A bound as [`Bound`]'s `Display` writes it: a count, or `inf`.
fn bound_value<'a>(
    fields: &mut Fields<impl Iterator<Item = &'a str>>,
) -> Result<Bound, ScriptError> {
    match fields.field()? {
        "inf" => Ok(Bound::Unbounded),
        n => n
            .parse()
            .map(Bound::Finite)
            .map_err(|_| bad_artifact(format!("bad bound value {n:?}"))),
    }
}

/// Reads the version-2 bound section (exact round-trip of
/// [`CostBound`] as written by `body_text`).
fn decode_bound(records: &mut Records) -> Result<CostBound, ScriptError> {
    let mut header = records.record("bound", usize::MAX)?;
    let unbounded = setting(&mut header, "unbounded")?.flag("bad unbounded flag")?;
    let calls_open = setting(&mut header, "open")?.flag("bad open flag")?;
    let fuel_max = bound_value(&mut setting(&mut header, "fuel")?)?;
    header.end()?;
    let mut calls_per_tool = BTreeMap::new();
    for _ in 0..records.count("bcalls")? {
        let mut call = records.record("bc", 3)?;
        let bound = bound_value(&mut call)?;
        calls_per_tool.insert(call.text()?, bound);
    }
    let mut usd_max_per_tier = BTreeMap::new();
    for _ in 0..records.count("busd")? {
        let mut usd = records.record("bu", usize::MAX)?;
        let model = usd.field()?;
        let tier = ModelId::parse(model)
            .ok_or_else(|| bad_artifact(format!("unknown model tier {model:?}")))?;
        usd_max_per_tier.insert(tier, usd.f64_bits("bad bound usd bits")?);
        usd.end()?;
    }
    Ok(CostBound {
        fuel_max,
        calls_per_tool,
        calls_open,
        usd_max_per_tier,
        unbounded,
    })
}

/// Compiles a parsed program, bounding its cost for a run on a fresh
/// interpreter.
pub fn compile(program: &Program) -> Result<CompiledProgram, ScriptError> {
    let mut p = lower(program)?;
    p.bound = bounds::analyze(&p);
    Ok(p)
}

/// Compiles a parsed program that must pass the front-end check against
/// `env` (tool signatures and the globals a run starts with): one
/// dataflow analysis yields both the first error, if any, and the cost
/// bound for a run in that environment.
pub fn compile_checked(program: &Program, env: &TypeEnv) -> Result<CompiledProgram, ScriptError> {
    let mut p = lower(program)?;
    let bound = {
        let solved = bounds::solve(&p, env);
        types::check(&solved)?;
        solved.bound()
    };
    p.bound = bound;
    Ok(p)
}

/// Lowers a parsed program to bytecode; its bound is left unbounded.
pub(crate) fn lower(program: &Program) -> Result<CompiledProgram, ScriptError> {
    let mut c = Compiler::default();
    let main = c.compile_chunk(&program.body, None)?;
    Ok(CompiledProgram {
        pools: Arc::new(Pools {
            consts: c.consts,
            names: c.names,
            var_lists: c.var_lists,
            funcs: c.funcs,
        }),
        main,
        bound: CostBound::unbounded_all(),
    })
}

/// Parses and compiles source in one step.
pub fn compile_source(source: &str) -> Result<CompiledProgram, ScriptError> {
    compile(&parse(source)?)
}

#[derive(Default)]
struct Compiler {
    consts: Vec<Const>,
    names: Vec<String>,
    name_ix: HashMap<String, u16>,
    var_lists: Vec<Vec<(u16, u16)>>,
    funcs: Vec<CompiledFn>,
}

/// Per-chunk compile state: register stack, loop patch lists, burn
/// merging.
struct ChunkCtx {
    code: Vec<Insn>,
    free: u16,
    nregs: u16,
    /// Local slot map (functions only); `None` compiles the main chunk.
    locals: Option<HashMap<String, u16>>,
    loops: Vec<LoopCtx>,
    /// Line of the current frame-top statement (stray `break`/`continue`
    /// diagnostics attribute to it).
    top_line: u32,
    /// Index of a trailing mergeable `Burn`, cleared at labels and by
    /// every other instruction.
    last_burn: Option<usize>,
}

struct LoopCtx {
    breaks: Vec<usize>,
    continue_to: u32,
}

const MAX_REGS: u16 = u16::MAX - 1;

impl ChunkCtx {
    fn new(locals: Option<HashMap<String, u16>>) -> ChunkCtx {
        ChunkCtx {
            code: Vec::new(),
            free: 0,
            nregs: 0,
            locals,
            loops: Vec::new(),
            top_line: 0,
            last_burn: None,
        }
    }

    fn alloc(&mut self) -> Result<u16, ScriptError> {
        if self.free >= MAX_REGS {
            return Err(ScriptError::Static {
                line: 0,
                message: "program too complex: register window exhausted".into(),
            });
        }
        let r = self.free;
        self.free += 1;
        self.nregs = self.nregs.max(self.free);
        Ok(r)
    }

    fn emit(&mut self, insn: Insn) -> usize {
        self.last_burn = None;
        self.code.push(insn);
        self.code.len() - 1
    }

    fn emit_burn(&mut self, line: usize) {
        if let Some(i) = self.last_burn {
            if let Insn::Burn { n, .. } = &mut self.code[i] {
                *n += 1;
                return;
            }
        }
        self.code.push(Insn::Burn {
            n: 1,
            line: line as u32,
        });
        self.last_burn = Some(self.code.len() - 1);
    }

    /// A jump-target label at the current position. Clears burn merging:
    /// control can re-enter here, so earlier burns must not absorb later
    /// ones.
    fn here(&mut self) -> u32 {
        self.last_burn = None;
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Insn::Jump { to: t } | Insn::JumpFalse { to: t, .. } | Insn::JumpTrue { to: t, .. } => {
                *t = to
            }
            Insn::IterNext { done, .. } => *done = to,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn slot_of(&self, name: &str) -> u16 {
        self.locals
            .as_ref()
            .and_then(|m| m.get(name).copied())
            .unwrap_or(NO_REG)
    }
}

impl Compiler {
    fn name_ix(&mut self, name: &str) -> Result<u16, ScriptError> {
        if let Some(&ix) = self.name_ix.get(name) {
            return Ok(ix);
        }
        if self.names.len() >= NO_REG as usize {
            return Err(ScriptError::Static {
                line: 0,
                message: "program too complex: name table exhausted".into(),
            });
        }
        let ix = self.names.len() as u16;
        self.names.push(name.to_string());
        self.name_ix.insert(name.to_string(), ix);
        Ok(ix)
    }

    fn const_ix(&mut self, c: Const) -> Result<u16, ScriptError> {
        if let Some(ix) = self.consts.iter().position(|x| x == &c) {
            return Ok(ix as u16);
        }
        if self.consts.len() >= NO_REG as usize {
            return Err(ScriptError::Static {
                line: 0,
                message: "program too complex: constant pool exhausted".into(),
            });
        }
        self.consts.push(c);
        Ok((self.consts.len() - 1) as u16)
    }

    fn var_list_ix(&mut self, vars: &[String], c: &ChunkCtx) -> Result<u16, ScriptError> {
        let mut list = Vec::with_capacity(vars.len());
        for v in vars {
            let name = self.name_ix(v)?;
            list.push((name, c.slot_of(v)));
        }
        if let Some(ix) = self.var_lists.iter().position(|x| x == &list) {
            return Ok(ix as u16);
        }
        self.var_lists.push(list);
        Ok((self.var_lists.len() - 1) as u16)
    }

    /// Compiles a statement list into a chunk. `locals` is `Some` for
    /// function bodies (params plus every assigned name get slots).
    fn compile_chunk(
        &mut self,
        body: &[Stmt],
        locals: Option<HashMap<String, u16>>,
    ) -> Result<Chunk, ScriptError> {
        let is_main = locals.is_none();
        let mut c = ChunkCtx::new(locals);
        for stmt in body {
            self.stmt(&mut c, stmt, 0, is_main)?;
        }
        if is_main {
            c.emit(Insn::Halt);
        } else {
            c.emit(Insn::Ret { src: NO_REG });
        }
        Ok(Chunk {
            code: c.code,
            nregs: c.nregs.max(1),
        })
    }

    fn compile_fn(
        &mut self,
        name: &str,
        params: &[String],
        body: &[Stmt],
    ) -> Result<u16, ScriptError> {
        let mut locals: Vec<String> = Vec::new();
        for p in params {
            if !locals.contains(p) {
                locals.push(p.clone());
            }
        }
        collect_assigned(body, &mut locals);
        let map: HashMap<String, u16> = locals
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u16))
            .collect();
        if locals.len() >= NO_REG as usize {
            return Err(ScriptError::Static {
                line: 0,
                message: "program too complex: too many locals".into(),
            });
        }
        for n in &locals {
            self.name_ix(n)?;
        }
        let chunk = self.compile_chunk(body, Some(map))?;
        self.funcs.push(CompiledFn {
            name: name.to_string(),
            params: params.to_vec(),
            locals,
            chunk,
        });
        Ok((self.funcs.len() - 1) as u16)
    }

    fn stmt(
        &mut self,
        c: &mut ChunkCtx,
        stmt: &Stmt,
        depth: usize,
        is_main: bool,
    ) -> Result<(), ScriptError> {
        if depth == 0 {
            c.top_line = stmt.line as u32;
        }
        let mark = c.free;
        c.emit_burn(stmt.line);
        match &stmt.kind {
            StmtKind::Expr(e) => {
                let r = self.expr(c, e)?;
                if is_main && depth == 0 {
                    c.emit(Insn::SetLast { src: r });
                }
            }
            StmtKind::Assign(Target::Name(name), value) => {
                let v = self.expr(c, value)?;
                let name_ix = self.name_ix(name)?;
                let slot = c.slot_of(name);
                c.emit(Insn::Store {
                    name: name_ix,
                    slot,
                    src: v,
                });
            }
            StmtKind::Assign(Target::Index(obj, key), value) => {
                let v = self.expr(c, value)?;
                let o = self.expr(c, obj)?;
                let k = self.expr(c, key)?;
                c.emit(Insn::SetIndex {
                    obj: o,
                    key: k,
                    src: v,
                    line: stmt.line as u32,
                });
            }
            StmtKind::AugAssign(Target::Name(name), op, value) => {
                let rhs = self.expr(c, value)?;
                let name_ix = self.name_ix(name)?;
                let slot = c.slot_of(name);
                let cur = c.alloc()?;
                c.emit(Insn::Load {
                    dst: cur,
                    name: name_ix,
                    slot,
                    line: stmt.line as u32,
                });
                c.emit(Insn::Bin {
                    op: *op,
                    dst: cur,
                    a: cur,
                    b: rhs,
                    line: stmt.line as u32,
                });
                c.emit(Insn::Store {
                    name: name_ix,
                    slot,
                    src: cur,
                });
            }
            StmtKind::AugAssign(Target::Index(obj, key), op, value) => {
                let rhs = self.expr(c, value)?;
                let o = self.expr(c, obj)?;
                let k = self.expr(c, key)?;
                let cur = c.alloc()?;
                c.emit(Insn::GetIndex {
                    dst: cur,
                    obj: o,
                    key: k,
                    line: stmt.line as u32,
                });
                c.emit(Insn::Bin {
                    op: *op,
                    dst: cur,
                    a: cur,
                    b: rhs,
                    line: stmt.line as u32,
                });
                c.emit(Insn::SetIndex {
                    obj: o,
                    key: k,
                    src: cur,
                    line: stmt.line as u32,
                });
            }
            StmtKind::If(..) => self.stmt_if(c, stmt, mark, depth, is_main)?,
            StmtKind::While(..) => self.stmt_while(c, stmt, mark, depth, is_main)?,
            StmtKind::For(..) => self.stmt_for(c, stmt, mark, depth, is_main)?,
            StmtKind::Def(name, params, body) => {
                let idx = self.compile_fn(name, params, body)?;
                let dst = c.alloc()?;
                c.emit(Insn::MakeFunc { dst, idx });
                let name_ix = self.name_ix(name)?;
                let slot = c.slot_of(name);
                c.emit(Insn::Store {
                    name: name_ix,
                    slot,
                    src: dst,
                });
            }
            StmtKind::Return(value) => {
                let src = match value {
                    Some(e) => self.expr(c, e)?,
                    None => NO_REG,
                };
                c.emit(Insn::Ret { src });
            }
            StmtKind::Break => {
                if c.loops.is_empty() {
                    c.emit(Insn::LoopMisuse { line: c.top_line });
                } else {
                    let j = c.emit(Insn::Jump { to: u32::MAX });
                    c.loops.last_mut().expect("loop context").breaks.push(j);
                }
            }
            StmtKind::Continue => {
                if let Some(to) = c.loops.last().map(|l| l.continue_to) {
                    c.emit(Insn::Jump { to });
                } else {
                    c.emit(Insn::LoopMisuse { line: c.top_line });
                }
            }
            StmtKind::Pass => {}
        }
        c.free = mark;
        Ok(())
    }

    /// `if/elif/else`: each arm tests, falls through to the next on
    /// false, and jumps past the whole chain when its body completes.
    fn stmt_if(
        &mut self,
        c: &mut ChunkCtx,
        stmt: &Stmt,
        mark: u16,
        depth: usize,
        is_main: bool,
    ) -> Result<(), ScriptError> {
        let StmtKind::If(arms, else_body) = &stmt.kind else {
            unreachable!("stmt_if routed a non-if statement");
        };
        let mut done_jumps = Vec::new();
        for (cond, body) in arms {
            let cr = self.expr(c, cond)?;
            let skip = c.emit(Insn::JumpFalse {
                src: cr,
                to: u32::MAX,
            });
            c.free = mark;
            self.block(c, body, depth + 1, is_main)?;
            done_jumps.push(c.emit(Insn::Jump { to: u32::MAX }));
            let next_arm = c.here();
            c.patch(skip, next_arm);
        }
        if let Some(body) = else_body {
            self.block(c, body, depth + 1, is_main)?;
        }
        let done = c.here();
        for j in done_jumps {
            c.patch(j, done);
        }
        Ok(())
    }

    /// `while`: test at the top, exit jump patched to after the body;
    /// `break`s collect in the loop context and patch to the same spot.
    fn stmt_while(
        &mut self,
        c: &mut ChunkCtx,
        stmt: &Stmt,
        mark: u16,
        depth: usize,
        is_main: bool,
    ) -> Result<(), ScriptError> {
        let StmtKind::While(cond, body) = &stmt.kind else {
            unreachable!("stmt_while routed a non-while statement");
        };
        let top = c.here();
        let cr = self.expr(c, cond)?;
        let exit = c.emit(Insn::JumpFalse {
            src: cr,
            to: u32::MAX,
        });
        c.free = mark;
        c.loops.push(LoopCtx {
            breaks: Vec::new(),
            continue_to: top,
        });
        self.block(c, body, depth + 1, is_main)?;
        c.emit(Insn::Jump { to: top });
        let done = c.here();
        c.patch(exit, done);
        let ctx = c.loops.pop().expect("loop context pushed above");
        for j in ctx.breaks {
            c.patch(j, done);
        }
        Ok(())
    }

    /// `for`: materialize the iterable onto the iterator stack, then
    /// `IterNext`/`Bind` per element. `IterNext` pops the iterator on
    /// exhaustion; `break` exits with it still pushed, so break targets
    /// land on an `IterPop` before rejoining the normal exit.
    fn stmt_for(
        &mut self,
        c: &mut ChunkCtx,
        stmt: &Stmt,
        mark: u16,
        depth: usize,
        is_main: bool,
    ) -> Result<(), ScriptError> {
        let StmtKind::For(vars, iterable, body) = &stmt.kind else {
            unreachable!("stmt_for routed a non-for statement");
        };
        let it = self.expr(c, iterable)?;
        c.emit(Insn::IterNew {
            src: it,
            line: stmt.line as u32,
        });
        c.free = mark;
        let item = c.alloc()?;
        let vars_ix = self.var_list_ix(vars, c)?;
        let top = c.here();
        let next = c.emit(Insn::IterNext {
            dst: item,
            done: u32::MAX,
        });
        c.emit(Insn::Bind {
            src: item,
            vars: vars_ix,
            line: stmt.line as u32,
        });
        c.loops.push(LoopCtx {
            breaks: Vec::new(),
            continue_to: top,
        });
        self.block(c, body, depth + 1, is_main)?;
        c.emit(Insn::Jump { to: top });
        let ctx = c.loops.pop().expect("loop context pushed above");
        if ctx.breaks.is_empty() {
            let done = c.here();
            c.patch(next, done);
        } else {
            let brk = c.here();
            for j in ctx.breaks {
                c.patch(j, brk);
            }
            c.emit(Insn::IterPop);
            let done = c.here();
            c.patch(next, done);
        }
        Ok(())
    }

    fn block(
        &mut self,
        c: &mut ChunkCtx,
        body: &[Stmt],
        depth: usize,
        is_main: bool,
    ) -> Result<(), ScriptError> {
        for stmt in body {
            self.stmt(c, stmt, depth, is_main)?;
        }
        Ok(())
    }

    fn expr(&mut self, c: &mut ChunkCtx, e: &Expr) -> Result<u16, ScriptError> {
        let dst = c.alloc()?;
        self.expr_into(c, e, dst)?;
        Ok(dst)
    }

    /// Compiles `e` into `dst`, restoring the register stack to its
    /// entry height (temporaries released).
    fn expr_into(&mut self, c: &mut ChunkCtx, e: &Expr, dst: u16) -> Result<(), ScriptError> {
        let mark = c.free;
        c.emit_burn(e.line);
        let line = e.line as u32;
        match &e.kind {
            ExprKind::Int(v) => {
                let idx = self.const_ix(Const::Int(*v))?;
                c.emit(Insn::Const { dst, idx });
            }
            ExprKind::Float(v) => {
                let idx = self.const_ix(Const::Float(*v))?;
                c.emit(Insn::Const { dst, idx });
            }
            ExprKind::Str(s) => {
                let idx = self.const_ix(Const::Str(s.clone()))?;
                c.emit(Insn::Const { dst, idx });
            }
            ExprKind::Bool(b) => {
                let idx = self.const_ix(Const::Bool(*b))?;
                c.emit(Insn::Const { dst, idx });
            }
            ExprKind::None => {
                let idx = self.const_ix(Const::None)?;
                c.emit(Insn::Const { dst, idx });
            }
            ExprKind::Name(name) => {
                let name_ix = self.name_ix(name)?;
                c.emit(Insn::Load {
                    dst,
                    name: name_ix,
                    slot: c.slot_of(name),
                    line,
                });
            }
            ExprKind::List(items) => {
                let base = c.free;
                for _ in items {
                    c.alloc()?;
                }
                for (i, item) in items.iter().enumerate() {
                    self.expr_into(c, item, base + i as u16)?;
                }
                c.emit(Insn::MakeList {
                    dst,
                    base,
                    n: items.len() as u16,
                });
            }
            ExprKind::Dict(pairs) => {
                c.emit(Insn::NewDict { dst });
                for (k, v) in pairs {
                    let kr = self.expr(c, k)?;
                    c.emit(Insn::DictKey { reg: kr, line });
                    let vr = self.expr(c, v)?;
                    c.emit(Insn::DictSet {
                        dict: dst,
                        key: kr,
                        val: vr,
                    });
                    c.free = mark;
                }
            }
            ExprKind::Binary(BinOp::And, lhs, rhs) => {
                self.expr_into(c, lhs, dst)?;
                let skip = c.emit(Insn::JumpFalse {
                    src: dst,
                    to: u32::MAX,
                });
                self.expr_into(c, rhs, dst)?;
                let done = c.here();
                c.patch(skip, done);
            }
            ExprKind::Binary(BinOp::Or, lhs, rhs) => {
                self.expr_into(c, lhs, dst)?;
                let skip = c.emit(Insn::JumpTrue {
                    src: dst,
                    to: u32::MAX,
                });
                self.expr_into(c, rhs, dst)?;
                let done = c.here();
                c.patch(skip, done);
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let a = self.expr(c, lhs)?;
                let b = self.expr(c, rhs)?;
                c.emit(Insn::Bin {
                    op: *op,
                    dst,
                    a,
                    b,
                    line,
                });
            }
            ExprKind::Unary(UnaryOp::Neg, operand) => {
                let s = self.expr(c, operand)?;
                c.emit(Insn::Neg { dst, src: s, line });
            }
            ExprKind::Unary(UnaryOp::Not, operand) => {
                let s = self.expr(c, operand)?;
                c.emit(Insn::Not { dst, src: s });
            }
            ExprKind::Call(callee, args) => self.compile_call(c, callee, args, dst, line)?,
            ExprKind::MethodCall(obj, method, args) => {
                let o = self.expr(c, obj)?;
                let base = c.free;
                for _ in args {
                    c.alloc()?;
                }
                for (i, a) in args.iter().enumerate() {
                    self.expr_into(c, a, base + i as u16)?;
                }
                let name_ix = self.name_ix(method)?;
                c.emit(Insn::CallMethod {
                    dst,
                    obj: o,
                    name: name_ix,
                    base,
                    argc: args.len() as u16,
                    line,
                });
            }
            ExprKind::Index(obj, key) => {
                let o = self.expr(c, obj)?;
                let k = self.expr(c, key)?;
                c.emit(Insn::GetIndex {
                    dst,
                    obj: o,
                    key: k,
                    line,
                });
            }
            ExprKind::ListComp { .. } => self.compile_listcomp(c, e, dst, mark)?,
            ExprKind::Slice(obj, lo, hi) => {
                let o = self.expr(c, obj)?;
                let lo_r = self.slice_bound(c, lo.as_deref(), line)?;
                let hi_r = self.slice_bound(c, hi.as_deref(), line)?;
                c.emit(Insn::Slice {
                    dst,
                    obj: o,
                    lo: lo_r,
                    hi: hi_r,
                    line,
                });
            }
        }
        c.free = mark;
        Ok(())
    }

    /// Compiles a call: arguments land in a contiguous register window,
    /// then a named callee dispatches through `CallName` (host fn /
    /// builtin / user fn resolution at runtime) while any other callee
    /// expression is evaluated to a value for `CallValue`.
    fn compile_call(
        &mut self,
        c: &mut ChunkCtx,
        callee: &Expr,
        args: &[Expr],
        dst: u16,
        line: u32,
    ) -> Result<(), ScriptError> {
        let base = c.free;
        for _ in args {
            c.alloc()?;
        }
        for (i, a) in args.iter().enumerate() {
            self.expr_into(c, a, base + i as u16)?;
        }
        if let ExprKind::Name(name) = &callee.kind {
            let name_ix = self.name_ix(name)?;
            c.emit(Insn::CallName {
                dst,
                name: name_ix,
                slot: c.slot_of(name),
                base,
                argc: args.len() as u16,
                line,
                cline: callee.line as u32,
            });
        } else {
            let f = self.expr(c, callee)?;
            c.emit(Insn::CallValue {
                dst,
                callee: f,
                base,
                argc: args.len() as u16,
                line,
            });
        }
        Ok(())
    }

    /// Compiles a list comprehension: iterate, bind, filter, push — with
    /// one burn per item.
    fn compile_listcomp(
        &mut self,
        c: &mut ChunkCtx,
        e: &Expr,
        dst: u16,
        mark: u16,
    ) -> Result<(), ScriptError> {
        let ExprKind::ListComp {
            element,
            vars,
            iterable,
            condition,
        } = &e.kind
        else {
            unreachable!("compile_listcomp called on a non-comprehension");
        };
        let line = e.line as u32;
        let it = self.expr(c, iterable)?;
        c.emit(Insn::IterNew { src: it, line });
        c.free = mark;
        c.emit(Insn::MakeList { dst, base: 0, n: 0 });
        let item = c.alloc()?;
        let vars_ix = self.var_list_ix(vars, c)?;
        let top = c.here();
        let next = c.emit(Insn::IterNext {
            dst: item,
            done: u32::MAX,
        });
        c.emit_burn(e.line);
        c.emit(Insn::Bind {
            src: item,
            vars: vars_ix,
            line,
        });
        if let Some(cond) = condition {
            let cr = self.expr(c, cond)?;
            c.emit(Insn::JumpFalse { src: cr, to: top });
            c.free = item + 1;
        }
        let er = self.expr(c, element)?;
        c.emit(Insn::Push { list: dst, src: er });
        c.emit(Insn::Jump { to: top });
        let done = c.here();
        c.patch(next, done);
        Ok(())
    }

    /// Compiles one optional slice bound: evaluated then coerced by
    /// `SliceIdx`; an omitted bound is `NO_REG`.
    fn slice_bound(
        &mut self,
        c: &mut ChunkCtx,
        bound: Option<&Expr>,
        line: u32,
    ) -> Result<u16, ScriptError> {
        match bound {
            Some(b) => {
                let r = self.expr(c, b)?;
                c.emit(Insn::SliceIdx { reg: r, line });
                Ok(r)
            }
            None => Ok(NO_REG),
        }
    }
}

/// Collects every name a statement list can assign in its own frame
/// (assignment targets, loop variables, `def` names, comprehension
/// variables), without descending into nested `def` bodies — those are
/// separate frames.
fn collect_assigned(stmts: &[Stmt], out: &mut Vec<String>) {
    let add = |name: &str, out: &mut Vec<String>| {
        if !out.iter().any(|n| n == name) {
            out.push(name.to_string());
        }
    };
    for s in stmts {
        match &s.kind {
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => comp_vars(e, out),
            StmtKind::Assign(target, e) | StmtKind::AugAssign(target, _, e) => {
                if let Target::Name(n) = target {
                    add(n, out);
                }
                if let Target::Index(o, k) = target {
                    comp_vars(o, out);
                    comp_vars(k, out);
                }
                comp_vars(e, out);
            }
            StmtKind::If(arms, else_body) => {
                for (cond, body) in arms {
                    comp_vars(cond, out);
                    collect_assigned(body, out);
                }
                if let Some(body) = else_body {
                    collect_assigned(body, out);
                }
            }
            StmtKind::While(cond, body) => {
                comp_vars(cond, out);
                collect_assigned(body, out);
            }
            StmtKind::For(vars, iterable, body) => {
                for v in vars {
                    add(v, out);
                }
                comp_vars(iterable, out);
                collect_assigned(body, out);
            }
            StmtKind::Def(name, _, _) => add(name, out),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Pass => {}
        }
    }
}

/// Collects comprehension variables from every sub-expression (they bind
/// in the enclosing frame, Python-2 style).
fn comp_vars(e: &Expr, out: &mut Vec<String>) {
    e.walk(&mut |x| {
        if let ExprKind::ListComp { vars, .. } = &x.kind {
            for v in vars {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str) -> CompiledProgram {
        compile_source(src).expect("compiles")
    }

    #[test]
    fn compiles_straight_line_code() {
        let p = compiled("x = 1\ny = x + 2\ny");
        assert!(p
            .main
            .code
            .iter()
            .any(|i| matches!(i, Insn::SetLast { .. })));
        assert!(p.main.code.iter().any(|i| matches!(i, Insn::Halt)));
        assert!(!p.main.code.is_empty());
    }

    #[test]
    fn burns_merge_only_without_labels() {
        // `x = 1` is one statement burn plus one literal burn, mergeable.
        let p = compiled("x = 1");
        let burns: Vec<u32> = p
            .main
            .code
            .iter()
            .filter_map(|i| match i {
                Insn::Burn { n, .. } => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(burns, vec![2]);
        // A while-loop condition re-enters at a label: its burn must not
        // merge into the statement burn before the loop.
        let p = compiled("x = 0\nwhile x < 2:\n    x = x + 1");
        let merged_across_label = p
            .main
            .code
            .iter()
            .any(|i| matches!(i, Insn::Burn { n, .. } if *n > 3));
        assert!(!merged_across_label);
    }

    #[test]
    fn functions_get_local_slots() {
        let p = compiled("def f(a, b):\n    c = a + b\n    return c\nf(1, 2)");
        assert_eq!(p.pools.funcs.len(), 1);
        let f = &p.pools.funcs[0];
        assert_eq!(f.params, vec!["a", "b"]);
        assert_eq!(f.locals, vec!["a", "b", "c"]);
        assert!(f
            .chunk
            .code
            .iter()
            .any(|i| matches!(i, Insn::Store { slot, .. } if *slot != NO_REG)));
    }

    #[test]
    fn listcomp_vars_are_frame_locals() {
        let p = compiled("def f(xs):\n    ys = [x * 2 for x in xs]\n    return ys");
        assert_eq!(p.pools.funcs[0].locals, vec!["xs", "ys", "x"]);
    }

    #[test]
    fn roundtrip_encode_decode() {
        let src = "total = 0\nfor n in [1, 2, 3]:\n    if n % 2 == 1:\n        total += n\nd = {'k': total}\ntotal";
        let p = compiled(src);
        let encoded = p.encode();
        let back = CompiledProgram::decode(&encoded).expect("decodes");
        assert_eq!(back.pools, p.pools);
        assert_eq!(back.main, p.main);
        // The static cost bound round-trips exactly.
        assert_eq!(back.bound, p.bound);
    }

    #[test]
    fn roundtrip_preserves_unbounded_bound() {
        let p = compiled("i = 10\nwhile i > 0:\n    i = i - 1\ni");
        assert!(p.bound.unbounded);
        let back = CompiledProgram::decode(&p.encode()).expect("decodes");
        assert_eq!(back.bound, p.bound);
    }

    #[test]
    fn decode_rejects_corruption() {
        let p = compiled("x = 1");
        let mut encoded = p.encode();
        encoded.push_str("i halt\n");
        assert!(CompiledProgram::decode(&encoded).is_err());
        assert!(CompiledProgram::decode("garbage").is_err());
        // A version-1 body (old header, no bound section) is an
        // unsupported version, not a program.
        let v1_body: String = p
            .body_text(false)
            .lines()
            .take_while(|l| !l.starts_with("bound "))
            .map(|l| {
                if l == "version 2" {
                    "version 1\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let err = CompiledProgram::decode(&encode_file(BYTECODE_MAGIC, &v1_body)).unwrap_err();
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    /// `body` with `from` replaced once by `to`, framed with a valid
    /// checksum, so only the body decides.
    fn forged(body: &str, from: &str, to: &str) -> String {
        let forged = body.replacen(from, to, 1);
        assert_ne!(forged, body, "{from:?} is in the body");
        encode_file(BYTECODE_MAGIC, &forged)
    }

    #[test]
    fn a_forged_local_count_fails_on_a_missing_line() {
        let body = compiled("def f(a):\n    return a\nf(1)").body_text(false);
        let err =
            CompiledProgram::decode(&forged(&body, "func 1 1 ", "func 1 4000000000000000000 "))
                .unwrap_err();
        assert!(err.to_string().contains("expected l line"), "{err}");
    }

    #[test]
    fn non_canonical_bodies_are_rejected() {
        let body = compiled("x = True\nx").body_text(false);
        assert!(CompiledProgram::decode(&encode_file(BYTECODE_MAGIC, &body)).is_ok());
        for (from, to) in [
            // A flag other than 0 or 1 used to read as `false`.
            ("c b 1\n", "c b 7\n"),
            // A register past `u16` used to wrap (65537 as u16 is 1).
            ("i const 0 0\n", "i const 65537 0\n"),
            // A token after the last operand used to be ignored.
            ("i const 0 0\n", "i const 0 0 99\n"),
            ("bound unbounded=0 ", "bound unbounded=9 "),
        ] {
            let decoded = CompiledProgram::decode(&forged(&body, from, to));
            assert!(decoded.is_err(), "{to:?} decoded: {decoded:?}");
        }
    }

    #[test]
    fn binary_operator_names_are_in_declaration_order() {
        for (i, (op, name)) in BIN_OPS.iter().enumerate() {
            assert_eq!(*op as usize, i, "{name}");
            assert_eq!(BinOp::parse(name), Some(*op));
        }
    }

    #[test]
    fn content_hash_ignores_line_metadata() {
        // A leading comment shifts every source line but produces the
        // same canonical bytecode.
        let a = compiled("x = 1\nx + 2");
        let b = compiled("# shifted by a comment line\nx = 1\nx + 2");
        assert_eq!(a.content_hash(), b.content_hash());
        // Different instructions hash differently.
        let c = compiled("x = 1\nx + 3");
        assert_ne!(a.content_hash(), c.content_hash());
    }
}
