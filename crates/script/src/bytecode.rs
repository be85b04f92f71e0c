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
//! * **Durable artifacts.** [`CompiledProgram::encode`] frames the whole
//!   program through the checksummed snapshot codec
//!   ([`aida_llm::snapshot::encode_file`]), so compiled plans are
//!   versioned on-disk artifacts; [`CompiledProgram::content_hash`] is a
//!   stable 128-bit digest over the *canonical* encoding (line metadata
//!   zeroed) that the semantic call cache keys on — two textually
//!   different plans that compile to the same instructions share one
//!   cache entry.

use crate::ast::*;
use crate::bounds::{self, Bound, CostBound};
use crate::error::ScriptError;
use crate::parser::parse;
use aida_llm::models::ModelId;
use aida_llm::snapshot::{decode_file, encode_file, esc, fnv64, unesc};
use aida_llm::CacheKey;
use std::collections::HashMap;
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
#[derive(Debug, Clone, PartialEq)]
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
        let body = decode_file(BYTECODE_MAGIC, text)
            .map_err(|e| bad_artifact(format!("bad frame: {e:?}")))?;
        decode_body(body)
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
        let mut out = String::new();
        out.push_str("version 2\n");
        out.push_str(&format!("consts {}\n", pools.consts.len()));
        for c in &pools.consts {
            match c {
                Const::Int(v) => out.push_str(&format!("c i {v}\n")),
                Const::Float(v) => out.push_str(&format!("c f {:016x}\n", v.to_bits())),
                Const::Str(s) => {
                    out.push_str("c s ");
                    esc(s, &mut out);
                    out.push('\n');
                }
                Const::Bool(b) => out.push_str(&format!("c b {}\n", u8::from(*b))),
                Const::None => out.push_str("c n\n"),
            }
        }
        out.push_str(&format!("names {}\n", pools.names.len()));
        for n in &pools.names {
            out.push_str("n ");
            esc(n, &mut out);
            out.push('\n');
        }
        out.push_str(&format!("vars {}\n", pools.var_lists.len()));
        for list in &pools.var_lists {
            out.push_str(&format!("v {}", list.len()));
            for (name, slot) in list {
                out.push_str(&format!(" {name} {slot}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("funcs {}\n", pools.funcs.len()));
        for f in &pools.funcs {
            out.push_str(&format!(
                "func {} {} {} {} ",
                f.params.len(),
                f.locals.len(),
                f.chunk.nregs,
                f.chunk.code.len()
            ));
            esc(&f.name, &mut out);
            out.push('\n');
            for l in &f.locals {
                out.push_str("l ");
                esc(l, &mut out);
                out.push('\n');
            }
            for i in &f.chunk.code {
                write_insn(&mut out, i, canonical);
            }
        }
        out.push_str(&format!(
            "main {} {}\n",
            self.main.nregs,
            self.main.code.len()
        ));
        for i in &self.main.code {
            write_insn(&mut out, i, canonical);
        }
        // The bound rides in the artifact (exact round-trip) but stays
        // out of the canonical text: the content hash identifies the
        // instruction stream alone.
        if !canonical {
            out.push_str(&format!(
                "bound unbounded={} open={} fuel={}\n",
                u8::from(self.bound.unbounded),
                u8::from(self.bound.calls_open),
                self.bound.fuel_max,
            ));
            out.push_str(&format!("bcalls {}\n", self.bound.calls_per_tool.len()));
            for (name, b) in &self.bound.calls_per_tool {
                out.push_str(&format!("bc {b} "));
                esc(name, &mut out);
                out.push('\n');
            }
            out.push_str(&format!("busd {}\n", self.bound.usd_max_per_tier.len()));
            for (tier, usd) in &self.bound.usd_max_per_tier {
                out.push_str(&format!("bu {} {:016x}\n", tier.name(), usd.to_bits()));
            }
        }
        out
    }
}

fn bad_artifact(message: String) -> ScriptError {
    ScriptError::Static {
        line: 0,
        message: format!("bytecode artifact rejected: {message}"),
    }
}

fn op_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::FloorDiv => "fdiv",
        BinOp::Mod => "mod",
        BinOp::Eq => "eq",
        BinOp::NotEq => "ne",
        BinOp::Lt => "lt",
        BinOp::LtEq => "le",
        BinOp::Gt => "gt",
        BinOp::GtEq => "ge",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::In => "in",
        BinOp::NotIn => "nin",
    }
}

fn op_parse(name: &str) -> Option<BinOp> {
    Some(match name {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "fdiv" => BinOp::FloorDiv,
        "mod" => BinOp::Mod,
        "eq" => BinOp::Eq,
        "ne" => BinOp::NotEq,
        "lt" => BinOp::Lt,
        "le" => BinOp::LtEq,
        "gt" => BinOp::Gt,
        "ge" => BinOp::GtEq,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "in" => BinOp::In,
        "nin" => BinOp::NotIn,
        _ => return None,
    })
}

fn write_insn(out: &mut String, i: &Insn, canonical: bool) {
    let ln = |l: u32| if canonical { 0 } else { l };
    let text = match *i {
        Insn::Burn { n, line } => format!("burn {n} {}", ln(line)),
        Insn::Const { dst, idx } => format!("const {dst} {idx}"),
        Insn::Load {
            dst,
            name,
            slot,
            line,
        } => format!("load {dst} {name} {slot} {}", ln(line)),
        Insn::Store { name, slot, src } => format!("store {name} {slot} {src}"),
        Insn::MakeList { dst, base, n } => format!("list {dst} {base} {n}"),
        Insn::NewDict { dst } => format!("dict {dst}"),
        Insn::DictKey { reg, line } => format!("dkey {reg} {}", ln(line)),
        Insn::DictSet { dict, key, val } => format!("dset {dict} {key} {val}"),
        Insn::Bin {
            op,
            dst,
            a,
            b,
            line,
        } => {
            format!("bin {} {dst} {a} {b} {}", op_name(op), ln(line))
        }
        Insn::Neg { dst, src, line } => format!("neg {dst} {src} {}", ln(line)),
        Insn::Not { dst, src } => format!("not {dst} {src}"),
        Insn::Jump { to } => format!("jmp {to}"),
        Insn::JumpFalse { src, to } => format!("jf {src} {to}"),
        Insn::JumpTrue { src, to } => format!("jt {src} {to}"),
        Insn::GetIndex {
            dst,
            obj,
            key,
            line,
        } => format!("geti {dst} {obj} {key} {}", ln(line)),
        Insn::SetIndex {
            obj,
            key,
            src,
            line,
        } => format!("seti {obj} {key} {src} {}", ln(line)),
        Insn::SliceIdx { reg, line } => format!("slidx {reg} {}", ln(line)),
        Insn::Slice {
            dst,
            obj,
            lo,
            hi,
            line,
        } => {
            format!("slice {dst} {obj} {lo} {hi} {}", ln(line))
        }
        Insn::CallName {
            dst,
            name,
            slot,
            base,
            argc,
            line,
            cline,
        } => {
            format!(
                "calln {dst} {name} {slot} {base} {argc} {} {}",
                ln(line),
                ln(cline)
            )
        }
        Insn::CallValue {
            dst,
            callee,
            base,
            argc,
            line,
        } => {
            format!("callv {dst} {callee} {base} {argc} {}", ln(line))
        }
        Insn::CallMethod {
            dst,
            obj,
            name,
            base,
            argc,
            line,
        } => {
            format!("callm {dst} {obj} {name} {base} {argc} {}", ln(line))
        }
        Insn::MakeFunc { dst, idx } => format!("mkfn {dst} {idx}"),
        Insn::IterNew { src, line } => format!("iter {src} {}", ln(line)),
        Insn::IterNext { dst, done } => format!("next {dst} {done}"),
        Insn::IterPop => "ipop".to_string(),
        Insn::Bind { src, vars, line } => format!("bind {src} {vars} {}", ln(line)),
        Insn::Push { list, src } => format!("push {list} {src}"),
        Insn::SetLast { src } => format!("last {src}"),
        Insn::Ret { src } => format!("ret {src}"),
        Insn::LoopMisuse { line } => format!("loopmis {}", ln(line)),
        Insn::Halt => "halt".to_string(),
    };
    out.push_str("i ");
    out.push_str(&text);
    out.push('\n');
}

fn parse_insn(line: &str) -> Result<Insn, ScriptError> {
    let rest = line
        .strip_prefix("i ")
        .ok_or_else(|| bad_artifact(format!("expected instruction line, got {line:?}")))?;
    let mut it = rest.split(' ');
    let op = it.next().unwrap_or("");
    let mut num = |what: &str| -> Result<u64, ScriptError> {
        it.next()
            .and_then(|t| t.parse::<u64>().ok())
            .ok_or_else(|| bad_artifact(format!("bad {what} operand in {line:?}")))
    };
    let insn = match op {
        "burn" => Insn::Burn {
            n: num("n")? as u32,
            line: num("line")? as u32,
        },
        "const" => Insn::Const {
            dst: num("dst")? as u16,
            idx: num("idx")? as u16,
        },
        "load" => Insn::Load {
            dst: num("dst")? as u16,
            name: num("name")? as u16,
            slot: num("slot")? as u16,
            line: num("line")? as u32,
        },
        "store" => Insn::Store {
            name: num("name")? as u16,
            slot: num("slot")? as u16,
            src: num("src")? as u16,
        },
        "list" => Insn::MakeList {
            dst: num("dst")? as u16,
            base: num("base")? as u16,
            n: num("n")? as u16,
        },
        "dict" => Insn::NewDict {
            dst: num("dst")? as u16,
        },
        "dkey" => Insn::DictKey {
            reg: num("reg")? as u16,
            line: num("line")? as u32,
        },
        "dset" => Insn::DictSet {
            dict: num("dict")? as u16,
            key: num("key")? as u16,
            val: num("val")? as u16,
        },
        "bin" => {
            let name = it.next().unwrap_or("");
            let op =
                op_parse(name).ok_or_else(|| bad_artifact(format!("unknown operator {name:?}")))?;
            let mut num = |what: &str| -> Result<u64, ScriptError> {
                it.next()
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(|| bad_artifact(format!("bad {what} operand in {line:?}")))
            };
            Insn::Bin {
                op,
                dst: num("dst")? as u16,
                a: num("a")? as u16,
                b: num("b")? as u16,
                line: num("line")? as u32,
            }
        }
        "neg" => Insn::Neg {
            dst: num("dst")? as u16,
            src: num("src")? as u16,
            line: num("line")? as u32,
        },
        "not" => Insn::Not {
            dst: num("dst")? as u16,
            src: num("src")? as u16,
        },
        "jmp" => Insn::Jump {
            to: num("to")? as u32,
        },
        "jf" => Insn::JumpFalse {
            src: num("src")? as u16,
            to: num("to")? as u32,
        },
        "jt" => Insn::JumpTrue {
            src: num("src")? as u16,
            to: num("to")? as u32,
        },
        "geti" => Insn::GetIndex {
            dst: num("dst")? as u16,
            obj: num("obj")? as u16,
            key: num("key")? as u16,
            line: num("line")? as u32,
        },
        "seti" => Insn::SetIndex {
            obj: num("obj")? as u16,
            key: num("key")? as u16,
            src: num("src")? as u16,
            line: num("line")? as u32,
        },
        "slidx" => Insn::SliceIdx {
            reg: num("reg")? as u16,
            line: num("line")? as u32,
        },
        "slice" => Insn::Slice {
            dst: num("dst")? as u16,
            obj: num("obj")? as u16,
            lo: num("lo")? as u16,
            hi: num("hi")? as u16,
            line: num("line")? as u32,
        },
        _ => return parse_call_insn(op, line, &mut it),
    };
    Ok(insn)
}

/// The call, iterator, and terminator opcodes — second half of
/// [`parse_insn`], same operand conventions.
fn parse_call_insn(
    op: &str,
    line: &str,
    it: &mut std::str::Split<'_, char>,
) -> Result<Insn, ScriptError> {
    let mut num = |what: &str| -> Result<u64, ScriptError> {
        it.next()
            .and_then(|t| t.parse::<u64>().ok())
            .ok_or_else(|| bad_artifact(format!("bad {what} operand in {line:?}")))
    };
    let insn = match op {
        "calln" => Insn::CallName {
            dst: num("dst")? as u16,
            name: num("name")? as u16,
            slot: num("slot")? as u16,
            base: num("base")? as u16,
            argc: num("argc")? as u16,
            line: num("line")? as u32,
            cline: num("cline")? as u32,
        },
        "callv" => Insn::CallValue {
            dst: num("dst")? as u16,
            callee: num("callee")? as u16,
            base: num("base")? as u16,
            argc: num("argc")? as u16,
            line: num("line")? as u32,
        },
        "callm" => Insn::CallMethod {
            dst: num("dst")? as u16,
            obj: num("obj")? as u16,
            name: num("name")? as u16,
            base: num("base")? as u16,
            argc: num("argc")? as u16,
            line: num("line")? as u32,
        },
        "mkfn" => Insn::MakeFunc {
            dst: num("dst")? as u16,
            idx: num("idx")? as u16,
        },
        "iter" => Insn::IterNew {
            src: num("src")? as u16,
            line: num("line")? as u32,
        },
        "next" => Insn::IterNext {
            dst: num("dst")? as u16,
            done: num("done")? as u32,
        },
        "ipop" => Insn::IterPop,
        "bind" => Insn::Bind {
            src: num("src")? as u16,
            vars: num("vars")? as u16,
            line: num("line")? as u32,
        },
        "push" => Insn::Push {
            list: num("list")? as u16,
            src: num("src")? as u16,
        },
        "last" => Insn::SetLast {
            src: num("src")? as u16,
        },
        "ret" => Insn::Ret {
            src: num("src")? as u16,
        },
        "loopmis" => Insn::LoopMisuse {
            line: num("line")? as u32,
        },
        "halt" => Insn::Halt,
        other => return Err(bad_artifact(format!("unknown opcode {other:?}"))),
    };
    Ok(insn)
}

fn decode_body(body: &str) -> Result<CompiledProgram, ScriptError> {
    let mut lines = body.lines();
    let mut next = |what: &str| -> Result<&str, ScriptError> {
        lines
            .next()
            .ok_or_else(|| bad_artifact(format!("missing {what}")))
    };
    let version = next("version")?;
    if version != "version 2" {
        return Err(bad_artifact(format!("unsupported version {version:?}")));
    }
    fn counted(line: &str, key: &str) -> Result<usize, ScriptError> {
        line.strip_prefix(key)
            .and_then(|s| s.strip_prefix(' '))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad_artifact(format!("bad {key} header: {line:?}")))
    }
    let mut p = Pools::default();
    let n = counted(next("consts")?, "consts")?;
    for _ in 0..n {
        let line = next("const")?;
        let rest = line
            .strip_prefix("c ")
            .ok_or_else(|| bad_artifact(format!("bad const line {line:?}")))?;
        let c = match rest.split_once(' ') {
            Some(("i", v)) => Const::Int(
                v.parse()
                    .map_err(|_| bad_artifact(format!("bad int const {v:?}")))?,
            ),
            Some(("f", v)) => Const::Float(f64::from_bits(
                u64::from_str_radix(v, 16)
                    .map_err(|_| bad_artifact(format!("bad float const {v:?}")))?,
            )),
            Some(("s", v)) => Const::Str(
                unesc(v)
                    .map_err(|e| bad_artifact(format!("bad string const: {e:?}")))?
                    .into(),
            ),
            Some(("b", v)) => Const::Bool(v == "1"),
            None if rest == "n" => Const::None,
            _ => return Err(bad_artifact(format!("bad const line {line:?}"))),
        };
        p.consts.push(c);
    }
    let n = counted(next("names")?, "names")?;
    for _ in 0..n {
        let line = next("name")?;
        let raw = line
            .strip_prefix("n ")
            .ok_or_else(|| bad_artifact(format!("bad name line {line:?}")))?;
        p.names.push(
            unesc(raw)
                .map_err(|e| bad_artifact(format!("bad name: {e:?}")))?
                .into_owned(),
        );
    }
    let n = counted(next("vars")?, "vars")?;
    for _ in 0..n {
        let line = next("varlist")?;
        let mut it = line
            .strip_prefix("v ")
            .ok_or_else(|| bad_artifact(format!("bad varlist line {line:?}")))?
            .split(' ');
        let k: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad_artifact(format!("bad varlist count {line:?}")))?;
        let mut list = Vec::with_capacity(k);
        for _ in 0..k {
            let name: u16 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad_artifact(format!("bad varlist entry {line:?}")))?;
            let slot: u16 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad_artifact(format!("bad varlist entry {line:?}")))?;
            list.push((name, slot));
        }
        p.var_lists.push(list);
    }
    let n = counted(next("funcs")?, "funcs")?;
    for _ in 0..n {
        let header = next("func header")?;
        let rest = header
            .strip_prefix("func ")
            .ok_or_else(|| bad_artifact(format!("bad func header {header:?}")))?;
        let mut it = rest.splitn(5, ' ');
        let mut num = |what: &str| -> Result<usize, ScriptError> {
            it.next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad_artifact(format!("bad func {what} in {header:?}")))
        };
        let nparams = num("params")?;
        let nlocals = num("locals")?;
        let nregs = num("nregs")? as u16;
        let ncode = num("code count")?;
        let name = unesc(it.next().unwrap_or(""))
            .map_err(|e| bad_artifact(format!("bad func name: {e:?}")))?
            .into_owned();
        let mut locals = Vec::with_capacity(nlocals);
        for _ in 0..nlocals {
            let line = next("local")?;
            let raw = line
                .strip_prefix("l ")
                .ok_or_else(|| bad_artifact(format!("bad local line {line:?}")))?;
            locals.push(
                unesc(raw)
                    .map_err(|e| bad_artifact(format!("bad local: {e:?}")))?
                    .into_owned(),
            );
        }
        let code = (0..ncode)
            .map(|_| parse_insn(next("instruction")?))
            .collect::<Result<_, _>>()?;
        p.funcs.push(CompiledFn {
            name,
            params: locals[..nparams.min(locals.len())].to_vec(),
            locals,
            chunk: Chunk { code, nregs },
        });
    }
    let header = next("main header")?;
    let rest = header
        .strip_prefix("main ")
        .ok_or_else(|| bad_artifact(format!("bad main header {header:?}")))?;
    let (nregs, ncode) = rest
        .split_once(' ')
        .and_then(|(a, b)| Some((a.parse::<u16>().ok()?, b.parse::<usize>().ok()?)))
        .ok_or_else(|| bad_artifact(format!("bad main header {header:?}")))?;
    let code = (0..ncode)
        .map(|_| parse_insn(next("instruction")?))
        .collect::<Result<_, _>>()?;
    let mut p = CompiledProgram {
        pools: Arc::new(p),
        main: Chunk { code, nregs },
        bound: CostBound::unbounded_all(),
    };
    p.bound = decode_bound(&mut next)?;
    Ok(p)
}

fn parse_bound_token(tok: &str) -> Result<Bound, ScriptError> {
    if tok == "inf" {
        return Ok(Bound::Unbounded);
    }
    tok.parse()
        .map(Bound::Finite)
        .map_err(|_| bad_artifact(format!("bad bound value {tok:?}")))
}

/// Parses the version-2 bound section (exact round-trip of
/// [`CostBound`] as written by `body_text`).
fn decode_bound<'a>(
    next: &mut impl FnMut(&str) -> Result<&'a str, ScriptError>,
) -> Result<CostBound, ScriptError> {
    let line = next("bound header")?;
    let rest = line
        .strip_prefix("bound ")
        .ok_or_else(|| bad_artifact(format!("bad bound header {line:?}")))?;
    let mut unbounded = None;
    let mut open = None;
    let mut fuel = None;
    for tok in rest.split(' ') {
        match tok.split_once('=') {
            Some(("unbounded", v)) => unbounded = Some(v == "1"),
            Some(("open", v)) => open = Some(v == "1"),
            Some(("fuel", v)) => fuel = Some(parse_bound_token(v)?),
            _ => return Err(bad_artifact(format!("bad bound field {tok:?}"))),
        }
    }
    let (Some(unbounded), Some(open), Some(fuel)) = (unbounded, open, fuel) else {
        return Err(bad_artifact(format!("incomplete bound header {line:?}")));
    };
    let count = |line: &str, key: &str| -> Result<usize, ScriptError> {
        line.strip_prefix(key)
            .and_then(|s| s.strip_prefix(' '))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad_artifact(format!("bad {key} header: {line:?}")))
    };
    let n = count(next("bcalls")?, "bcalls")?;
    let mut calls = std::collections::BTreeMap::new();
    for _ in 0..n {
        let line = next("bound call")?;
        let rest = line
            .strip_prefix("bc ")
            .ok_or_else(|| bad_artifact(format!("bad bound call line {line:?}")))?;
        let (b, raw) = rest
            .split_once(' ')
            .ok_or_else(|| bad_artifact(format!("bad bound call line {line:?}")))?;
        let name = unesc(raw)
            .map_err(|e| bad_artifact(format!("bad bound call name: {e:?}")))?
            .into_owned();
        calls.insert(name, parse_bound_token(b)?);
    }
    let n = count(next("busd")?, "busd")?;
    let mut usd = std::collections::BTreeMap::new();
    for _ in 0..n {
        let line = next("bound usd")?;
        let rest = line
            .strip_prefix("bu ")
            .ok_or_else(|| bad_artifact(format!("bad bound usd line {line:?}")))?;
        let (model, bits) = rest
            .split_once(' ')
            .ok_or_else(|| bad_artifact(format!("bad bound usd line {line:?}")))?;
        let tier = ModelId::parse(model)
            .ok_or_else(|| bad_artifact(format!("unknown model tier {model:?}")))?;
        let value = f64::from_bits(
            u64::from_str_radix(bits, 16)
                .map_err(|_| bad_artifact(format!("bad bound usd bits {bits:?}")))?,
        );
        usd.insert(tier, value);
    }
    Ok(CostBound {
        fuel_max: fuel,
        calls_per_tool: calls,
        calls_open: open,
        usd_max_per_tier: usd,
        unbounded,
    })
}

/// Compiles a parsed program.
pub fn compile(program: &Program) -> Result<CompiledProgram, ScriptError> {
    let mut c = Compiler::default();
    let main = c.compile_chunk(&program.body, None)?;
    let mut p = CompiledProgram {
        pools: Arc::new(Pools {
            consts: c.consts,
            names: c.names,
            var_lists: c.var_lists,
            funcs: c.funcs,
        }),
        main,
        bound: CostBound::unbounded_all(),
    };
    p.bound = bounds::analyze(&p);
    Ok(p)
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
    match &e.kind {
        ExprKind::ListComp {
            element,
            vars,
            iterable,
            condition,
        } => {
            for v in vars {
                if !out.iter().any(|n| n == v) {
                    out.push(v.clone());
                }
            }
            comp_vars(element, out);
            comp_vars(iterable, out);
            if let Some(c) = condition {
                comp_vars(c, out);
            }
        }
        ExprKind::Binary(_, a, b) => {
            comp_vars(a, out);
            comp_vars(b, out);
        }
        ExprKind::Unary(_, a) => comp_vars(a, out),
        ExprKind::Call(callee, args) => {
            comp_vars(callee, out);
            for a in args {
                comp_vars(a, out);
            }
        }
        ExprKind::MethodCall(obj, _, args) => {
            comp_vars(obj, out);
            for a in args {
                comp_vars(a, out);
            }
        }
        ExprKind::Index(o, k) => {
            comp_vars(o, out);
            comp_vars(k, out);
        }
        ExprKind::Slice(o, lo, hi) => {
            comp_vars(o, out);
            if let Some(b) = lo {
                comp_vars(b, out);
            }
            if let Some(b) = hi {
                comp_vars(b, out);
            }
        }
        ExprKind::List(items) => {
            for i in items {
                comp_vars(i, out);
            }
        }
        ExprKind::Dict(pairs) => {
            for (k, v) in pairs {
                comp_vars(k, out);
                comp_vars(v, out);
            }
        }
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::None
        | ExprKind::Name(_) => {}
    }
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
