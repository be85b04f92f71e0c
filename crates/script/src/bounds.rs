//! The Pyrite dataflow analysis over compiled bytecode, and the static
//! cost bound it yields.
//!
//! The paper treats LLM spend as a first-class, optimizable resource:
//! an analytics runtime should know what a plan *can* cost before it
//! runs it. This module is the one abstract interpreter over
//! [`crate::bytecode`] instruction streams. One fixpoint per chunk
//! computes an abstract state at every block entry; the front-end check
//! ([`crate::types`]) reads its verdict off those states, and this module
//! reads a sound [`CostBound`] off them:
//!
//! * **`fuel_max`** — an upper bound on the fuel a completing run can
//!   charge. Fuel is charged only by explicit [`Insn::Burn`]
//!   instructions plus one dynamic unit per `CallName` that falls
//!   through to callee-value resolution; the analysis charges every
//!   `CallName` that may reach user code the extra unit, so the bound
//!   over-approximates both paths.
//! * **`calls_per_tool`** — per-name worst-case counts of external
//!   (host-function / builtin) calls, from the call graph and loop trip
//!   bounds.
//! * **`usd_max_per_tier`** — dollars, per model tier, assuming every
//!   billable tool call bills at most the
//!   [`TOOL_CALL_MAX_INPUT_TOKENS`]/[`TOOL_CALL_MAX_OUTPUT_TOKENS`]
//!   token envelope.
//!
//! **Soundness contract.** The analysis runs against a [`TypeEnv`]: the
//! tool signatures and the globals bound when the run starts
//! ([`analyze`] uses the empty one, a fresh interpreter). For every run
//! that starts in that environment and completes, actual fuel ≤
//! `fuel_max`, actual per-tool calls ≤ the per-tool bound, and billed
//! dollars ≤ `usd_max` for the executing tier. A bound for one
//! environment promises nothing for another: a global the environment
//! leaves unbound makes every read of it fault, which is all the bound
//! may assume. Programs the analysis cannot bound degrade to `unbounded`
//! — never a wrong finite number. Error paths need no bound: a program
//! that faults did not complete. One documented environment assumption:
//! the host-function set does not shadow builtin names (`range`, `len`,
//! …); the VM resolves host functions first, so a tool named `range`
//! could invalidate trip counts. Callers that know the tool registry
//! (the agents runtime does) degrade the bound to unbounded on a
//! collision.
//!
//! **How it works.**
//! 1. Basic blocks and a CFG per chunk. Loops are read off the back
//!    edges: the compiler emits each loop as one block range `[top, Jump
//!    top]` (`continue` and a comprehension filter also jump to `top`,
//!    every other jump goes forward), so a reachable block jumping to a
//!    block at or before it is a latch of the loop that block heads. A
//!    chunk whose ranges do not nest, or where an edge enters a range
//!    anywhere but its header, bails to unbounded (the compiler emits
//!    neither).
//! 2. Dataflow with widening at loop headers, over one lattice of
//!    abstract values that each know their type (`AbsVal::ty`):
//!    integer intervals, string/list/dict length intervals, function-value
//!    sets, and bare bools, floats and `None`. A result's type is the
//!    one the VM's kernel yields for its operands' types. Main's globals
//!    start as the environment binds them; function chunks read globals
//!    as unknown (a later program may rebind any), except that names
//!    bound only to functions keep their function set. Any call havocs
//!    list/dict lengths (values are `Rc`-shared and mutable through
//!    aliases); string lengths and rebindings survive — callees cannot
//!    rebind globals.
//! 3. Loop trip bounds, over each loop's natural body (the blocks of its
//!    range that reach a latch without passing the header; a `break` or
//!    `return` block leaves it): `for` loops are bounded by the iterable's
//!    length interval at `IterNew` (iteration snapshots the sequence);
//!    counted `while` loops match the compiler's shape — a single-block
//!    `v < K` / `v <= K` header whose every in-loop store to `v` is a
//!    positive constant increment on every path to every latch — and
//!    bound trips by `ceil((K_hi − v_lo) / c_min)`.
//! 4. Per-chunk usage: loops collapse innermost-first into super-nodes
//!    costing `(trips + 1) × max-path-through-body`. Once a loop's inner
//!    loops are collapsed every edge but its back edges goes forward, so
//!    the longest-path DP (paths joined by pointwise max) walks blocks in
//!    pc order, through each body and then the whole chunk. Function
//!    summaries compose bottom-up over the call graph; recursion (an
//!    SCC) and indirect calls through unknown values are unbounded.

use crate::ast::BinOp;
use crate::bytecode::{Chunk, CompiledProgram, Const, Insn, NO_REG};
use crate::types::{self, builtin, Ty, TypeEnv};
use aida_llm::models::{ModelCatalog, ModelId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

/// Per-tool-call billing envelope: input tokens. A bound's dollar
/// figures hold for runtimes whose per-call billing never exceeds this
/// envelope (the simulated tool harness bills well under it).
const TOOL_CALL_MAX_INPUT_TOKENS: usize = 4096;

/// Per-tool-call billing envelope: output tokens.
const TOOL_CALL_MAX_OUTPUT_TOKENS: usize = 1024;

/// The maximum dollars one billable tool call can cost at `tier`,
/// under the token envelope above.
fn usd_per_tool_call(catalog: &ModelCatalog, tier: ModelId) -> f64 {
    catalog
        .spec(tier)
        .cost(TOOL_CALL_MAX_INPUT_TOKENS, TOOL_CALL_MAX_OUTPUT_TOKENS)
}

// ---------------------------------------------------------------------------
// Bound arithmetic
// ---------------------------------------------------------------------------

/// A worst-case count: a finite value or provably-unboundable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bound {
    /// At most this many.
    Finite(u64),
    /// No finite bound could be established.
    Unbounded,
}

impl Bound {
    /// Saturating addition; `Unbounded` absorbs.
    #[allow(clippy::should_implement_trait)] // not `Add`: absorbing, not a group op
    pub fn add(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_add(b)),
            _ => Bound::Unbounded,
        }
    }

    /// Saturating multiplication; `Unbounded × 0 = 0` (a loop that uses
    /// nothing costs nothing no matter how often it spins).
    #[allow(clippy::should_implement_trait)] // not `Mul`: see the 0-absorption rule
    fn mul(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(0), _) | (_, Bound::Finite(0)) => Bound::Finite(0),
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_mul(b)),
            _ => Bound::Unbounded,
        }
    }

    /// The larger bound (`Unbounded` dominates).
    pub fn max(self, other: Bound) -> Bound {
        std::cmp::max(self, other)
    }

    /// True for `Finite`.
    pub fn is_finite(self) -> bool {
        matches!(self, Bound::Finite(_))
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "{n}"),
            Bound::Unbounded => write!(f, "inf"),
        }
    }
}

/// A sound static cost bound for one compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBound {
    /// Upper bound on fuel charged by any completing run.
    pub fuel_max: Bound,
    /// Worst-case external-call counts per callee name (host functions
    /// *and* builtins — the VM resolves host functions first, so any
    /// external name may reach a tool).
    pub calls_per_tool: BTreeMap<String, Bound>,
    /// When true, the callable-name set itself is unknown (an indirect
    /// call through an unknown value): any tool may be called any
    /// number of times, and `calls_per_tool` is only a partial view.
    pub calls_open: bool,
    /// Worst-case dollars per model tier over billable (non-builtin)
    /// calls; `f64::INFINITY` when no finite bound exists.
    pub usd_max_per_tier: BTreeMap<ModelId, f64>,
    /// True when any dimension (fuel, a call count, or the call set)
    /// has no finite bound.
    pub unbounded: bool,
}

impl Default for CostBound {
    fn default() -> Self {
        CostBound::unbounded_all()
    }
}

impl CostBound {
    /// The fully-degraded bound: nothing is known.
    pub fn unbounded_all() -> CostBound {
        let usd = ModelId::ALL
            .iter()
            .map(|&tier| (tier, f64::INFINITY))
            .collect();
        CostBound {
            fuel_max: Bound::Unbounded,
            calls_per_tool: BTreeMap::new(),
            calls_open: true,
            usd_max_per_tier: usd,
            unbounded: true,
        }
    }

    /// Worst-case dollars when executing at `tier`.
    pub fn usd_max(&self, tier: ModelId) -> f64 {
        self.usd_max_per_tier
            .get(&tier)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Worst-case dollars over every tier (the conservative gate
    /// figure when the executing tier is unknown at admission).
    fn worst_usd_max(&self) -> f64 {
        self.usd_max_per_tier
            .values()
            .fold(0.0_f64, |acc, &v| acc.max(v))
    }

    /// One-line human rendering (EXPLAIN ANALYZE, reports): the
    /// [`Display`](std::fmt::Display) text.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Builds the tier price map (and `unbounded` flag) from the call
    /// counts: billable = every non-builtin external name.
    fn finish(fuel: Bound, calls: BTreeMap<String, Bound>, open: bool) -> CostBound {
        let catalog = ModelCatalog::default();
        let mut usd = BTreeMap::new();
        let mut any_unbounded = open || !fuel.is_finite();
        for &tier in ModelId::ALL.iter() {
            let per_call = usd_per_tool_call(&catalog, tier);
            let mut total = 0.0_f64;
            for (name, bound) in &calls {
                // Builtin calls are counted (a host function may legally
                // shadow one) but never billed.
                if builtin(name).is_some() {
                    continue;
                }
                match bound {
                    Bound::Finite(n) => total += (*n as f64) * per_call,
                    Bound::Unbounded => total = f64::INFINITY,
                }
            }
            if open {
                total = f64::INFINITY;
            }
            usd.insert(tier, total);
        }
        any_unbounded |= calls.values().any(|b| !b.is_finite());
        CostBound {
            fuel_max: fuel,
            calls_per_tool: calls,
            calls_open: open,
            usd_max_per_tier: usd,
            unbounded: any_unbounded,
        }
    }
}

impl std::fmt::Display for CostBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.calls_open {
            return f.write_str("fuel<=inf calls=open usd<=inf");
        }
        write!(f, "fuel<={} calls=[", self.fuel_max)?;
        for (i, (name, bound)) in self.calls_per_tool.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{name}<={bound}")?;
        }
        let usd = self.worst_usd_max();
        if usd.is_finite() {
            write!(f, "] usd<=${usd:.4}")
        } else {
            f.write_str("] usd<=$inf")
        }
    }
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// Interval infinity sentinels. Concrete Pyrite ints are `i64`, so the
/// `i128` sentinels can never be produced by saturating arithmetic on
/// finite inputs within the widening-bounded number of steps.
const IPOS: i128 = i128::MAX;
const INEG: i128 = i128::MIN;
/// Length infinity sentinel.
const LINF: u64 = u64::MAX;

/// One abstract value. Every value but `Bottom` and `Top` has a kind,
/// and the kind is the value's static type ([`AbsVal::ty`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AbsVal {
    /// Unreachable / no value.
    Bottom,
    /// Integer in `[lo, hi]`.
    Int { lo: i128, hi: i128 },
    /// A bool.
    Bool,
    /// A float.
    Float,
    /// `None`.
    NoneVal,
    /// Immutable string with `[lo, hi]` chars (iteration/`len` count).
    StrLen { lo: u64, hi: u64 },
    /// List with `[lo, hi]` elements. Mutable through aliases: any
    /// call or index-store havocs the upper bound.
    ListLen { lo: u64, hi: u64 },
    /// Dict with `[lo, hi]` keys (same aliasing caveat).
    DictLen { lo: u64, hi: u64 },
    /// A user function value: one of these compiled-function indices.
    Funcs(BTreeSet<u16>),
    /// Anything.
    Top,
}

use AbsVal::*;

impl AbsVal {
    /// The static type: the value's kind, `Ty::Any` when unknown.
    pub(crate) fn ty(&self) -> Ty {
        match self {
            Bottom | Top => Ty::Any,
            Int { .. } => Ty::Int,
            Bool => Ty::Bool,
            Float => Ty::Float,
            NoneVal => Ty::None,
            StrLen { .. } => Ty::Str,
            ListLen { .. } => Ty::List,
            DictLen { .. } => Ty::Dict,
            Funcs(_) => Ty::Func,
        }
    }

    /// The same kind of sized value with length `[lo, hi]`.
    fn with_len(&self, lo: u64, hi: u64) -> AbsVal {
        match self {
            StrLen { .. } => StrLen { lo, hi },
            ListLen { .. } => ListLen { lo, hi },
            DictLen { .. } => DictLen { lo, hi },
            other => other.clone(),
        }
    }

    /// The least-informative value of type `ty` (any int, any length).
    fn of_ty(ty: Ty) -> AbsVal {
        match ty {
            Ty::Int => Int { lo: INEG, hi: IPOS },
            Ty::Bool => Bool,
            Ty::Float => Float,
            Ty::None => NoneVal,
            Ty::Str => StrLen { lo: 0, hi: LINF },
            Ty::List => ListLen { lo: 0, hi: LINF },
            Ty::Dict => DictLen { lo: 0, hi: LINF },
            // A function value of unknown identity could be anything.
            Ty::Func | Ty::Any => Top,
        }
    }
}

fn ladd(a: u64, b: u64) -> u64 {
    if a == LINF {
        LINF
    } else {
        a.saturating_add(b)
    }
}

fn iadd(a: i128, b: i128) -> i128 {
    if a == IPOS || b == IPOS {
        IPOS
    } else if a == INEG || b == INEG {
        INEG
    } else {
        a.saturating_add(b)
    }
}

fn isub(a: i128, b: i128) -> i128 {
    if a == IPOS || b == INEG {
        IPOS
    } else if a == INEG || b == IPOS {
        INEG
    } else {
        a.saturating_sub(b)
    }
}

/// Signed product with infinity sentinels (`0 × ∞ = 0`).
fn imul(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let inf_a = a == IPOS || a == INEG;
    let inf_b = b == IPOS || b == INEG;
    if inf_a || inf_b {
        let negative = (a < 0) != (b < 0);
        return if negative { INEG } else { IPOS };
    }
    a.saturating_mul(b)
}

fn join(a: &AbsVal, b: &AbsVal) -> AbsVal {
    match (a, b) {
        (Bottom, x) | (x, Bottom) => x.clone(),
        (Int { lo: al, hi: ah }, Int { lo: bl, hi: bh }) => Int {
            lo: *al.min(bl),
            hi: *ah.max(bh),
        },
        (StrLen { lo: al, hi: ah }, StrLen { lo: bl, hi: bh })
        | (ListLen { lo: al, hi: ah }, ListLen { lo: bl, hi: bh })
        | (DictLen { lo: al, hi: ah }, DictLen { lo: bl, hi: bh }) => {
            a.with_len(*al.min(bl), *ah.max(bh))
        }
        (Funcs(s1), Funcs(s2)) => Funcs(s1.union(s2).copied().collect()),
        (Bool, Bool) => Bool,
        (Float, Float) => Float,
        (NoneVal, NoneVal) => NoneVal,
        _ => Top,
    }
}

/// Widening: keep stable bounds, blow moving ones to infinity so loop
/// fixpoints converge in a bounded number of sweeps.
fn widen(old: &AbsVal, new: &AbsVal) -> AbsVal {
    let joined = join(old, new);
    match (old, &joined) {
        (Int { lo: ol, hi: oh }, Int { lo: jl, hi: jh }) => Int {
            lo: if jl < ol { INEG } else { *jl },
            hi: if jh > oh { IPOS } else { *jh },
        },
        (StrLen { lo: ol, hi: oh }, StrLen { lo: jl, hi: jh })
        | (ListLen { lo: ol, hi: oh }, ListLen { lo: jl, hi: jh })
        | (DictLen { lo: ol, hi: oh }, DictLen { lo: jl, hi: jh }) => joined.with_len(
            if jl < ol { 0 } else { *jl },
            if jh > oh { LINF } else { *jh },
        ),
        _ => joined,
    }
}

/// The length interval of an iterable abstraction, if it has one.
fn len_of(v: &AbsVal) -> Option<(u64, u64)> {
    match v {
        StrLen { lo, hi } | ListLen { lo, hi } | DictLen { lo, hi } => Some((*lo, *hi)),
        _ => None,
    }
}

/// A variable binding: the abstract value plus whether the slot may be
/// unset at runtime (falling through to globals / a name error). A
/// `Bottom` value with `maybe_unset` is a binding no path has assigned.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Binding {
    pub(crate) val: AbsVal,
    pub(crate) maybe_unset: bool,
}

impl Binding {
    fn unset() -> Binding {
        Binding {
            val: Bottom,
            maybe_unset: true,
        }
    }

    fn set(val: AbsVal) -> Binding {
        Binding {
            val,
            maybe_unset: false,
        }
    }

    fn join(&self, other: &Binding) -> Binding {
        Binding {
            val: join(&self.val, &other.val),
            maybe_unset: self.maybe_unset || other.maybe_unset,
        }
    }

    fn widen(&self, other: &Binding) -> Binding {
        Binding {
            val: widen(&self.val, &other.val),
            maybe_unset: self.maybe_unset || other.maybe_unset,
        }
    }
}

/// Dataflow state at one program point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct State {
    /// False once execution provably faults (error paths never
    /// complete, so nothing downstream needs a bound).
    pub(crate) live: bool,
    pub(crate) regs: Vec<AbsVal>,
    /// Function chunks: slot-indexed locals. Empty for main.
    pub(crate) locals: Vec<Binding>,
    /// Main chunk: flow-sensitive globals by name index. Empty for
    /// function chunks (which read the immutable entry summary).
    pub(crate) globals: Vec<Binding>,
    /// The element of each open `for` iterator, innermost last.
    iters: Vec<AbsVal>,
}

impl State {
    /// Every register and variable value.
    fn values_mut(&mut self) -> impl Iterator<Item = &mut AbsVal> {
        let vars = self.locals.iter_mut().chain(&mut self.globals);
        self.regs.iter_mut().chain(vars.map(|b| &mut b.val))
    }

    fn join_into(&mut self, other: &State, widen_point: bool) -> bool {
        if !other.live {
            return false;
        }
        if !self.live {
            *self = other.clone();
            return true;
        }
        let val = |a: &AbsVal, b: &AbsVal| if widen_point { widen(a, b) } else { join(a, b) };
        let bind = |a: &Binding, b: &Binding| if widen_point { a.widen(b) } else { a.join(b) };
        merge(&mut self.regs, &other.regs, val)
            | merge(&mut self.locals, &other.locals, bind)
            | merge(&mut self.globals, &other.globals, bind)
            | merge(&mut self.iters, &other.iters, join)
    }
}

/// Merges `b` into `a` pointwise through `f`; true when `a` changed.
fn merge<T: PartialEq>(a: &mut [T], b: &[T], f: impl Fn(&T, &T) -> T) -> bool {
    let mut changed = false;
    for (x, y) in a.iter_mut().zip(b) {
        let next = f(x, y);
        if next != *x {
            *x = next;
            changed = true;
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Instruction index range `[start, end)`.
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) succs: Vec<usize>,
}

/// True when the instruction ends a basic block.
fn is_terminator(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Jump { .. }
            | Insn::JumpFalse { .. }
            | Insn::JumpTrue { .. }
            | Insn::IterNext { .. }
            | Insn::Ret { .. }
            | Insn::Halt
            | Insn::LoopMisuse { .. }
    )
}

fn jump_targets(insn: &Insn) -> Vec<usize> {
    match insn {
        Insn::Jump { to } => vec![*to as usize],
        Insn::JumpFalse { to, .. } | Insn::JumpTrue { to, .. } => vec![*to as usize],
        Insn::IterNext { done, .. } => vec![*done as usize],
        _ => Vec::new(),
    }
}

/// Splits a chunk into basic blocks with successor edges.
fn build_blocks(chunk: &Chunk) -> Vec<Block> {
    let code = &chunk.code;
    let mut leaders: BTreeSet<usize> = BTreeSet::new();
    leaders.insert(0);
    for (i, insn) in code.iter().enumerate() {
        for t in jump_targets(insn) {
            leaders.insert(t);
        }
        if is_terminator(insn) && i + 1 < code.len() {
            leaders.insert(i + 1);
        }
    }
    let starts: Vec<usize> = leaders.into_iter().filter(|&s| s < code.len()).collect();
    let index_of: HashMap<usize, usize> = starts.iter().enumerate().map(|(b, &s)| (s, b)).collect();
    let mut blocks = Vec::with_capacity(starts.len());
    for (b, &start) in starts.iter().enumerate() {
        let end = starts.get(b + 1).copied().unwrap_or(code.len());
        let last = &code[end - 1];
        let mut succs = Vec::new();
        match last {
            Insn::Ret { .. } | Insn::Halt | Insn::LoopMisuse { .. } => {}
            Insn::Jump { to } => succs.push(index_of[&(*to as usize)]),
            Insn::JumpFalse { to, .. } | Insn::JumpTrue { to, .. } => {
                if end < code.len() {
                    succs.push(index_of[&end]);
                }
                succs.push(index_of[&(*to as usize)]);
            }
            Insn::IterNext { done, .. } => {
                if end < code.len() {
                    succs.push(index_of[&end]);
                }
                succs.push(index_of[&(*done as usize)]);
            }
            _ => {
                if end < code.len() {
                    succs.push(index_of[&end]);
                }
            }
        }
        succs.dedup();
        blocks.push(Block { start, end, succs });
    }
    blocks
}

fn predecessors(blocks: &[Block]) -> Vec<Vec<usize>> {
    let mut preds = vec![Vec::new(); blocks.len()];
    for (b, blk) in blocks.iter().enumerate() {
        for &s in &blk.succs {
            preds[s].push(b);
        }
    }
    preds
}

/// Reverse postorder from block 0 (unreachable blocks excluded): the
/// fixpoint's worklist priority, and which blocks a run can reach.
fn reverse_postorder(blocks: &[Block]) -> Vec<usize> {
    let mut seen = vec![false; blocks.len()];
    let mut post = Vec::new();
    // Iterative DFS with an explicit frame stack.
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    seen[0] = true;
    while let Some(frame) = stack.last_mut() {
        let node = frame.0;
        if frame.1 < blocks[node].succs.len() {
            let s = blocks[node].succs[frame.1];
            frame.1 += 1;
            if !seen[s] {
                seen[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(node);
            stack.pop();
        }
    }
    post.reverse();
    post
}

#[derive(Debug, Clone)]
pub(crate) struct Loop {
    pub(crate) header: usize,
    /// The natural loop: the header and every block of the range that
    /// reaches a latch without passing it.
    pub(crate) body: BTreeSet<usize>,
    latches: Vec<usize>,
}

/// The loops of a chunk, read off its back edges. The compiler emits
/// every loop as one block range `[top, Jump top]`, so a jump from a
/// reachable block to a block at or before it is a back edge: its block
/// is a latch of the loop headed by the target. `None` when the ranges
/// from header to last latch do not nest, or an edge enters one anywhere
/// but its header (the compiler emits neither).
fn read_loops(blocks: &[Block], rpo_pos: &[usize], preds: &[Vec<usize>]) -> Option<Vec<Loop>> {
    let reachable = |b: usize| rpo_pos[b] != usize::MAX;
    let mut latches: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for u in (0..blocks.len()).filter(|&u| reachable(u)) {
        for &v in blocks[u].succs.iter().filter(|&&v| v <= u) {
            latches.entry(v).or_default().push(u);
        }
    }
    let ranges: Vec<(usize, usize)> = (latches.iter())
        .map(|(&header, ls)| (header, ls[ls.len() - 1]))
        .collect();
    for &(header, last) in &ranges {
        let within = |b: usize| header <= b && b <= last;
        let crosses = ranges.iter().any(|&(h, l)| within(h) && !within(l));
        let enters = (blocks.iter().enumerate())
            .any(|(u, blk)| !within(u) && blk.succs.iter().any(|&v| v != header && within(v)));
        if crosses || enters {
            return None;
        }
    }
    // A block that only leaves the loop (a `break`, a `return`) is in its
    // range but not its body: it runs once, not once per trip.
    let loops = (latches.into_iter()).map(|(header, latches)| {
        let mut body = BTreeSet::from([header]);
        let mut stack = latches.clone();
        while let Some(n) = stack.pop() {
            if body.insert(n) {
                stack.extend(preds[n].iter().filter(|&&p| reachable(p)));
            }
        }
        Loop {
            header,
            body,
            latches,
        }
    });
    Some(loops.collect())
}

// ---------------------------------------------------------------------------
// Per-chunk abstract interpretation
// ---------------------------------------------------------------------------

/// Immutable context shared by the transfer function.
pub(crate) struct ChunkCx<'p> {
    pub(crate) program: &'p CompiledProgram,
    pub(crate) env: &'p TypeEnv,
    pub(crate) is_main: bool,
    /// Entry global environment (function chunks only).
    genv: Rc<[Binding]>,
}

impl<'p> ChunkCx<'p> {
    pub(crate) fn name(&self, ix: u16) -> &'p str {
        &self.program.pools.names[ix as usize]
    }

    /// The global binding visible at this point.
    pub(crate) fn global<'s>(&'s self, st: &'s State, name: u16) -> &'s Binding {
        if self.is_main {
            &st.globals[name as usize]
        } else {
            &self.genv[name as usize]
        }
    }

    /// Composite local-then-global resolution, mirroring the VM's
    /// `Load`/`CallName` fallthrough.
    pub(crate) fn binding_of(&self, st: &State, name: u16, slot: u16) -> Binding {
        if slot != NO_REG && !self.is_main {
            let l = &st.locals[slot as usize];
            if !l.maybe_unset {
                return l.clone();
            }
            let g = self.global(st, name);
            return Binding {
                val: join(&l.val, &g.val),
                maybe_unset: g.maybe_unset,
            };
        }
        self.global(st, name).clone()
    }
}

fn abs_const(c: &Const) -> AbsVal {
    match c {
        Const::Int(v) => Int {
            lo: *v as i128,
            hi: *v as i128,
        },
        Const::Bool(_) => Bool,
        Const::Str(s) => {
            let n = s.chars().count() as u64;
            StrLen { lo: n, hi: n }
        }
        Const::Float(_) => Float,
        Const::None => NoneVal,
    }
}

/// Any call may mutate lists/dicts through `Rc` aliases; lengths lose
/// their upper bounds. Strings are immutable and survive.
fn havoc_mutables(st: &mut State) {
    for v in st.values_mut() {
        if let ListLen { lo, hi } | DictLen { lo, hi } = v {
            (*lo, *hi) = (0, LINF);
        }
    }
}

/// Index stores can only grow dict key sets (list lengths are stable).
fn bump_dicts(st: &mut State) {
    for v in st.values_mut() {
        if let DictLen { hi, .. } = v {
            *hi = ladd(*hi, 1);
        }
    }
}

fn abs_bin(op: BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    match op {
        BinOp::Add => match (a, b) {
            (Int { lo: al, hi: ah }, Int { lo: bl, hi: bh }) => Int {
                lo: iadd(*al, *bl),
                hi: iadd(*ah, *bh),
            },
            (StrLen { lo: al, hi: ah }, StrLen { lo: bl, hi: bh })
            | (ListLen { lo: al, hi: ah }, ListLen { lo: bl, hi: bh }) => {
                a.with_len(ladd(*al, *bl), ladd(*ah, *bh))
            }
            _ => Top,
        },
        BinOp::Sub => match (a, b) {
            (Int { lo: al, hi: ah }, Int { lo: bl, hi: bh }) => Int {
                lo: isub(*al, *bh),
                hi: isub(*ah, *bl),
            },
            _ => Top,
        },
        BinOp::Mul => match (a, b) {
            (Int { lo: al, hi: ah }, Int { lo: bl, hi: bh }) => {
                let products = [
                    imul(*al, *bl),
                    imul(*al, *bh),
                    imul(*ah, *bl),
                    imul(*ah, *bh),
                ];
                Int {
                    lo: *products.iter().min().expect("non-empty"),
                    hi: *products.iter().max().expect("non-empty"),
                }
            }
            _ => Top,
        },
        _ => Top,
    }
}

/// The abstract result of a binary operator: the interval and length
/// rules of [`abs_bin`] where they apply, else the least-informative
/// value of the type the VM's kernel yields for the operand types.
fn bin_result(op: BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    match abs_bin(op, a, b) {
        Top => match types::bin_type(op, a.ty(), b.ty()) {
            Some(Ok(ty)) => AbsVal::of_ty(ty),
            _ => Top,
        },
        v => v,
    }
}

/// Result abstraction for a definitely-external call that resolves to
/// a builtin (under the documented no-shadowing assumption).
fn abs_builtin(name: &str, args: &[AbsVal]) -> AbsVal {
    match name {
        "range" => {
            let clamp = |v: i128| -> u64 {
                if v <= 0 {
                    0
                } else if v >= LINF as i128 {
                    LINF
                } else {
                    v as u64
                }
            };
            match args {
                [Int { lo, hi }] => ListLen {
                    lo: clamp(*lo),
                    hi: clamp(*hi),
                },
                [Int { lo: sl, hi: sh }, Int { lo: el, hi: eh }] => ListLen {
                    lo: clamp(isub(*el, *sh)),
                    hi: clamp(isub(*eh, *sl)),
                },
                // Unknown step sign or non-constant args: unknown size.
                _ => ListLen { lo: 0, hi: LINF },
            }
        }
        "len" => match args.first().and_then(len_of) {
            Some((lo, hi)) => Int {
                lo: lo as i128,
                hi: if hi == LINF { IPOS } else { hi as i128 },
            },
            None => Top,
        },
        "sorted" | "enumerate" => match args.first() {
            Some(ListLen { lo, hi }) => ListLen { lo: *lo, hi: *hi },
            _ => ListLen { lo: 0, hi: LINF },
        },
        "str" => StrLen { lo: 0, hi: LINF },
        "abs" => match args.first() {
            Some(Int { lo, hi }) => {
                if *lo == INEG || *hi == IPOS {
                    Int { lo: 0, hi: IPOS }
                } else {
                    let (l, h) = (lo.abs(), hi.abs());
                    Int {
                        lo: if *lo <= 0 && *hi >= 0 { 0 } else { l.min(h) },
                        hi: l.max(h),
                    }
                }
            }
            _ => Top,
        },
        _ => builtin(name).map_or(Top, AbsVal::of_ty),
    }
}

/// What a call to host tool `name` returns: its signature's return type
/// when the environment registers a checked signature, else unknown.
fn tool_return(env: &TypeEnv, name: &str) -> AbsVal {
    match env.tools.get(name) {
        Some(sig) if !env.unchecked.contains(name) => AbsVal::of_ty(sig.ret),
        _ => Top,
    }
}

/// How one call site resolves, for both dataflow and usage accounting.
enum CallKind {
    /// Definitely host-or-builtin (never shadowed here).
    External,
    /// May be external (unset path) and/or these user functions.
    User {
        funcs: BTreeSet<u16>,
        also_external: bool,
    },
    /// Callee value unknown: could be anything, including a foreign
    /// function value.
    Open,
    /// Definitely a non-callable value: a type error, never completes.
    Error,
}

fn classify_callee(b: &Binding) -> CallKind {
    match &b.val {
        Bottom => CallKind::External,
        Funcs(s) => CallKind::User {
            funcs: s.clone(),
            also_external: b.maybe_unset,
        },
        Top => CallKind::Open,
        Int { .. } | Bool | Float | NoneVal | StrLen { .. } | ListLen { .. } | DictLen { .. } => {
            if b.maybe_unset {
                CallKind::User {
                    funcs: BTreeSet::new(),
                    also_external: true,
                }
            } else {
                CallKind::Error
            }
        }
    }
}

/// Phase-A transfer for one instruction (dataflow only; usage is
/// accounted separately in [`block_usage`]).
pub(crate) fn transfer(cx: &ChunkCx, st: &mut State, insn: &Insn) {
    if !st.live {
        return;
    }
    match insn {
        Insn::Burn { .. }
        | Insn::DictKey { .. }
        | Insn::Jump { .. }
        | Insn::JumpFalse { .. }
        | Insn::JumpTrue { .. }
        | Insn::SetLast { .. }
        | Insn::Ret { .. }
        | Insn::Halt => {}
        Insn::LoopMisuse { .. } => st.live = false,
        Insn::Const { dst, idx } => {
            st.regs[*dst as usize] = abs_const(&cx.program.pools.consts[*idx as usize]);
        }
        Insn::Load {
            dst, name, slot, ..
        } => {
            let b = cx.binding_of(st, *name, *slot);
            if b.val != Bottom {
                st.regs[*dst as usize] = b.val;
            } else if cx.is_main {
                // No path binds this name: the load always faults.
                st.live = false;
            } else {
                // A function reads globals as they are at call time,
                // which a later program may have bound.
                st.regs[*dst as usize] = Top;
            }
        }
        Insn::Store { name, slot, src } => {
            let val = st.regs[*src as usize].clone();
            if *slot != NO_REG && !cx.is_main {
                st.locals[*slot as usize] = Binding::set(val);
            } else {
                st.globals[*name as usize] = Binding::set(val);
            }
        }
        Insn::MakeList { dst, n, .. } => {
            st.regs[*dst as usize] = ListLen {
                lo: *n as u64,
                hi: *n as u64,
            };
        }
        Insn::NewDict { dst } => {
            st.regs[*dst as usize] = DictLen { lo: 0, hi: 0 };
        }
        Insn::DictSet { dict, .. } => {
            // Fresh dict literal target (VM invariant): insert may add
            // one key or overwrite.
            if let DictLen { hi, .. } = &mut st.regs[*dict as usize] {
                *hi = ladd(*hi, 1);
            }
        }
        Insn::Bin { op, dst, a, b, .. } => {
            st.regs[*dst as usize] = bin_result(*op, &st.regs[*a as usize], &st.regs[*b as usize]);
        }
        Insn::Neg { dst, src, .. } => {
            st.regs[*dst as usize] = match &st.regs[*src as usize] {
                Int { lo, hi } => Int {
                    lo: isub(0, *hi),
                    hi: isub(0, *lo),
                },
                Float => Float,
                _ => Top,
            };
        }
        Insn::Not { dst, .. } => {
            st.regs[*dst as usize] = Bool;
        }
        Insn::GetIndex { dst, obj, .. } => {
            // A string's item is a string; a container's is unknown.
            st.regs[*dst as usize] = match st.regs[*obj as usize] {
                StrLen { .. } => StrLen { lo: 0, hi: LINF },
                _ => Top,
            };
        }
        Insn::SetIndex { .. } => bump_dicts(st),
        Insn::SliceIdx { reg, .. } => {
            if !matches!(st.regs[*reg as usize], Int { .. }) {
                st.regs[*reg as usize] = Top;
            }
        }
        Insn::Slice { dst, obj, .. } => {
            st.regs[*dst as usize] = match &st.regs[*obj as usize] {
                StrLen { hi, .. } => StrLen { lo: 0, hi: *hi },
                ListLen { hi, .. } => ListLen { lo: 0, hi: *hi },
                _ => Top,
            };
        }
        Insn::MakeFunc { dst, idx } => {
            st.regs[*dst as usize] = Funcs(BTreeSet::from([*idx]));
        }
        Insn::IterNew { src, .. } => {
            // Iterating a string or a dict's keys yields strings.
            let elem = match st.regs[*src as usize] {
                StrLen { .. } | DictLen { .. } => StrLen { lo: 0, hi: LINF },
                _ => Top,
            };
            st.iters.push(elem);
        }
        Insn::IterPop => {
            st.iters.pop();
        }
        Insn::IterNext { dst, .. } => {
            // The exhausted iterator is popped on the `done` edge only
            // (see `analyze_chunk`).
            st.regs[*dst as usize] = st.iters.last().cloned().unwrap_or(Top);
        }
        Insn::Bind { src, vars, .. } => bind(cx, st, *src, *vars),
        Insn::Push { list, .. } => {
            // Fresh comprehension accumulator (VM invariant): exactly
            // one element appended, nothing else aliases it yet.
            if let ListLen { lo, hi } = &mut st.regs[*list as usize] {
                *lo = ladd(*lo, 1);
                *hi = ladd(*hi, 1);
            } else {
                st.regs[*list as usize] = Top;
            }
        }
        Insn::CallName { .. } => call_name(cx, st, insn),
        Insn::CallValue { dst, .. } | Insn::CallMethod { dst, .. } => {
            havoc_mutables(st);
            st.regs[*dst as usize] = Top;
        }
    }
}

/// `Bind`: one name takes the element; several unpack a list.
fn bind(cx: &ChunkCx, st: &mut State, src: u16, vars: u16) {
    let list = &cx.program.pools.var_lists[vars as usize];
    let val = match list.len() {
        1 => st.regs[src as usize].clone(),
        _ => Top,
    };
    for &(name, slot) in list {
        if slot != NO_REG && !cx.is_main {
            st.locals[slot as usize] = Binding::set(val.clone());
        } else {
            st.globals[name as usize] = Binding::set(val.clone());
        }
    }
}

/// `CallName`: a builtin's result from its arguments, a tool's from its
/// signature; any call but a builtin's may mutate containers.
fn call_name(cx: &ChunkCx, st: &mut State, insn: &Insn) {
    let Insn::CallName {
        dst,
        name,
        slot,
        base,
        argc,
        ..
    } = *insn
    else {
        return;
    };
    let result = match classify_callee(&cx.binding_of(st, name, slot)) {
        CallKind::Error => {
            st.live = false;
            return;
        }
        CallKind::External if builtin(cx.name(name)).is_some() => {
            let args: Vec<AbsVal> = (base..base + argc)
                .map(|r| st.regs[r as usize].clone())
                .collect();
            abs_builtin(cx.name(name), &args)
        }
        CallKind::External => {
            havoc_mutables(st);
            tool_return(cx.env, cx.name(name))
        }
        _ => {
            havoc_mutables(st);
            Top
        }
    };
    st.regs[dst as usize] = result;
}

// ---------------------------------------------------------------------------
// Usage accounting
// ---------------------------------------------------------------------------

/// Worst-case resource usage along some execution region: fuel plus
/// per-callee-name external call counts.
#[derive(Debug, Clone, PartialEq, Default)]
struct Usage {
    fuel_unbounded: bool,
    fuel: u64,
    calls: BTreeMap<u16, Bound>,
    open: bool,
}

impl Usage {
    fn fuel_bound(&self) -> Bound {
        if self.fuel_unbounded {
            Bound::Unbounded
        } else {
            Bound::Finite(self.fuel)
        }
    }

    fn add_fuel(&mut self, n: u64) {
        self.fuel = self.fuel.saturating_add(n);
    }

    fn add_call(&mut self, name: u16, n: Bound) {
        let cur = self.calls.entry(name).or_insert(Bound::Finite(0));
        *cur = cur.add(n);
    }

    fn mark_open(&mut self) {
        self.open = true;
        self.fuel_unbounded = true;
    }

    /// Sequential composition: costs add.
    fn add(&mut self, other: &Usage) {
        self.fuel_unbounded |= other.fuel_unbounded;
        self.fuel = self.fuel.saturating_add(other.fuel);
        for (&name, &b) in &other.calls {
            self.add_call(name, b);
        }
        self.open |= other.open;
    }

    /// Alternative composition: pointwise max over paths.
    fn max_with(&mut self, other: &Usage) {
        self.fuel_unbounded |= other.fuel_unbounded;
        self.fuel = self.fuel.max(other.fuel);
        for (&name, &b) in &other.calls {
            let cur = self.calls.entry(name).or_insert(Bound::Finite(0));
            *cur = (*cur).max(b);
        }
        self.open |= other.open;
    }

    /// One region repeated at most `times`.
    fn scale(&self, times: Bound) -> Usage {
        let mut out = Usage::default();
        match self.fuel_bound().mul(times) {
            Bound::Finite(f) => out.fuel = f,
            Bound::Unbounded => out.fuel_unbounded = true,
        }
        for (&name, &b) in &self.calls {
            let scaled = b.mul(times);
            if scaled != Bound::Finite(0) {
                out.calls.insert(name, scaled);
            }
        }
        out.open = self.open;
        if self.open {
            out.fuel_unbounded = true;
        }
        out
    }

    fn unbounded_all() -> Usage {
        Usage {
            fuel_unbounded: true,
            fuel: 0,
            calls: BTreeMap::new(),
            open: true,
        }
    }
}

/// Per-function summaries, indexed by compiled-function index.
type Summaries = Vec<Option<Usage>>;

/// Usage of basic block `b`, resolving call sites against the dataflow
/// state threaded through the block (an unreachable block costs
/// nothing).
fn block_usage(flow: &ChunkFlow, b: usize, summaries: &Summaries) -> Usage {
    let mut usage = Usage::default();
    flow.each_insn_of(b, |st, insn| {
        match insn {
            Insn::Burn { n, .. } => usage.add_fuel(*n as u64),
            Insn::CallName { name, slot, .. } => {
                let b = flow.cx.binding_of(st, *name, *slot);
                match classify_callee(&b) {
                    CallKind::External => usage.add_call(*name, Bound::Finite(1)),
                    CallKind::User {
                        funcs,
                        also_external,
                    } => {
                        if also_external {
                            usage.add_call(*name, Bound::Finite(1));
                        }
                        if !funcs.is_empty() {
                            // The VM burns one fuel resolving the
                            // callee value before dispatch.
                            usage.add_fuel(1);
                            usage.add(&callee_usage(&funcs, summaries));
                        }
                    }
                    CallKind::Open => usage.mark_open(),
                    CallKind::Error => {}
                }
            }
            Insn::CallValue { callee, .. } => match &st.regs[*callee as usize] {
                Funcs(s) => usage.add(&callee_usage(s, summaries)),
                Top => usage.mark_open(),
                _ => {}
            },
            _ => {}
        }
    });
    usage
}

/// Worst case over a set of possible user callees.
fn callee_usage(funcs: &BTreeSet<u16>, summaries: &Summaries) -> Usage {
    let mut worst = Usage::default();
    for &f in funcs {
        match summaries.get(f as usize).and_then(|s| s.as_ref()) {
            Some(s) => worst.max_with(s),
            None => worst.max_with(&Usage::unbounded_all()),
        }
    }
    worst
}

// ---------------------------------------------------------------------------
// Trip-count inference
// ---------------------------------------------------------------------------

/// A variable identity for induction-variable reasoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarKey {
    Global(u16),
    Local(u16),
}

fn var_key(cx: &ChunkCx, name: u16, slot: u16) -> VarKey {
    if slot != NO_REG && !cx.is_main {
        VarKey::Local(slot)
    } else {
        VarKey::Global(name)
    }
}

/// Block-local symbolic shapes for the while-loop peephole.
#[derive(Debug, Clone, PartialEq)]
enum Sym {
    LoadOf(VarKey),
    ConstInt(i128),
    /// `var + c` with a positive constant increment.
    AddConst(VarKey, u64),
    /// Normalized continue-condition `var < k` / `var <= k` with the
    /// bound operand's interval.
    Cmp {
        var: VarKey,
        inclusive: bool,
        k_hi: i128,
    },
    Other,
}

/// Advances the symbolic register shapes over one instruction, with
/// `st` the abstract state before it (non-constant comparison bounds
/// read their interval).
fn sym_step(cx: &ChunkCx, syms: &mut HashMap<u16, Sym>, st: &State, insn: &Insn) {
    let sym = match insn {
        Insn::Load {
            dst, name, slot, ..
        } => (*dst, Sym::LoadOf(var_key(cx, *name, *slot))),
        Insn::Const { dst, idx } => match &cx.program.pools.consts[*idx as usize] {
            Const::Int(v) => (*dst, Sym::ConstInt(*v as i128)),
            _ => (*dst, Sym::Other),
        },
        Insn::Bin { op, dst, a, b, .. } => {
            let sa = syms.get(a).cloned().unwrap_or(Sym::Other);
            let sb = syms.get(b).cloned().unwrap_or(Sym::Other);
            (
                *dst,
                bin_sym(*op, &sa, &sb, &st.regs[*a as usize], &st.regs[*b as usize]),
            )
        }
        // Anything else writing a register loses its shape.
        other => match insn_dst(other) {
            Some(dst) => (dst, Sym::Other),
            None => return,
        },
    };
    syms.insert(sym.0, sym.1);
}

/// The register an instruction writes, if any (symbolic-scan helper).
fn insn_dst(insn: &Insn) -> Option<u16> {
    match insn {
        Insn::Const { dst, .. }
        | Insn::Load { dst, .. }
        | Insn::MakeList { dst, .. }
        | Insn::NewDict { dst }
        | Insn::Bin { dst, .. }
        | Insn::Neg { dst, .. }
        | Insn::Not { dst, .. }
        | Insn::GetIndex { dst, .. }
        | Insn::Slice { dst, .. }
        | Insn::CallName { dst, .. }
        | Insn::CallValue { dst, .. }
        | Insn::CallMethod { dst, .. }
        | Insn::MakeFunc { dst, .. }
        | Insn::IterNext { dst, .. } => Some(*dst),
        Insn::SliceIdx { reg, .. } => Some(*reg),
        _ => None,
    }
}

fn bin_sym(op: BinOp, sa: &Sym, sb: &Sym, abs_a: &AbsVal, abs_b: &AbsVal) -> Sym {
    // `v + c` / `c + v` with c >= 1: a recognized increment.
    if op == BinOp::Add {
        match (sa, sb) {
            (Sym::LoadOf(v), Sym::ConstInt(c)) | (Sym::ConstInt(c), Sym::LoadOf(v))
                if *c >= 1 && *c <= u64::MAX as i128 =>
            {
                return Sym::AddConst(*v, *c as u64);
            }
            _ => {}
        }
    }
    // Ascending continue conditions, normalized to var-on-the-left.
    let bound_hi = |abs: &AbsVal, sym: &Sym| -> Option<i128> {
        if let Sym::ConstInt(c) = sym {
            return Some(*c);
        }
        match abs {
            Int { hi, .. } => Some(*hi),
            _ => None,
        }
    };
    match op {
        BinOp::Lt | BinOp::LtEq => {
            if let Sym::LoadOf(v) = sa {
                if let Some(k_hi) = bound_hi(abs_b, sb) {
                    return Sym::Cmp {
                        var: *v,
                        inclusive: op == BinOp::LtEq,
                        k_hi,
                    };
                }
            }
        }
        BinOp::Gt | BinOp::GtEq => {
            // `k > v` continues while `v < k`.
            if let Sym::LoadOf(v) = sb {
                if let Some(k_hi) = bound_hi(abs_a, sa) {
                    return Sym::Cmp {
                        var: *v,
                        inclusive: op == BinOp::GtEq,
                        k_hi,
                    };
                }
            }
        }
        _ => {}
    }
    Sym::Other
}

/// One chunk's solved dataflow: its CFG, natural loops and the
/// fixpoint state at every block entry. The cost bound and the
/// front-end check ([`crate::types`]) both read it.
pub(crate) struct ChunkFlow<'p> {
    pub(crate) cx: ChunkCx<'p>,
    pub(crate) code: &'p [Insn],
    pub(crate) blocks: Vec<Block>,
    preds: Vec<Vec<usize>>,
    pub(crate) loops: Vec<Loop>,
    /// Fixpoint entry state per block (`None` = unreachable).
    pub(crate) entry: Vec<Option<State>>,
}

impl<'p> ChunkFlow<'p> {
    /// Calls `f` on each instruction of reachable block `b` with the
    /// state before it, until the state dies.
    fn each_insn_of(&self, b: usize, mut f: impl FnMut(&State, &Insn)) {
        let Some(mut st) = self.entry[b].clone() else {
            return;
        };
        for insn in &self.code[self.blocks[b].start..self.blocks[b].end] {
            if !st.live {
                return;
            }
            f(&st, insn);
            transfer(&self.cx, &mut st, insn);
        }
    }

    /// [`ChunkFlow::each_insn_of`] over every block.
    fn each_insn(&self, mut f: impl FnMut(&State, &Insn)) {
        for b in 0..self.blocks.len() {
            self.each_insn_of(b, &mut f);
        }
    }

    /// Out-state of a block (re-runs the transfer function).
    fn out_state(&self, b: usize) -> Option<State> {
        self.state_before(b, self.blocks[b].end)
    }

    /// State immediately before instruction `at` inside block `b`.
    fn state_before(&self, b: usize, at: usize) -> Option<State> {
        let mut st = self.entry[b].clone()?;
        for insn in &self.code[self.blocks[b].start..at] {
            transfer(&self.cx, &mut st, insn);
        }
        st.live.then_some(st)
    }

    /// Bound on loop-header entries from outside the loop joined over
    /// all entry edges a run can take (used for the induction variable's
    /// start); `None` when no run enters the loop. An edge out of dead code
    /// after a `continue` is no entry.
    fn entry_binding(&self, l: &Loop, key: VarKey) -> Option<Binding> {
        let mut acc: Option<Binding> = None;
        for &p in &self.preds[l.header] {
            if l.body.contains(&p) {
                continue;
            }
            let Some(st) = self.out_state(p) else {
                continue;
            };
            let b = match key {
                VarKey::Global(name) => self.cx.global(&st, name).clone(),
                VarKey::Local(slot) => st.locals[slot as usize].clone(),
            };
            acc = Some(match acc {
                None => b,
                Some(prev) => prev.join(&b),
            });
        }
        acc
    }

    /// Scans the loop body for stores to the induction variable `var`.
    /// `Some((c_min, blocks))` when every store is a positive constant
    /// self-increment: the smallest increment and the set of blocks
    /// performing one. `None` (unbounded) when any store is something
    /// else, a `Bind` rebinds the variable, or no increment exists.
    fn while_increments(&self, l: &Loop, var: VarKey) -> Option<(u64, BTreeSet<usize>)> {
        let mut c_min: Option<u64> = None;
        let mut increment_blocks: BTreeSet<usize> = BTreeSet::new();
        for &b in &l.body {
            let mut has_store = false;
            let mut all_increments = true;
            let mut syms: HashMap<u16, Sym> = HashMap::new();
            self.each_insn_of(b, |st, insn| {
                match insn {
                    Insn::Store { name, slot, src } if var_key(&self.cx, *name, *slot) == var => {
                        has_store = true;
                        match syms.get(src) {
                            Some(Sym::AddConst(v, c)) if *v == var => {
                                c_min = Some(c_min.map_or(*c, |m| m.min(*c)));
                            }
                            _ => all_increments = false,
                        }
                    }
                    Insn::Bind { vars, .. } => {
                        for &(name, slot) in &self.cx.program.pools.var_lists[*vars as usize] {
                            if var_key(&self.cx, name, slot) == var {
                                has_store = true;
                                all_increments = false;
                            }
                        }
                    }
                    _ => {}
                }
                sym_step(&self.cx, &mut syms, st, insn);
            });
            if has_store {
                if !all_increments {
                    return None;
                }
                increment_blocks.insert(b);
            }
        }
        c_min.map(|c| (c, increment_blocks))
    }

    /// Infers a trip bound for one natural loop.
    fn trip_bound(&self, l: &Loop) -> Bound {
        let header = &self.blocks[l.header];
        if self.entry[l.header].is_none() {
            return Bound::Finite(0); // Loop never entered.
        }
        if let Insn::IterNext { .. } = self.code[header.start] {
            return self.for_trip_bound(l);
        }
        // While shape: single-block condition ending in JumpFalse out (its
        // target is the header's last successor).
        let Insn::JumpFalse { src, .. } = self.code[header.end - 1] else {
            return Bound::Unbounded;
        };
        if header.succs.last().is_some_and(|t| l.body.contains(t)) {
            return Bound::Unbounded;
        }
        let mut syms = HashMap::new();
        self.each_insn_of(l.header, |st, insn| sym_step(&self.cx, &mut syms, st, insn));
        let Some(Sym::Cmp {
            var,
            inclusive,
            k_hi,
        }) = syms.get(&src).cloned()
        else {
            return Bound::Unbounded;
        };
        if k_hi == IPOS {
            return Bound::Unbounded;
        }
        let Some((c_min, increment_blocks)) = self.while_increments(l, var) else {
            return Bound::Unbounded;
        };
        // The increment must lie on every header-to-latch path: with
        // increment blocks removed (and this loop's own back-edges cut)
        // no latch may remain reachable from the header.
        let mut reachable: BTreeSet<usize> = BTreeSet::new();
        if !increment_blocks.contains(&l.header) {
            let mut stack = vec![l.header];
            reachable.insert(l.header);
            while let Some(n) = stack.pop() {
                for &s in &self.blocks[n].succs {
                    if s == l.header
                        || !l.body.contains(&s)
                        || increment_blocks.contains(&s)
                        || !reachable.insert(s)
                    {
                        continue;
                    }
                    stack.push(s);
                }
            }
        }
        if l.latches.iter().any(|lt| reachable.contains(lt)) {
            return Bound::Unbounded;
        }
        // Start value of the induction variable at loop entry.
        let Some(entry_b) = self.entry_binding(l, var) else {
            return Bound::Finite(0);
        };
        let v_lo = match entry_b.val {
            Int { lo, .. } if lo != INEG => lo,
            Bottom => return Bound::Finite(0), // Load faults: never loops.
            _ => return Bound::Unbounded,
        };
        let mut span = isub(k_hi, v_lo);
        if inclusive {
            span = iadd(span, 1);
        }
        if span <= 0 {
            return Bound::Finite(0);
        }
        if span == IPOS {
            return Bound::Unbounded;
        }
        let trips = (span as u128).div_ceil(c_min as u128);
        Bound::Finite(trips.min(u64::MAX as u128) as u64)
    }

    /// `for` loops: trips are bounded by the iterable's length at the
    /// `IterNew` that feeds the header (iteration snapshots the
    /// sequence, so later mutation cannot extend it).
    fn for_trip_bound(&self, l: &Loop) -> Bound {
        let entry_preds: Vec<usize> = self.preds[l.header]
            .iter()
            .copied()
            .filter(|&p| !l.body.contains(&p) && self.entry[p].is_some())
            .collect();
        let [p] = entry_preds[..] else {
            return Bound::Unbounded;
        };
        // The header's iterator is the last `IterNew` in the entry
        // block: for-statements emit it as the block's final
        // instruction, comprehensions follow it with the accumulator's
        // `MakeList`. A complete inner loop cannot sit between that
        // `IterNew` and the block end (loops span several blocks).
        let blk = &self.blocks[p];
        let Some((at, src)) = (blk.start..blk.end).rev().find_map(|i| match self.code[i] {
            Insn::IterNew { src, .. } => Some((i, src)),
            _ => None,
        }) else {
            return Bound::Unbounded;
        };
        let Some(st) = self.state_before(p, at) else {
            return Bound::Finite(0);
        };
        match &st.regs[src as usize] {
            v @ (StrLen { .. } | ListLen { .. } | DictLen { .. }) => {
                let (_, hi) = len_of(v).expect("length-shaped");
                if hi == LINF {
                    Bound::Unbounded
                } else {
                    Bound::Finite(hi)
                }
            }
            // Non-iterables fault at IterNew; Bottom is unreachable.
            Int { .. } | Bool | Float | NoneVal | Funcs(_) | Bottom => Bound::Finite(0),
            Top => Bound::Unbounded,
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk analysis driver
// ---------------------------------------------------------------------------

/// Runs CFG construction + interval fixpoint for one chunk. Returns
/// `None` when its loops are not the compiler's nested ranges.
fn analyze_chunk<'p>(
    cx: ChunkCx<'p>,
    chunk: &'p Chunk,
    nlocals: usize,
    params: usize,
) -> Option<ChunkFlow<'p>> {
    if chunk.code.is_empty() {
        // Defensive: compiled chunks always end in Ret/Halt.
        return None;
    }
    let blocks = build_blocks(chunk);
    let preds = predecessors(&blocks);
    let mut rpo_pos = vec![usize::MAX; blocks.len()];
    for (i, b) in reverse_postorder(&blocks).into_iter().enumerate() {
        rpo_pos[b] = i;
    }
    let loops = read_loops(&blocks, &rpo_pos, &preds)?;
    let headers: BTreeSet<usize> = loops.iter().map(|l| l.header).collect();
    let is_main = cx.is_main;

    let init = State {
        live: true,
        regs: vec![Bottom; chunk.nregs as usize],
        iters: Vec::new(),
        locals: if is_main {
            Vec::new()
        } else {
            (0..nlocals)
                .map(|i| {
                    // Parameters arrive bound; other locals start unset.
                    if i < params {
                        Binding::set(Top)
                    } else {
                        Binding::unset()
                    }
                })
                .collect()
        },
        globals: if is_main {
            // Globals the environment names are bound before the run.
            (cx.program.pools.names.iter())
                .map(|name| match cx.env.globals.get(name) {
                    Some(&ty) => Binding::set(AbsVal::of_ty(ty)),
                    None => Binding::unset(),
                })
                .collect()
        } else {
            Vec::new()
        },
    };

    let mut entry: Vec<Option<State>> = vec![None; blocks.len()];
    entry[0] = Some(init);
    let mut in_list = vec![false; blocks.len()];
    let mut worklist: Vec<usize> = vec![0];
    in_list[0] = true;
    let mut sweeps = 0usize;
    while let Some(b) = {
        // Pop the block earliest in RPO for fast convergence.
        worklist.sort_by_key(|&x| std::cmp::Reverse(rpo_pos[x]));
        worklist.pop()
    } {
        in_list[b] = false;
        sweeps += 1;
        if sweeps > blocks.len().saturating_mul(64) + 256 {
            return None; // Defensive convergence guard.
        }
        let Some(mut st) = entry[b].clone() else {
            continue;
        };
        for insn in &chunk.code[blocks[b].start..blocks[b].end] {
            transfer(&cx, &mut st, insn);
        }
        if !st.live {
            continue;
        }
        let last = &chunk.code[blocks[b].end - 1];
        for &s in &blocks[b].succs {
            let widen_point = headers.contains(&s);
            let mut out = st.clone();
            if matches!(last, Insn::IterNext { done, .. } if *done as usize == blocks[s].start) {
                out.iters.pop();
            }
            let changed = match &mut entry[s] {
                Some(cur) => cur.join_into(&out, widen_point),
                slot @ None => {
                    *slot = Some(out);
                    true
                }
            };
            if changed && !in_list[s] {
                in_list[s] = true;
                worklist.push(s);
            }
        }
    }

    Some(ChunkFlow {
        cx,
        code: &chunk.code,
        blocks,
        preds,
        loops,
        entry,
    })
}

/// Collapses loops innermost-first and runs the longest-path DP,
/// producing the chunk's worst-case usage.
fn chunk_usage(flow: &ChunkFlow, summaries: &Summaries) -> Usage {
    let n = flow.blocks.len();
    let mut node_usage: Vec<Usage> = (0..n).map(|b| block_usage(flow, b, summaries)).collect();
    let mut succs: Vec<BTreeSet<usize>> = flow
        .blocks
        .iter()
        .map(|b| b.succs.iter().copied().collect())
        .collect();
    let mut removed = vec![false; n];

    let mut loops = flow.loops.clone();
    loops.sort_by_key(|l| l.body.len());
    for l in &loops {
        let inner: BTreeSet<usize> = l.body.iter().copied().filter(|&b| !removed[b]).collect();
        // Max-usage path from the header through the (already
        // collapsed, now acyclic) loop body.
        let per_iter = longest_path(&inner, &succs, l.header, &node_usage);
        let trips = flow.trip_bound(l);
        let total = per_iter.scale(trips.add(Bound::Finite(1)));
        // The loop becomes one super-node on the header, keeping every
        // edge that leaves the loop.
        let mut exit_targets: BTreeSet<usize> = BTreeSet::new();
        for &u in &inner {
            for &v in &succs[u] {
                if !inner.contains(&v) {
                    exit_targets.insert(v);
                }
            }
        }
        node_usage[l.header] = total;
        succs[l.header] = exit_targets;
        for &u in &inner {
            if u != l.header {
                removed[u] = true;
                succs[u].clear();
            }
        }
    }

    // Longest path over the remaining DAG from the entry block.
    let live: BTreeSet<usize> = (0..n).filter(|&b| !removed[b]).collect();
    longest_path(&live, &succs, 0, &node_usage)
}

/// The worst usage along any path from `start` through the graph on
/// `nodes` (`succs` restricted to them), joining paths by pointwise max.
/// `start` is the least node, and once loops are collapsed every edge but
/// those back into `start` goes forward, so ascending block order visits
/// each node after all its predecessors.
fn longest_path(
    nodes: &BTreeSet<usize>,
    succs: &[BTreeSet<usize>],
    start: usize,
    node_usage: &[Usage],
) -> Usage {
    let mut acc: Vec<Option<Usage>> = vec![None; succs.len()];
    acc[start] = Some(node_usage[start].clone());
    let mut worst = node_usage[start].clone();
    for &u in nodes {
        let Some(u_acc) = acc[u].take() else {
            continue;
        };
        worst.max_with(&u_acc);
        for &v in succs[u].iter().filter(|&&v| v > u && nodes.contains(&v)) {
            let mut cand = u_acc.clone();
            cand.add(&node_usage[v]);
            match &mut acc[v] {
                Some(cur) => cur.max_with(&cand),
                slot @ None => *slot = Some(cand),
            }
        }
    }
    worst
}

// ---------------------------------------------------------------------------
// Whole-program analysis
// ---------------------------------------------------------------------------

/// Entry global summary for function chunks. A function reads globals
/// as they are when it is called, and a later program on the same
/// interpreter may have rebound any of them, so every name main or the
/// environment binds is unknown (maybe unset) — except that a name
/// bound only to user functions keeps its function set, which is what
/// resolves calls between functions. A name nothing binds stays unset:
/// a call to it reaches a host function or builtin.
fn main_global_summary(program: &CompiledProgram, main_flow: &ChunkFlow) -> Vec<Binding> {
    let mut genv: Vec<Binding> = (program.pools.names.iter())
        .map(|name| match main_flow.cx.env.globals.contains_key(name) {
            true => Binding::set(Top),
            false => Binding::unset(),
        })
        .collect();
    main_flow.each_insn(|st, insn| match insn {
        Insn::Store { name, src, .. } => {
            let stored = Binding::set(st.regs[*src as usize].clone());
            genv[*name as usize] = genv[*name as usize].join(&stored);
        }
        Insn::Bind { vars, .. } => {
            for &(name, _) in &program.pools.var_lists[*vars as usize] {
                genv[name as usize] = genv[name as usize].join(&Binding::set(Top));
            }
        }
        _ => {}
    });
    for b in &mut genv {
        b.maybe_unset = true;
        if !matches!(b.val, Bottom | Funcs(_)) {
            b.val = Top;
        }
    }
    genv
}

/// A program's solved dataflow: main and every function chunk, analyzed
/// once against one environment.
pub(crate) struct Solved<'p> {
    pub(crate) program: &'p CompiledProgram,
    pub(crate) env: &'p TypeEnv,
    /// `None` when main's CFG could not be analyzed (never for compiler
    /// output).
    pub(crate) main: Option<ChunkFlow<'p>>,
    pub(crate) funcs: Vec<Option<ChunkFlow<'p>>>,
}

/// Runs the one fixpoint over every chunk of `program`, with main's
/// globals seeded from `env`.
pub(crate) fn solve<'p>(program: &'p CompiledProgram, env: &'p TypeEnv) -> Solved<'p> {
    let cx = |is_main: bool, genv: Rc<[Binding]>| ChunkCx {
        program,
        env,
        is_main,
        genv,
    };
    let main = analyze_chunk(cx(true, Rc::from(Vec::new())), &program.main, 0, 0);
    let genv: Rc<[Binding]> = match &main {
        Some(flow) => Rc::from(main_global_summary(program, flow)),
        None => Rc::from(vec![Binding::set(Top); program.pools.names.len()]),
    };
    let funcs = (program.pools.funcs.iter())
        .map(|f| {
            analyze_chunk(
                cx(false, genv.clone()),
                &f.chunk,
                f.locals.len(),
                f.params.len(),
            )
        })
        .collect();
    Solved {
        program,
        env,
        main,
        funcs,
    }
}

/// Analyzes a compiled program, producing a sound [`CostBound`] for a
/// run on a fresh interpreter (no globals bound, no tool signatures).
pub fn analyze(program: &CompiledProgram) -> CostBound {
    solve(program, &TypeEnv::new()).bound()
}

impl Solved<'_> {
    /// The program's cost bound.
    pub(crate) fn bound(&self) -> CostBound {
        let program = self.program;
        // Defensive: the compiler slots every name a function assigns; a
        // global store from a function chunk would break the entry-summary
        // construction, so bail to unbounded rather than risk a wrong
        // number.
        for f in &program.pools.funcs {
            for insn in &f.chunk.code {
                match insn {
                    Insn::Store { slot, .. } if *slot == NO_REG => {
                        return CostBound::unbounded_all()
                    }
                    Insn::Bind { vars, .. }
                        if program.pools.var_lists[*vars as usize]
                            .iter()
                            .any(|&(_, slot)| slot == NO_REG) =>
                    {
                        return CostBound::unbounded_all();
                    }
                    _ => {}
                }
            }
        }
        let Some(main_flow) = &self.main else {
            return CostBound::unbounded_all();
        };
        let fn_flows = &self.funcs;

        // Call graph over function chunks (callee sets from the dataflow).
        let callees_of = |flow: &ChunkFlow| -> BTreeSet<u16> {
            let mut set = BTreeSet::new();
            flow.each_insn(|st, insn| match insn {
                Insn::CallName { name, slot, .. } => {
                    if let CallKind::User { funcs, .. } =
                        classify_callee(&flow.cx.binding_of(st, *name, *slot))
                    {
                        set.extend(funcs);
                    }
                }
                Insn::CallValue { callee, .. } => {
                    if let Funcs(s) = &st.regs[*callee as usize] {
                        set.extend(s.iter().copied());
                    }
                }
                _ => {}
            });
            set
        };
        let fn_callees: Vec<BTreeSet<u16>> = fn_flows
            .iter()
            .map(|f| f.as_ref().map(&callees_of).unwrap_or_default())
            .collect();

        // Bottom-up summaries: repeatedly summarize functions whose
        // callees are done; anything left is (mutually) recursive and
        // stays unbounded.
        let nfuncs = program.pools.funcs.len();
        let mut summaries: Summaries = vec![None; nfuncs];
        loop {
            let mut progressed = false;
            for i in 0..nfuncs {
                if summaries[i].is_some() {
                    continue;
                }
                let ready = fn_callees[i].iter().all(|&c| {
                    c as usize != i && summaries.get(c as usize).is_some_and(|s| s.is_some())
                });
                if !ready {
                    continue;
                }
                let usage = match &fn_flows[i] {
                    Some(flow) => chunk_usage(flow, &summaries),
                    None => Usage::unbounded_all(),
                };
                summaries[i] = Some(usage);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        // Recursive leftovers summarize as unbounded (None in `summaries`
        // already reads as unbounded via `callee_usage`).

        let usage = chunk_usage(main_flow, &summaries);
        let calls: BTreeMap<String, Bound> = usage
            .calls
            .iter()
            .map(|(&ix, &b)| (program.pools.names[ix as usize].clone(), b))
            .collect();
        CostBound::finish(usage.fuel_bound(), calls, usage.open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CostBound {
        /// Worst-case calls to `tool`: absence means proven-never-called
        /// unless the call set is open.
        fn call_bound(&self, tool: &str) -> Bound {
            if self.calls_open {
                return Bound::Unbounded;
            }
            self.calls_per_tool
                .get(tool)
                .copied()
                .unwrap_or(Bound::Finite(0))
        }
    }
    use crate::bytecode::compile_source;
    use crate::{Interpreter, ScriptValue};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn bound_of(src: &str) -> CostBound {
        compile_source(src).expect("compiles").bound
    }

    /// Runs `src` with recording stub tools; returns (fuel used,
    /// per-tool call counts) on completion.
    fn run_with_tools(src: &str, fuel: u64) -> Option<(u64, BTreeMap<String, u64>)> {
        let calls = Rc::new(RefCell::new(BTreeMap::<String, u64>::new()));
        let mut interp = Interpreter::new().with_fuel(fuel);
        for tool in ["list_files", "read_file", "emit"] {
            let c = calls.clone();
            interp.bind_host_fn(tool, move |_args| {
                *c.borrow_mut().entry(tool.to_string()).or_insert(0) += 1;
                Ok(ScriptValue::list(vec![
                    ScriptValue::str("a.csv"),
                    ScriptValue::str("b.csv"),
                ]))
            });
        }
        let ok = interp.run(src).is_ok();
        let used = fuel - interp.fuel_remaining();
        ok.then(|| (used, calls.borrow().clone()))
    }

    #[track_caller]
    fn assert_sound_and_finite(src: &str) -> CostBound {
        let b = bound_of(src);
        assert!(
            !b.unbounded,
            "expected a finite bound for:\n{src}\ngot {b:?}"
        );
        let (used, calls) = run_with_tools(src, 1_000_000).expect("program completes");
        match b.fuel_max {
            Bound::Finite(max) => assert!(
                used <= max,
                "fuel {used} exceeds static bound {max} for:\n{src}"
            ),
            Bound::Unbounded => unreachable!("finite bound asserted"),
        }
        for (tool, &n) in &calls {
            match b.call_bound(tool) {
                Bound::Finite(max) => assert!(
                    n <= max,
                    "{tool} called {n} times, bound {max}, for:\n{src}"
                ),
                Bound::Unbounded => {}
            }
        }
        b
    }

    #[test]
    fn globals_the_environment_binds_start_bound() {
        // An agent step reading the list an earlier step left in `files`.
        let src = "n = len(files)\nfor f in files:\n    read_file(f)";
        let mut env = TypeEnv::new();
        env.add_tool_signature("read_file", "read_file(name: str) -> str");
        env.bind_global("files", Ty::Any);
        let program =
            crate::compile_checked(&crate::parser::parse(src).unwrap(), &env).expect("accepted");
        let reads = Rc::new(RefCell::new(0u64));
        let mut interp = Interpreter::new().with_fuel(1_000_000);
        let counter = reads.clone();
        interp.bind_host_fn("read_file", move |_| {
            *counter.borrow_mut() += 1;
            Ok(ScriptValue::str("x"))
        });
        interp
            .run(&format!("files = [{}]", vec!["'a.csv'"; 40].join(", ")))
            .unwrap();
        interp.run_compiled(&program).unwrap();
        let used = 1_000_000 - interp.fuel_remaining();
        assert_eq!((used, *reads.borrow()), (125, 40));
        let b = &program.bound;
        assert!(b.fuel_max >= Bound::Finite(used), "{b:?}");
        assert!(b.call_bound("read_file") >= Bound::Finite(40), "{b:?}");
        // On a fresh interpreter `files` is unbound: every run faults on
        // it, which is all the env-less bound may assume.
        assert_eq!(analyze(&program).render(), "fuel<=3 calls=[] usd<=$0.0000");
    }

    #[test]
    fn straight_line_is_finite_and_sound() {
        let b = assert_sound_and_finite("x = 1\ny = x + 2\ny");
        assert_eq!(b.calls_per_tool, BTreeMap::new());
        assert_eq!(b.worst_usd_max(), 0.0);
    }

    #[test]
    fn for_range_loop_is_finite() {
        assert_sound_and_finite("total = 0\nfor i in range(10):\n    total += i\ntotal");
    }

    #[test]
    fn counted_while_loop_is_finite() {
        assert_sound_and_finite("i = 0\nacc = 0\nwhile i < 400:\n    acc += i\n    i += 1\nacc");
    }

    #[test]
    fn while_with_le_and_step_is_finite() {
        assert_sound_and_finite("i = 0\nwhile i <= 20:\n    i = i + 3\ni");
    }

    #[test]
    fn nested_loops_are_finite() {
        assert_sound_and_finite(
            "acc = 0\nfor i in range(5):\n    for j in range(7):\n        acc += 1\nacc",
        );
    }

    #[test]
    fn tool_calls_in_loops_are_counted() {
        let b = assert_sound_and_finite("for i in range(3):\n    emit(i)\n0");
        match b.call_bound("emit") {
            Bound::Finite(n) => assert!(n >= 3, "emit bound {n} below actual 3"),
            Bound::Unbounded => panic!("emit should be finitely bounded"),
        }
        assert!(b.usd_max(ModelId::Flagship) > 0.0);
        assert!(b.usd_max(ModelId::Flagship).is_finite());
        assert!(b.usd_max(ModelId::Nano) < b.usd_max(ModelId::Flagship));
    }

    #[test]
    fn builtin_calls_are_counted_but_not_billed() {
        let b = assert_sound_and_finite("xs = range(4)\nprint(len(xs))\nlen(xs)");
        assert!(b.call_bound("len").is_finite());
        assert_eq!(b.worst_usd_max(), 0.0);
    }

    #[test]
    fn listcomp_is_finite() {
        assert_sound_and_finite("xs = [i * 2 for i in range(6)]\nlen(xs)");
    }

    #[test]
    fn user_function_calls_compose() {
        let b = assert_sound_and_finite(
            "def f(x):\n    return x + 1\ntotal = 0\nfor i in range(4):\n    total += f(i)\ntotal",
        );
        assert!(b.fuel_max.is_finite());
    }

    #[test]
    fn data_dependent_while_is_unbounded() {
        let b = bound_of("n = len(list_files())\ni = 0\nwhile i < n:\n    i += 1\ni");
        assert!(b.unbounded);
        assert_eq!(b.fuel_max, Bound::Unbounded);
    }

    #[test]
    fn decrementing_while_is_unbounded() {
        let b = bound_of("i = 10\nwhile i > 0:\n    i = i - 1\ni");
        assert!(b.unbounded);
    }

    #[test]
    fn clobbered_induction_variable_is_unbounded() {
        let b = bound_of("i = 0\nwhile i < 5:\n    i = 0\ni");
        assert!(b.unbounded);
    }

    #[test]
    fn recursion_is_unbounded() {
        let b = bound_of("def f(n):\n    if n > 0:\n        return f(n - 1)\n    return 0\nf(3)");
        assert!(b.unbounded);
    }

    #[test]
    fn iteration_over_tool_result_is_unbounded_fuel_but_counts_entry_call() {
        let b = bound_of("for f in list_files():\n    read_file(f)\n0");
        assert!(b.unbounded);
        assert_eq!(b.call_bound("list_files"), Bound::Finite(1));
        assert_eq!(b.call_bound("read_file"), Bound::Unbounded);
    }

    #[test]
    fn unknown_callee_degrades_to_open() {
        // `g` holds whatever came out of the list: an unknown value,
        // so the call site could reach any tool any number of times.
        let b = bound_of("def f():\n    return 1\nxs = [f]\ng = xs[0]\ng()");
        assert!(b.unbounded);
        assert!(b.calls_open);
    }

    #[test]
    fn host_value_load_is_a_name_error_and_finite() {
        // `Load` never consults host functions: `f = list_files`
        // always faults, so the program never completes and any finite
        // bound is vacuously sound.
        let b = bound_of("f = list_files\nf()");
        assert!(b.fuel_max.is_finite());
    }

    #[test]
    fn bound_is_deterministic() {
        let src = "total = 0\nfor i in range(9):\n    total += i\nemit(total)\ntotal";
        assert_eq!(bound_of(src), bound_of(src));
    }

    #[test]
    fn render_is_compact() {
        let b = bound_of("emit(1)\n0");
        let line = b.render();
        assert!(line.contains("fuel<="), "render: {line}");
        assert!(line.contains("emit<=1"), "render: {line}");
    }

    #[test]
    fn unbounded_all_is_conservative_everywhere() {
        let b = CostBound::unbounded_all();
        assert!(b.unbounded);
        assert_eq!(b.call_bound("anything"), Bound::Unbounded);
        assert_eq!(b.usd_max(ModelId::Flagship), f64::INFINITY);
        assert_eq!(b.worst_usd_max(), f64::INFINITY);
    }

    #[test]
    fn bound_arithmetic_saturates() {
        assert_eq!(
            Bound::Finite(u64::MAX).add(Bound::Finite(5)),
            Bound::Finite(u64::MAX)
        );
        assert_eq!(Bound::Unbounded.mul(Bound::Finite(0)), Bound::Finite(0));
        assert_eq!(Bound::Unbounded.mul(Bound::Finite(2)), Bound::Unbounded);
        assert_eq!(Bound::Finite(3).max(Bound::Unbounded), Bound::Unbounded);
    }

    #[test]
    fn break_and_early_exit_stay_sound() {
        assert_sound_and_finite(
            "acc = 0\nfor i in range(10):\n    if i > 3:\n        break\n    acc += i\nacc",
        );
    }

    #[test]
    fn continue_creates_second_latch_and_stays_sound() {
        assert_sound_and_finite(
            "acc = 0\ni = 0\nwhile i < 30:\n    i += 1\n    if i > 10:\n        continue\n    acc += i\nacc",
        );
    }

    #[test]
    fn dead_code_after_break_and_continue_stays_sound() {
        // The dead `Jump top` of a loop whose only live latch is a
        // `continue` is no entry edge: the trip count still holds.
        let b = assert_sound_and_finite("n = 0\nwhile n < 3:\n    n += 1\n    continue\n    q = 5");
        assert_eq!(b.fuel_max, Bound::Finite(27));
        // A dead inner loop after `break` is no loop, and the blocks
        // behind it still count.
        let b = assert_sound_and_finite(
            "x = 's'\nfor i in range(3):\n    break\n    for c in x:\n        print(c)\n    x = 1",
        );
        assert_eq!(b.fuel_max, Bound::Finite(6));
        // The same for a `for` loop: its dead `Jump top` is no second
        // entry, so the iterator's length still bounds the trips.
        let b = assert_sound_and_finite(
            "t = 0\nfor i in range(3):\n    t += 1\n    continue\n    q = 5\nt",
        );
        assert_eq!(b.fuel_max, Bound::Finite(19));
    }

    #[test]
    fn a_jump_into_the_middle_of_a_loop_bails_to_unbounded() {
        // 0: r0 = True; 1: JumpFalse r0 -> `into`; 2: the loop header;
        // 3: the loop's middle; 4: Jump 2; 5: Halt. The compiler only
        // ever jumps to a loop's header from outside it.
        let program = |into: u32| CompiledProgram {
            pools: std::sync::Arc::new(crate::bytecode::Pools {
                consts: vec![Const::Bool(true)],
                ..Default::default()
            }),
            main: Chunk {
                code: vec![
                    Insn::Const { dst: 0, idx: 0 },
                    Insn::JumpFalse { src: 0, to: into },
                    Insn::Burn { n: 1, line: 1 },
                    Insn::Burn { n: 1, line: 2 },
                    Insn::Jump { to: 2 },
                    Insn::Halt,
                ],
                nregs: 1,
            },
            bound: CostBound::unbounded_all(),
        };
        assert_eq!(analyze(&program(3)), CostBound::unbounded_all());
        // Entered at its header, the same endless loop is analyzed: its
        // fuel is unbounded, but it provably calls nothing.
        let b = analyze(&program(2));
        assert_eq!((b.fuel_max, b.calls_open), (Bound::Unbounded, false));
    }
}
