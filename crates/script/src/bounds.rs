//! Static cost-bound analysis over compiled Pyrite bytecode.
//!
//! The paper treats LLM spend as a first-class, optimizable resource:
//! an analytics runtime should know what a plan *can* cost before it
//! runs it. This module is the analysis that makes that possible for
//! Pyrite programs — an abstract interpreter over [`crate::bytecode`]
//! instruction streams that produces a sound [`CostBound`]:
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
//! **Soundness contract.** For every program that runs to completion,
//! actual fuel ≤ `fuel_max`, actual per-tool calls ≤ the per-tool
//! bound, and billed dollars ≤ `usd_max` for the executing tier.
//! Programs the analysis cannot bound degrade to `unbounded` — never a
//! wrong finite number. Error paths need no bound: a program that
//! faults did not complete. One documented environment assumption: the
//! host-function set does not shadow builtin names (`range`, `len`, …);
//! the VM resolves host functions first, so a tool named `range` could
//! invalidate trip counts. Callers that know the tool registry (the
//! agents runtime does) degrade the bound to unbounded on a collision.
//!
//! **How it works.**
//! 1. Basic blocks and a CFG per chunk; irreducible graphs (never
//!    produced by the compiler) bail to unbounded.
//! 2. Interval dataflow with widening at loop headers, over a small
//!    lattice: integer intervals, string/list/dict length intervals,
//!    and function-value sets. Any call havocs list/dict lengths
//!    (values are `Rc`-shared and mutable through aliases); string
//!    lengths and rebindings survive — callees cannot rebind globals.
//! 3. Loop trip bounds: `for` loops are bounded by the iterable's
//!    length interval at `IterNew` (iteration snapshots the sequence);
//!    counted `while` loops match the compiler's shape — a single-block
//!    `v < K` / `v <= K` header whose every in-loop store to `v` is a
//!    positive constant increment on every path to every latch — and
//!    bound trips by `ceil((K_hi − v_lo) / c_min)`.
//! 4. Per-chunk usage: loops collapse innermost-first into super-nodes
//!    costing `(trips + 1) × max-path-through-body`, then a longest-path
//!    DP over the remaining DAG joins paths by pointwise max. Function
//!    summaries compose bottom-up over the call graph; recursion (an
//!    SCC) and indirect calls through unknown values are unbounded.

use crate::ast::BinOp;
use crate::bytecode::{Chunk, CompiledProgram, Const, Insn, NO_REG};
use crate::types::builtin;
use aida_llm::models::{ModelCatalog, ModelId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

    /// One-line human rendering (EXPLAIN ANALYZE, reports).
    pub fn render(&self) -> String {
        if self.calls_open {
            return "fuel<=inf calls=open usd<=inf".into();
        }
        let calls: Vec<String> = self
            .calls_per_tool
            .iter()
            .map(|(name, b)| format!("{name}<={b}"))
            .collect();
        let usd = self.worst_usd_max();
        let usd = if usd.is_finite() {
            format!("{usd:.4}")
        } else {
            "inf".into()
        };
        format!(
            "fuel<={} calls=[{}] usd<=${usd}",
            self.fuel_max,
            calls.join(" "),
        )
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

/// One abstract value.
#[derive(Debug, Clone, PartialEq)]
enum AbsVal {
    /// Unreachable / no value.
    Bottom,
    /// Integer (or bool, as 0/1) in `[lo, hi]`.
    Int { lo: i128, hi: i128 },
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

fn hull_u(alo: u64, ahi: u64, blo: u64, bhi: u64) -> (u64, u64) {
    (alo.min(blo), ahi.max(bhi))
}

fn join(a: &AbsVal, b: &AbsVal) -> AbsVal {
    match (a, b) {
        (Bottom, x) | (x, Bottom) => x.clone(),
        (Int { lo: al, hi: ah }, Int { lo: bl, hi: bh }) => Int {
            lo: *al.min(bl),
            hi: *ah.max(bh),
        },
        (StrLen { lo: al, hi: ah }, StrLen { lo: bl, hi: bh }) => {
            let (lo, hi) = hull_u(*al, *ah, *bl, *bh);
            StrLen { lo, hi }
        }
        (ListLen { lo: al, hi: ah }, ListLen { lo: bl, hi: bh }) => {
            let (lo, hi) = hull_u(*al, *ah, *bl, *bh);
            ListLen { lo, hi }
        }
        (DictLen { lo: al, hi: ah }, DictLen { lo: bl, hi: bh }) => {
            let (lo, hi) = hull_u(*al, *ah, *bl, *bh);
            DictLen { lo, hi }
        }
        (Funcs(s1), Funcs(s2)) => Funcs(s1.union(s2).copied().collect()),
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
        (StrLen { lo: ol, hi: oh }, StrLen { lo: jl, hi: jh }) => StrLen {
            lo: if jl < ol { 0 } else { *jl },
            hi: if jh > oh { LINF } else { *jh },
        },
        (ListLen { lo: ol, hi: oh }, ListLen { lo: jl, hi: jh }) => ListLen {
            lo: if jl < ol { 0 } else { *jl },
            hi: if jh > oh { LINF } else { *jh },
        },
        (DictLen { lo: ol, hi: oh }, DictLen { lo: jl, hi: jh }) => DictLen {
            lo: if jl < ol { 0 } else { *jl },
            hi: if jh > oh { LINF } else { *jh },
        },
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
/// unset at runtime (falling through to globals / a name error).
#[derive(Debug, Clone, PartialEq)]
struct Binding {
    val: AbsVal,
    maybe_unset: bool,
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
struct State {
    /// False once execution provably faults (error paths never
    /// complete, so nothing downstream needs a bound).
    live: bool,
    regs: Vec<AbsVal>,
    /// Function chunks: slot-indexed locals. Empty for main.
    locals: Vec<Binding>,
    /// Main chunk: flow-sensitive globals by name index. Empty for
    /// function chunks (which read the immutable entry summary).
    globals: Vec<Binding>,
}

impl State {
    fn join_into(&mut self, other: &State, widen_point: bool) -> bool {
        if !other.live {
            return false;
        }
        if !self.live {
            *self = other.clone();
            return true;
        }
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            let next = if widen_point { widen(a, b) } else { join(a, b) };
            if next != *a {
                *a = next;
                changed = true;
            }
        }
        for (a, b) in self.locals.iter_mut().zip(&other.locals) {
            let next = if widen_point { a.widen(b) } else { a.join(b) };
            if next != *a {
                *a = next;
                changed = true;
            }
        }
        for (a, b) in self.globals.iter_mut().zip(&other.globals) {
            let next = if widen_point { a.widen(b) } else { a.join(b) };
            if next != *a {
                *a = next;
                changed = true;
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Block {
    /// Instruction index range `[start, end)`.
    start: usize,
    end: usize,
    succs: Vec<usize>,
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

/// Reverse postorder from block 0 (unreachable blocks excluded).
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

/// Iterative dominator computation (Cooper–Harvey–Kennedy).
fn dominators(blocks: &[Block], rpo: &[usize], preds: &[Vec<usize>]) -> Vec<Option<usize>> {
    let mut rpo_index = vec![usize::MAX; blocks.len()];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b] = i;
    }
    let mut idom: Vec<Option<usize>> = vec![None; blocks.len()];
    idom[0] = Some(0);
    let intersect = |idom: &[Option<usize>], rpo_index: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = idom[a].expect("processed");
            }
            while rpo_index[b] > rpo_index[a] {
                b = idom[b].expect("processed");
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<usize> = None;
            for &p in &preds[b] {
                if rpo_index[p] == usize::MAX || idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &rpo_index, cur, p),
                });
            }
            if new_idom != idom[b] {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

fn dominates(idom: &[Option<usize>], a: usize, b: usize) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur] {
            Some(d) if d != cur => cur = d,
            _ => return false,
        }
    }
}

#[derive(Debug, Clone)]
struct Loop {
    header: usize,
    /// All blocks in the natural loop (header included).
    body: BTreeSet<usize>,
    latches: Vec<usize>,
}

/// Natural loops from retreating edges; `None` if the CFG is
/// irreducible (a retreating edge whose target does not dominate its
/// source — the compiler never emits one).
fn find_loops(blocks: &[Block], rpo: &[usize], preds: &[Vec<usize>]) -> Option<Vec<Loop>> {
    let idom = dominators(blocks, rpo, preds);
    let mut rpo_index = vec![usize::MAX; blocks.len()];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b] = i;
    }
    let mut by_header: BTreeMap<usize, Loop> = BTreeMap::new();
    for &u in rpo {
        for &v in &blocks[u].succs {
            if rpo_index[v] == usize::MAX || rpo_index[v] > rpo_index[u] {
                continue;
            }
            // Retreating edge u -> v.
            if !dominates(&idom, v, u) {
                return None;
            }
            let l = by_header.entry(v).or_insert_with(|| Loop {
                header: v,
                body: BTreeSet::from([v]),
                latches: Vec::new(),
            });
            l.latches.push(u);
            // Backward walk from the latch, stopping at the header.
            let mut stack = vec![u];
            while let Some(n) = stack.pop() {
                if l.body.insert(n) {
                    for &p in &preds[n] {
                        if rpo_index[p] != usize::MAX {
                            stack.push(p);
                        }
                    }
                }
            }
        }
    }
    Some(by_header.into_values().collect())
}

// ---------------------------------------------------------------------------
// Per-chunk abstract interpretation
// ---------------------------------------------------------------------------

/// Immutable context shared by the transfer function.
struct ChunkCx<'p> {
    program: &'p CompiledProgram,
    is_main: bool,
    /// Entry global environment (function chunks only).
    genv: &'p [Binding],
}

impl<'p> ChunkCx<'p> {
    fn name(&self, ix: u16) -> &str {
        &self.program.pools.names[ix as usize]
    }

    /// The global binding visible at this point.
    fn global<'s>(&'s self, st: &'s State, name: u16) -> &'s Binding {
        if self.is_main {
            &st.globals[name as usize]
        } else {
            &self.genv[name as usize]
        }
    }

    /// Composite local-then-global resolution, mirroring the VM's
    /// `Load`/`CallName` fallthrough.
    fn binding_of(&self, st: &State, name: u16, slot: u16) -> Binding {
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
        Const::Bool(b) => {
            let v = *b as i128;
            Int { lo: v, hi: v }
        }
        Const::Str(s) => {
            let n = s.chars().count() as u64;
            StrLen { lo: n, hi: n }
        }
        Const::Float(_) | Const::None => Top,
    }
}

/// Any call may mutate lists/dicts through `Rc` aliases; lengths lose
/// their upper bounds. Strings are immutable and survive.
fn havoc_mutables(st: &mut State) {
    let degrade = |v: &mut AbsVal| match v {
        ListLen { lo, hi } => {
            *lo = 0;
            *hi = LINF;
        }
        DictLen { lo, hi } => {
            *lo = 0;
            *hi = LINF;
        }
        _ => {}
    };
    for r in &mut st.regs {
        degrade(r);
    }
    for b in &mut st.locals {
        degrade(&mut b.val);
    }
    for b in &mut st.globals {
        degrade(&mut b.val);
    }
}

/// Index stores can only grow dict key sets (list lengths are stable).
fn bump_dicts(st: &mut State) {
    let bump = |v: &mut AbsVal| {
        if let DictLen { hi, .. } = v {
            *hi = ladd(*hi, 1);
        }
    };
    for r in &mut st.regs {
        bump(r);
    }
    for b in &mut st.locals {
        bump(&mut b.val);
    }
    for b in &mut st.globals {
        bump(&mut b.val);
    }
}

fn abs_bin(op: BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    match op {
        BinOp::Add => match (a, b) {
            (Int { lo: al, hi: ah }, Int { lo: bl, hi: bh }) => Int {
                lo: iadd(*al, *bl),
                hi: iadd(*ah, *bh),
            },
            (StrLen { lo: al, hi: ah }, StrLen { lo: bl, hi: bh }) => StrLen {
                lo: ladd(*al, *bl),
                hi: ladd(*ah, *bh),
            },
            (ListLen { lo: al, hi: ah }, ListLen { lo: bl, hi: bh }) => ListLen {
                lo: ladd(*al, *bl),
                hi: ladd(*ah, *bh),
            },
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
        BinOp::Eq
        | BinOp::NotEq
        | BinOp::Lt
        | BinOp::LtEq
        | BinOp::Gt
        | BinOp::GtEq
        | BinOp::In
        | BinOp::NotIn => Int { lo: 0, hi: 1 },
        _ => Top,
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
        "bool" => Int { lo: 0, hi: 1 },
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
        _ => {
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
fn transfer(cx: &ChunkCx, st: &mut State, insn: &Insn) {
    if !st.live {
        return;
    }
    match insn {
        Insn::Burn { .. }
        | Insn::DictKey { .. }
        | Insn::Jump { .. }
        | Insn::JumpFalse { .. }
        | Insn::JumpTrue { .. }
        | Insn::IterNew { .. }
        | Insn::IterPop
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
            if b.val == Bottom {
                // No path binds this name: the load always faults.
                st.live = false;
            } else {
                st.regs[*dst as usize] = b.val;
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
            st.regs[*dst as usize] = abs_bin(
                *op,
                &st.regs[*a as usize].clone(),
                &st.regs[*b as usize].clone(),
            );
        }
        Insn::Neg { dst, src, .. } => {
            st.regs[*dst as usize] = match &st.regs[*src as usize] {
                Int { lo, hi } => Int {
                    lo: isub(0, *hi),
                    hi: isub(0, *lo),
                },
                _ => Top,
            };
        }
        Insn::Not { dst, .. } => {
            st.regs[*dst as usize] = Int { lo: 0, hi: 1 };
        }
        Insn::GetIndex { dst, .. } => {
            st.regs[*dst as usize] = Top;
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
        Insn::IterNext { dst, .. } => {
            st.regs[*dst as usize] = Top;
        }
        Insn::Bind { vars, .. } => {
            for &(name, slot) in &cx.program.pools.var_lists[*vars as usize] {
                if slot != NO_REG && !cx.is_main {
                    st.locals[slot as usize] = Binding::set(Top);
                } else {
                    st.globals[name as usize] = Binding::set(Top);
                }
            }
        }
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
        Insn::CallName {
            dst,
            name,
            slot,
            base,
            argc,
            ..
        } => {
            let b = cx.binding_of(st, *name, *slot);
            match classify_callee(&b) {
                CallKind::External => {
                    let name_str = cx.name(*name);
                    if builtin(name_str).is_some() {
                        let args: Vec<AbsVal> = (0..*argc)
                            .map(|i| st.regs[(*base + i) as usize].clone())
                            .collect();
                        st.regs[*dst as usize] = abs_builtin(name_str, &args);
                    } else {
                        havoc_mutables(st);
                        st.regs[*dst as usize] = Top;
                    }
                }
                CallKind::Error => st.live = false,
                _ => {
                    havoc_mutables(st);
                    st.regs[*dst as usize] = Top;
                }
            }
        }
        Insn::CallValue { dst, .. } | Insn::CallMethod { dst, .. } => {
            havoc_mutables(st);
            st.regs[*dst as usize] = Top;
        }
    }
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

/// Usage of one basic block, resolving call sites against the
/// dataflow state threaded through the block.
fn block_usage(
    cx: &ChunkCx,
    entry: Option<&State>,
    block: &Block,
    code: &[Insn],
    summaries: &Summaries,
) -> Usage {
    let mut usage = Usage::default();
    let Some(entry) = entry else {
        return usage; // Unreachable block: costs nothing.
    };
    let mut st = entry.clone();
    for insn in &code[block.start..block.end] {
        if !st.live {
            break;
        }
        match insn {
            Insn::Burn { n, .. } => usage.add_fuel(*n as u64),
            Insn::CallName { name, slot, .. } => {
                let b = cx.binding_of(&st, *name, *slot);
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
                Bottom | Int { .. } | StrLen { .. } | ListLen { .. } | DictLen { .. } => {}
                Top => usage.mark_open(),
            },
            _ => {}
        }
        transfer(cx, &mut st, insn);
    }
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

/// Runs the symbolic scan over one block alongside the abstract state
/// (needed to evaluate non-constant comparison bounds).
fn scan_block_syms(cx: &ChunkCx, entry: &State, block: &Block, code: &[Insn]) -> HashMap<u16, Sym> {
    let mut syms: HashMap<u16, Sym> = HashMap::new();
    let mut st = entry.clone();
    for insn in &code[block.start..block.end] {
        match insn {
            Insn::Load {
                dst, name, slot, ..
            } => {
                syms.insert(*dst, Sym::LoadOf(var_key(cx, *name, *slot)));
            }
            Insn::Const { dst, idx } => {
                let sym = match &cx.program.pools.consts[*idx as usize] {
                    Const::Int(v) => Sym::ConstInt(*v as i128),
                    _ => Sym::Other,
                };
                syms.insert(*dst, sym);
            }
            Insn::Bin { op, dst, a, b, .. } => {
                let sa = syms.get(a).cloned().unwrap_or(Sym::Other);
                let sb = syms.get(b).cloned().unwrap_or(Sym::Other);
                let sym = bin_sym(*op, &sa, &sb, &st.regs[*a as usize], &st.regs[*b as usize]);
                syms.insert(*dst, sym);
            }
            other => {
                // Anything else writing a register loses its shape.
                if let Some(dst) = insn_dst(other) {
                    syms.insert(dst, Sym::Other);
                }
            }
        }
        transfer(cx, &mut st, insn);
        if !st.live {
            break;
        }
    }
    syms
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

/// Everything the loop-collapse pass needs about one chunk.
struct ChunkFlow<'p> {
    cx: ChunkCx<'p>,
    code: &'p [Insn],
    blocks: Vec<Block>,
    preds: Vec<Vec<usize>>,
    loops: Vec<Loop>,
    /// Fixpoint entry state per block (`None` = unreachable).
    entry: Vec<Option<State>>,
}

impl<'p> ChunkFlow<'p> {
    /// Out-state of a block (re-runs the transfer function).
    fn out_state(&self, b: usize) -> Option<State> {
        let mut st = self.entry[b].clone()?;
        for insn in &self.code[self.blocks[b].start..self.blocks[b].end] {
            transfer(&self.cx, &mut st, insn);
        }
        st.live.then_some(st)
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
    /// all entry edges (used for the induction variable's start).
    fn entry_binding(&self, l: &Loop, key: VarKey) -> Option<Binding> {
        let mut acc: Option<Binding> = None;
        for &p in &self.preds[l.header] {
            if l.body.contains(&p) {
                continue;
            }
            let st = self.out_state(p)?;
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
            let blk = &self.blocks[b];
            let Some(entry) = self.entry[b].as_ref() else {
                continue;
            };
            let mut has_store = false;
            let mut all_increments = true;
            let mut syms: HashMap<u16, Sym> = HashMap::new();
            let mut st = entry.clone();
            for insn in &self.code[blk.start..blk.end] {
                match insn {
                    Insn::Store { name, slot, src } => {
                        if var_key(&self.cx, *name, *slot) == var {
                            has_store = true;
                            match syms.get(src) {
                                Some(Sym::AddConst(v, c)) if *v == var => {
                                    c_min = Some(c_min.map_or(*c, |m| m.min(*c)));
                                }
                                _ => all_increments = false,
                            }
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
                    Insn::Load {
                        dst, name, slot, ..
                    } => {
                        syms.insert(*dst, Sym::LoadOf(var_key(&self.cx, *name, *slot)));
                    }
                    Insn::Const { dst, idx } => {
                        let sym = match &self.cx.program.pools.consts[*idx as usize] {
                            Const::Int(v) => Sym::ConstInt(*v as i128),
                            _ => Sym::Other,
                        };
                        syms.insert(*dst, sym);
                    }
                    Insn::Bin { op, dst, a, b, .. } => {
                        let sa = syms.get(a).cloned().unwrap_or(Sym::Other);
                        let sb = syms.get(b).cloned().unwrap_or(Sym::Other);
                        let sym =
                            bin_sym(*op, &sa, &sb, &st.regs[*a as usize], &st.regs[*b as usize]);
                        syms.insert(*dst, sym);
                    }
                    other => {
                        if let Some(dst) = insn_dst(other) {
                            syms.insert(dst, Sym::Other);
                        }
                    }
                }
                transfer(&self.cx, &mut st, insn);
                if !st.live {
                    break;
                }
            }
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
        let Some(header_entry) = self.entry[l.header].as_ref() else {
            return Bound::Finite(0); // Loop never entered.
        };
        if let Insn::IterNext { .. } = self.code[header.start] {
            return self.for_trip_bound(l);
        }
        // While shape: single-block condition ending in JumpFalse out.
        let Insn::JumpFalse { src, to } = self.code[header.end - 1] else {
            return Bound::Unbounded;
        };
        let exits_loop = {
            let target = self
                .blocks
                .iter()
                .position(|b| b.start == to as usize)
                .unwrap_or(usize::MAX);
            !l.body.contains(&target)
        };
        if !exits_loop {
            return Bound::Unbounded;
        }
        let syms = scan_block_syms(&self.cx, header_entry, header, self.code);
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
            .filter(|p| !l.body.contains(p))
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
            Int { .. } | Funcs(_) | Bottom => Bound::Finite(0),
            Top => Bound::Unbounded,
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk analysis driver
// ---------------------------------------------------------------------------

/// Runs CFG construction + interval fixpoint for one chunk. Returns
/// `None` when the CFG is irreducible.
fn analyze_chunk<'p>(
    program: &'p CompiledProgram,
    chunk: &'p Chunk,
    is_main: bool,
    genv: &'p [Binding],
    nlocals: usize,
    params: usize,
) -> Option<ChunkFlow<'p>> {
    if chunk.code.is_empty() {
        // Defensive: compiled chunks always end in Ret/Halt.
        return None;
    }
    let blocks = build_blocks(chunk);
    let preds = predecessors(&blocks);
    let rpo = reverse_postorder(&blocks);
    let loops = find_loops(&blocks, &rpo, &preds)?;
    let headers: BTreeSet<usize> = loops.iter().map(|l| l.header).collect();
    let cx = ChunkCx {
        program,
        is_main,
        genv,
    };

    let init = State {
        live: true,
        regs: vec![Bottom; chunk.nregs as usize],
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
            vec![Binding::unset(); program.pools.names.len()]
        } else {
            Vec::new()
        },
    };

    let mut entry: Vec<Option<State>> = vec![None; blocks.len()];
    entry[0] = Some(init);
    let mut rpo_pos = vec![usize::MAX; blocks.len()];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_pos[b] = i;
    }
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
        for &s in &blocks[b].succs {
            let widen_point = headers.contains(&s);
            let changed = match &mut entry[s] {
                Some(cur) => cur.join_into(&st, widen_point),
                slot @ None => {
                    *slot = Some(st.clone());
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
    let mut node_usage: Vec<Usage> = (0..n)
        .map(|b| {
            block_usage(
                &flow.cx,
                flow.entry[b].as_ref(),
                &flow.blocks[b],
                flow.code,
                summaries,
            )
        })
        .collect();
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
        let sub_edges: Vec<(usize, usize)> = inner
            .iter()
            .flat_map(|&u| {
                succs[u]
                    .iter()
                    .copied()
                    .filter(|v| inner.contains(v) && *v != l.header)
                    .map(move |v| (u, v))
            })
            .collect();
        let order = topo_order(&inner, &sub_edges);
        let mut acc: HashMap<usize, Usage> = HashMap::new();
        acc.insert(l.header, node_usage[l.header].clone());
        let mut per_iter = node_usage[l.header].clone();
        for &u in &order {
            let Some(u_acc) = acc.get(&u).cloned() else {
                continue;
            };
            per_iter.max_with(&u_acc);
            for &(x, v) in sub_edges.iter().filter(|&&(x, _)| x == u) {
                debug_assert_eq!(x, u);
                let mut cand = u_acc.clone();
                cand.add(&node_usage[v]);
                match acc.get_mut(&v) {
                    Some(cur) => cur.max_with(&cand),
                    None => {
                        acc.insert(v, cand);
                    }
                }
            }
        }
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
    let edges: Vec<(usize, usize)> = live
        .iter()
        .flat_map(|&u| {
            succs[u]
                .iter()
                .copied()
                .filter(|v| live.contains(v))
                .map(move |v| (u, v))
        })
        .collect();
    let order = topo_order(&live, &edges);
    let mut acc: HashMap<usize, Usage> = HashMap::new();
    acc.insert(0, node_usage[0].clone());
    let mut worst = node_usage[0].clone();
    for &u in &order {
        let Some(u_acc) = acc.get(&u).cloned() else {
            continue;
        };
        worst.max_with(&u_acc);
        for &(x, v) in edges.iter().filter(|&&(x, _)| x == u) {
            debug_assert_eq!(x, u);
            let mut cand = u_acc.clone();
            cand.add(&node_usage[v]);
            match acc.get_mut(&v) {
                Some(cur) => cur.max_with(&cand),
                None => {
                    acc.insert(v, cand);
                }
            }
        }
    }
    worst
}

/// Kahn topological order over an explicit node set + edge list.
/// Cycles cannot occur here (loops are collapsed before use), but any
/// leftover cyclic nodes are simply dropped, which under-counts
/// nothing: the caller treats missing accumulator entries as
/// unreachable.
fn topo_order(nodes: &BTreeSet<usize>, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut indeg: BTreeMap<usize, usize> = nodes.iter().map(|&n| (n, 0)).collect();
    for &(_, v) in edges {
        *indeg.get_mut(&v).expect("edge into node set") += 1;
    }
    let mut ready: Vec<usize> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    let mut order = Vec::with_capacity(nodes.len());
    while let Some(u) = ready.pop() {
        order.push(u);
        for &(x, v) in edges.iter().filter(|&&(x, _)| x == u) {
            debug_assert_eq!(x, u);
            let d = indeg.get_mut(&v).expect("edge into node set");
            *d -= 1;
            if *d == 0 {
                ready.push(v);
            }
        }
    }
    order
}

// ---------------------------------------------------------------------------
// Whole-program analysis
// ---------------------------------------------------------------------------

/// Entry global summary for function chunks: the join of everything
/// main ever stores per name, with list/dict lengths pre-havocked (a
/// callee may observe them mid-mutation at any time).
fn main_global_summary(program: &CompiledProgram, main_flow: &ChunkFlow) -> Vec<Binding> {
    let mut genv: Vec<Binding> = vec![Binding::unset(); program.pools.names.len()];
    for (b, blk) in main_flow.blocks.iter().enumerate() {
        let Some(entry) = main_flow.entry[b].as_ref() else {
            continue;
        };
        let mut st = entry.clone();
        for insn in &main_flow.code[blk.start..blk.end] {
            if st.live {
                match insn {
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
                }
            }
            transfer(&main_flow.cx, &mut st, insn);
        }
    }
    for b in &mut genv {
        // Callers may run at any point of main's execution.
        b.maybe_unset = true;
        if let ListLen { lo, hi } | DictLen { lo, hi } = &mut b.val {
            *lo = 0;
            *hi = LINF;
        }
    }
    genv
}

/// Analyzes a compiled program, producing a sound [`CostBound`].
pub fn analyze(program: &CompiledProgram) -> CostBound {
    // Defensive: the compiler slots every name a function assigns; a
    // global store from a function chunk would break the entry-summary
    // construction, so bail to unbounded rather than risk a wrong
    // number.
    for f in &program.pools.funcs {
        for insn in &f.chunk.code {
            match insn {
                Insn::Store { slot, .. } if *slot == NO_REG => return CostBound::unbounded_all(),
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

    let empty_genv: Vec<Binding> = Vec::new();
    let Some(main_flow) = analyze_chunk(program, &program.main, true, &empty_genv, 0, 0) else {
        return CostBound::unbounded_all();
    };

    let genv = main_global_summary(program, &main_flow);

    // Per-function dataflow.
    let mut fn_flows: Vec<Option<ChunkFlow>> = Vec::with_capacity(program.pools.funcs.len());
    for f in &program.pools.funcs {
        fn_flows.push(analyze_chunk(
            program,
            &f.chunk,
            false,
            &genv,
            f.locals.len(),
            f.params.len(),
        ));
    }

    // Call graph over function chunks (callee sets from the dataflow).
    let callees_of = |flow: &ChunkFlow| -> BTreeSet<u16> {
        let mut set = BTreeSet::new();
        for (b, blk) in flow.blocks.iter().enumerate() {
            let Some(entry) = flow.entry[b].as_ref() else {
                continue;
            };
            let mut st = entry.clone();
            for insn in &flow.code[blk.start..blk.end] {
                if st.live {
                    match insn {
                        Insn::CallName { name, slot, .. } => {
                            if let CallKind::User { funcs, .. } =
                                classify_callee(&flow.cx.binding_of(&st, *name, *slot))
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
                    }
                }
                transfer(&flow.cx, &mut st, insn);
            }
        }
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

    let usage = chunk_usage(&main_flow, &summaries);
    let calls: BTreeMap<String, Bound> = usage
        .calls
        .iter()
        .map(|(&ix, &b)| (program.pools.names[ix as usize].clone(), b))
        .collect();
    CostBound::finish(usage.fuel_bound(), calls, usage.open)
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
}
