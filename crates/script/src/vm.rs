//! Register VM: the one Pyrite executor.
//!
//! [`Interpreter::run_compiled`] runs a [`CompiledProgram`] as a flat
//! instruction loop over a contiguous register file, with slot-addressed
//! locals and an explicit call stack. State lives in the [`Interpreter`]
//! — slot-addressed globals, host functions, fuel counter, recursion
//! depth, print capture — and everything beyond moving values between
//! registers goes through its kernels (`binary`, `index`, `store_index`,
//! `slice`, `call_builtin`, `call_method`, `iter_value`).
//!
//! A function value ([`UserFn`]) shares its program's [`Pools`], so a
//! function an earlier program defined — a decoded artifact's included —
//! runs here like one of the current program's. Each program a run
//! enters is *linked* once: its name table is resolved to the
//! interpreter's global slots.
//!
//! `tests/differential.rs` checks the VM against an independent
//! AST-walking oracle: the same value (or error `Display`), host-call
//! sequence, captured `print` output and [`Interpreter::fuel_remaining`].

use crate::ast::BinOp;
use crate::bytecode::{Chunk, CompiledProgram, Const, Insn, Pools, NO_REG};
use crate::error::ScriptError;
use crate::interp::{self, Interpreter, MAX_DEPTH, MAX_RUN_BYTES};
use crate::value::{ScriptValue, UserFn};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// One activation record. Registers live in a shared file at
/// `reg_base..reg_base + chunk.nregs`; locals live in a shared
/// slot-addressed pool at `locals_base..` (`None` = not yet assigned in
/// this frame, falling through to globals). Both pools are plain `Vec`s
/// truncated on return, so a call allocates nothing once the pools have
/// grown to the program's peak depth.
struct Frame {
    func: usize,
    /// The run's link for the program `func` belongs to.
    link: usize,
    pc: usize,
    reg_base: usize,
    ret_dst: usize,
    iter_base: usize,
    locals_base: usize,
}

/// `usize::MAX` marks the main frame (no `funcs` entry, no caller).
const MAIN: usize = usize::MAX;

/// A program entered by this run: its pools, and its name table resolved
/// to the interpreter's global slots (`slots[name id]`).
struct Link {
    pools: Arc<Pools>,
    slots: Vec<usize>,
}

impl Link {
    fn new(interp: &mut Interpreter, pools: &Arc<Pools>) -> Link {
        Link {
            slots: pools.names.iter().map(|n| interp.global_slot(n)).collect(),
            pools: pools.clone(),
        }
    }
}

/// A call to a user function, resolved and ready for a frame.
struct Call {
    func: Rc<UserFn>,
    base: u16,
    argc: u16,
    dst: u16,
    line: usize,
}

impl Interpreter {
    /// Executes a compiled program against this interpreter's globals,
    /// host functions, and fuel budget: the fuel budget is refreshed,
    /// globals persist, and the result is the final top-level expression
    /// statement's value (or an early top-level `return`).
    pub fn run_compiled(&mut self, program: &CompiledProgram) -> Result<ScriptValue, ScriptError> {
        self.fuel = self.fuel_limit;
        self.bytes_left.set(MAX_RUN_BYTES);
        let entry_depth = self.depth;
        let mut links = vec![Link::new(self, &program.pools)];
        let mut vm = Vm {
            regs: vec![ScriptValue::None; program.main.nregs as usize],
            locals: Vec::new(),
            iters: Vec::new(),
            frames: vec![Frame {
                func: MAIN,
                link: 0,
                pc: 0,
                reg_base: 0,
                ret_dst: 0,
                iter_base: 0,
                locals_base: 0,
            }],
            base: 0,
            lbase: 0,
            last: ScriptValue::None,
        };
        let result = vm.run(self, &program.main, &mut links);
        // Errors unwind the whole VM stack at once; restore the depth
        // frame-by-frame returns would have restored.
        if result.is_err() {
            self.depth = entry_depth;
        }
        result
    }
}

fn const_value(c: &Const) -> ScriptValue {
    match c {
        Const::Int(v) => ScriptValue::Int(*v),
        Const::Float(v) => ScriptValue::Float(*v),
        Const::Str(s) => ScriptValue::str(s.clone()),
        Const::Bool(b) => ScriptValue::Bool(*b),
        Const::None => ScriptValue::None,
    }
}

/// VM execution state: the register file, local slots, iterator stack
/// and call stack.
struct Vm {
    regs: Vec<ScriptValue>,
    locals: Vec<Option<ScriptValue>>,
    iters: Vec<(Vec<ScriptValue>, usize)>,
    frames: Vec<Frame>,
    /// Cached copies of the top frame's `reg_base`/`locals_base`, so the
    /// per-access hot path is a single add instead of `frames.last()`.
    base: usize,
    lbase: usize,
    last: ScriptValue,
}

impl Vm {
    /// The dispatch loop. `pc` lives in a local and the current chunk is
    /// re-resolved only when the frame changes (call, return), so the
    /// per-instruction path is fetch → one match — no `frames.last()`
    /// chase, no second routing match for flow control. Jumps and
    /// `IterNext` are inlined here because they are the only
    /// instructions that write the pc. A call into a program this run
    /// has not entered yet links it first; `links` grows only at such a
    /// frame change, when no chunk borrowed from it is live.
    fn run(
        &mut self,
        interp: &mut Interpreter,
        main: &Chunk,
        links: &mut Vec<Link>,
    ) -> Result<ScriptValue, ScriptError> {
        let (mut func, mut link_ix, mut pc) = (MAIN, 0, 0);
        'frame: loop {
            let link = &links[link_ix];
            let code: &[Insn] = if func == MAIN {
                &main.code
            } else {
                &link.pools.funcs[func].chunk.code
            };
            loop {
                let Some(&insn) = code.get(pc) else {
                    // Defensive: well-formed chunks always end in Ret/Halt.
                    return Ok(self.last.clone());
                };
                pc += 1;
                match insn {
                    Insn::Jump { to } => pc = to as usize,
                    Insn::JumpFalse { src, to } => {
                        if !self.regs[self.r(src)].truthy() {
                            pc = to as usize;
                        }
                    }
                    Insn::JumpTrue { src, to } => {
                        if self.regs[self.r(src)].truthy() {
                            pc = to as usize;
                        }
                    }
                    Insn::IterNext { dst, done } => {
                        let (items, pos) = self.iters.last_mut().expect("IterNew pushed");
                        if *pos < items.len() {
                            let item = items[*pos].clone();
                            *pos += 1;
                            self.set(dst, item);
                        } else {
                            self.iters.pop();
                            pc = done as usize;
                        }
                    }
                    Insn::Ret { src } => {
                        let value = if src == NO_REG {
                            ScriptValue::None
                        } else {
                            self.regs[self.r(src)].clone()
                        };
                        match self.pop_frame(interp, value) {
                            Some(result) => return Ok(result),
                            None => {
                                let top = self.frames.last().expect("caller frame");
                                (func, link_ix, pc) = (top.func, top.link, top.pc);
                                continue 'frame;
                            }
                        }
                    }
                    Insn::Halt => return Ok(self.last.clone()),
                    Insn::IterNew { .. }
                    | Insn::IterPop
                    | Insn::Bind { .. }
                    | Insn::LoopMisuse { .. } => self.step_flow(interp, link, insn)?,
                    Insn::CallName { .. } | Insn::CallValue { .. } => {
                        let Some(call) = self.step_call(interp, link, insn)? else {
                            continue;
                        };
                        // Persist the resume point: the callee's `Ret`
                        // reads it from the frame.
                        self.frames.last_mut().expect("frame").pc = pc;
                        let pools = &call.func.pools;
                        link_ix = match links.iter().position(|l| Arc::ptr_eq(&l.pools, pools)) {
                            Some(ix) => ix,
                            None => {
                                links.push(Link::new(interp, pools));
                                links.len() - 1
                            }
                        };
                        func = call.func.idx;
                        self.push_frame(interp, call, link_ix)?;
                        pc = 0;
                        continue 'frame;
                    }
                    other => self.step_data(interp, link, other)?,
                }
            }
        }
    }

    /// Unwinds one frame with `value` as its result. Returns the final
    /// program value when the popped frame is main, `None` otherwise.
    fn pop_frame(&mut self, interp: &mut Interpreter, value: ScriptValue) -> Option<ScriptValue> {
        let done = self.frames.pop().expect("frame");
        self.iters.truncate(done.iter_base);
        if done.func == MAIN {
            return Some(value);
        }
        interp.depth -= 1;
        self.regs.truncate(done.reg_base);
        self.locals.truncate(done.locals_base);
        let top = self.frames.last().expect("caller frame");
        self.base = top.reg_base;
        self.lbase = top.locals_base;
        self.regs[done.ret_dst] = value;
        None
    }

    /// Absolute register index of `i` in the current frame's window.
    fn r(&self, i: u16) -> usize {
        self.base + i as usize
    }

    /// The current frame's local slot, if addressed and assigned.
    fn local(&self, slot: u16) -> Option<ScriptValue> {
        if slot == NO_REG {
            return None;
        }
        self.locals[self.lbase + slot as usize].clone()
    }

    /// Stores through a (name, slot) pair: slot-addressed locals in the
    /// current frame, else the global slot `link` resolves the name to.
    fn store(
        &mut self,
        interp: &mut Interpreter,
        link: &Link,
        name: u16,
        slot: u16,
        value: ScriptValue,
    ) {
        if slot != NO_REG {
            self.locals[self.lbase + slot as usize] = Some(value);
        } else {
            interp.globals[link.slots[name as usize]] = Some(value);
        }
    }

    /// Copies the `argc` argument registers starting at `base` out.
    fn args(&self, base: u16, argc: u16) -> Vec<ScriptValue> {
        let b = self.r(base);
        self.regs[b..b + argc as usize].to_vec()
    }

    /// Writes `value` into register `dst` of the current frame.
    fn set(&mut self, dst: u16, value: ScriptValue) {
        let d = self.r(dst);
        self.regs[d] = value;
    }

    /// Register/data instructions: never touch the pc or the call stack.
    fn step_data(
        &mut self,
        interp: &mut Interpreter,
        link: &Link,
        insn: Insn,
    ) -> Result<(), ScriptError> {
        let pools = &*link.pools;
        match insn {
            Insn::Burn { n, line: _ } => {
                let n = n as u64;
                if interp.fuel < n {
                    interp.fuel = 0;
                    return Err(ScriptError::FuelExhausted);
                }
                interp.fuel -= n;
            }
            Insn::Const { dst, idx } => {
                self.set(dst, const_value(&pools.consts[idx as usize]));
            }
            Insn::Load {
                dst,
                name,
                slot,
                line,
            } => {
                let value = match self.local(slot) {
                    Some(v) => v,
                    None => match &interp.globals[link.slots[name as usize]] {
                        Some(v) => v.clone(),
                        None => {
                            return Err(ScriptError::Name {
                                line: line as usize,
                                name: pools.names[name as usize].clone(),
                            })
                        }
                    },
                };
                self.set(dst, value);
            }
            Insn::Store { name, slot, src } => {
                let value = self.regs[self.r(src)].clone();
                self.store(interp, link, name, slot, value);
            }
            Insn::MakeList { dst, base, n } => {
                let items = self.args(base, n);
                self.set(dst, ScriptValue::list(items));
            }
            Insn::NewDict { dst } => {
                self.set(dst, ScriptValue::dict(BTreeMap::new()));
            }
            Insn::DictKey { reg, line } => {
                interp::dict_key(&self.regs[self.r(reg)], line as usize)?;
            }
            Insn::DictSet { dict, key, val } => {
                let k = self.regs[self.r(key)]
                    .as_str()
                    .expect("DictKey checked")
                    .to_string();
                let v = self.regs[self.r(val)].clone();
                let ScriptValue::Dict(entries) = &self.regs[self.r(dict)] else {
                    unreachable!("DictSet target is a fresh dict literal");
                };
                entries.borrow_mut().insert(k, v);
            }
            Insn::Bin {
                op,
                dst,
                a,
                b,
                line,
            } => self.bin(interp, op, dst, a, b, line)?,
            Insn::Neg { dst, src, line } => {
                let value = interp::negate(&self.regs[self.r(src)], line as usize)?;
                self.set(dst, value);
            }
            Insn::Not { dst, src } => {
                let value = ScriptValue::Bool(!self.regs[self.r(src)].truthy());
                self.set(dst, value);
            }
            Insn::GetIndex { .. }
            | Insn::SetIndex { .. }
            | Insn::SliceIdx { .. }
            | Insn::Slice { .. } => self.step_index(interp, insn)?,
            Insn::MakeFunc { dst, idx } => {
                let func = UserFn {
                    pools: link.pools.clone(),
                    idx: idx as usize,
                };
                self.set(dst, ScriptValue::Func(Rc::new(func)));
            }
            Insn::Push { list, src } => {
                interp.charge_elements(1)?;
                let v = self.regs[self.r(src)].clone();
                let ScriptValue::List(items) = &self.regs[self.r(list)] else {
                    unreachable!("Push target is a fresh list literal");
                };
                items.borrow_mut().push(v);
            }
            Insn::SetLast { src } => {
                self.last = self.regs[self.r(src)].clone();
            }
            Insn::CallMethod {
                dst,
                obj,
                name,
                base,
                argc,
                line,
            } => {
                let obj_v = self.regs[self.r(obj)].clone();
                let args = self.args(base, argc);
                let method = &pools.names[name as usize];
                let v = interp.call_method(&obj_v, method, &args, line as usize)?;
                self.set(dst, v);
            }
            other => unreachable!("non-data insn {other:?} routed to step_data"),
        }
        Ok(())
    }

    /// Subscript and slice instructions, routed through the
    /// interpreter's `index`/`store_index`/`slice` kernels.
    fn step_index(&mut self, interp: &mut Interpreter, insn: Insn) -> Result<(), ScriptError> {
        match insn {
            Insn::GetIndex {
                dst,
                obj,
                key,
                line,
            } => {
                let v = interp.index(
                    &self.regs[self.r(obj)],
                    &self.regs[self.r(key)],
                    line as usize,
                )?;
                self.set(dst, v);
            }
            Insn::SetIndex {
                obj,
                key,
                src,
                line,
            } => {
                let value = self.regs[self.r(src)].clone();
                interp.store_index(
                    &self.regs[self.r(obj)],
                    &self.regs[self.r(key)],
                    value,
                    line as usize,
                )?;
            }
            Insn::SliceIdx { reg, line } => {
                let i = interp::slice_index(&self.regs[self.r(reg)], line as usize)?;
                self.set(reg, ScriptValue::Int(i));
            }
            Insn::Slice {
                dst,
                obj,
                lo,
                hi,
                line,
            } => {
                let v = {
                    let lo = self.slice_bound(lo);
                    let hi = self.slice_bound(hi);
                    interp.slice(&self.regs[self.r(obj)], lo, hi, line as usize)?
                };
                self.set(dst, v);
            }
            other => unreachable!("non-index insn {other:?} routed to step_index"),
        }
        Ok(())
    }

    /// A `Slice` bound register: `NO_REG` means the bound was omitted.
    fn slice_bound(&self, reg: u16) -> Option<i64> {
        if reg == NO_REG {
            return None;
        }
        match &self.regs[self.r(reg)] {
            ScriptValue::Int(i) => Some(*i),
            _ => unreachable!("SliceIdx coerced"),
        }
    }

    /// Iterator setup/teardown and loop-variable binding (the pc-free
    /// slice of flow control; jumps and `IterNext` live in `run`).
    fn step_flow(
        &mut self,
        interp: &mut Interpreter,
        link: &Link,
        insn: Insn,
    ) -> Result<(), ScriptError> {
        match insn {
            Insn::IterNew { src, line } => {
                let items = interp.iter_value(self.regs[self.r(src)].clone(), line as usize)?;
                self.iters.push((items, 0));
            }
            Insn::IterPop => {
                self.iters.pop();
            }
            Insn::Bind { src, vars, line } => {
                let item = self.regs[self.r(src)].clone();
                self.bind_vars(interp, link, vars, item, line as usize)?;
            }
            Insn::LoopMisuse { line } => {
                return Err(ScriptError::Parse {
                    line: line as usize,
                    col: 0,
                    message: "'break'/'continue' outside loop".into(),
                });
            }
            other => unreachable!("non-flow insn {other:?} routed to step_flow"),
        }
        Ok(())
    }

    /// Call instructions. A name bound as a local or global is called as
    /// a value, after burning one fuel for the lookup; an unbound name
    /// dispatches to a host function, else a builtin, else is a name
    /// error. Host and builtin calls complete here; a user function comes
    /// back as a [`Call`] for `run` to push.
    fn step_call(
        &mut self,
        interp: &mut Interpreter,
        link: &Link,
        insn: Insn,
    ) -> Result<Option<Call>, ScriptError> {
        let (callee, base, argc, dst, line) = match insn {
            Insn::CallName {
                dst,
                name,
                slot,
                base,
                argc,
                line,
                cline,
            } => {
                let name_str = link.pools.names[name as usize].as_str();
                let bound = match self.local(slot) {
                    Some(v) => Some(v),
                    None => interp.globals[link.slots[name as usize]].clone(),
                };
                if bound.is_none() {
                    let args = self.args(base, argc);
                    let result = match interp.host_fns.get(name_str).cloned() {
                        Some(host) => Some(host(&args)?),
                        None => interp.call_builtin(name_str, &args, line as usize)?,
                    };
                    if let Some(v) = result {
                        self.set(dst, v);
                        return Ok(None);
                    }
                }
                if interp.fuel == 0 {
                    return Err(ScriptError::FuelExhausted);
                }
                interp.fuel -= 1;
                let Some(callee) = bound else {
                    return Err(ScriptError::Name {
                        line: cline as usize,
                        name: name_str.to_string(),
                    });
                };
                (callee, base, argc, dst, line)
            }
            Insn::CallValue {
                dst,
                callee,
                base,
                argc,
                line,
            } => (self.regs[self.r(callee)].clone(), base, argc, dst, line),
            other => unreachable!("non-call insn {other:?} routed to step_call"),
        };
        let func = interp::callee_fn(callee, line as usize)?;
        Ok(Some(Call {
            func,
            base,
            argc,
            dst,
            line: line as usize,
        }))
    }

    /// Pushes the frame for `call`, whose program is the run's link
    /// `link`: arity and depth checks, arguments into the first local
    /// slots, a fresh register window.
    fn push_frame(
        &mut self,
        interp: &mut Interpreter,
        call: Call,
        link: usize,
    ) -> Result<(), ScriptError> {
        let f = call.func.compiled();
        let argc = call.argc as usize;
        if f.params.len() != argc {
            return Err(ScriptError::Type {
                line: call.line,
                message: format!(
                    "{}() takes {} arguments but {} were given",
                    f.name,
                    f.params.len(),
                    argc
                ),
            });
        }
        if interp.depth >= MAX_DEPTH {
            return Err(ScriptError::RecursionLimit);
        }
        interp.depth += 1;
        let arg_base = self.r(call.base);
        let ret_dst = self.r(call.dst);
        let locals_base = self.locals.len();
        for i in 0..argc {
            let v = self.regs[arg_base + i].clone();
            self.locals.push(Some(v));
        }
        self.locals
            .resize(locals_base + f.locals.len(), Option::None);
        let reg_base = self.regs.len();
        self.regs
            .resize(reg_base + f.chunk.nregs as usize, ScriptValue::None);
        self.frames.push(Frame {
            func: call.func.idx,
            link,
            pc: 0,
            reg_base,
            ret_dst,
            iter_base: self.iters.len(),
            locals_base,
        });
        self.base = reg_base;
        self.lbase = locals_base;
        Ok(())
    }

    /// Binds loop variables: one name takes the element; several names
    /// unpack a list element of matching length.
    fn bind_vars(
        &mut self,
        interp: &mut Interpreter,
        link: &Link,
        vars: u16,
        item: ScriptValue,
        line: usize,
    ) -> Result<(), ScriptError> {
        let list = &link.pools.var_lists[vars as usize];
        if let [(name, slot)] = list[..] {
            self.store(interp, link, name, slot, item);
            return Ok(());
        }
        let ScriptValue::List(items) = &item else {
            return Err(ScriptError::Type {
                line,
                message: format!(
                    "cannot unpack {} into {} names",
                    item.type_name(),
                    list.len()
                ),
            });
        };
        let items = items.borrow().clone();
        if items.len() != list.len() {
            return Err(ScriptError::Type {
                line,
                message: format!(
                    "cannot unpack {} values into {} names",
                    items.len(),
                    list.len()
                ),
            });
        }
        for (&(name, slot), value) in list.iter().zip(items) {
            self.store(interp, link, name, slot, value);
        }
        Ok(())
    }

    /// `Insn::Bin`: binary operator over two registers. The Int⊗Int
    /// fast path skips two operand clones and the kernel's type
    /// dispatch on the hottest arithmetic shape; `int_bin` mirrors
    /// `Interpreter::binary` byte-for-byte and returns `None` for
    /// anything it won't replicate, which falls through to the kernel.
    fn bin(
        &mut self,
        interp: &mut Interpreter,
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
        line: u32,
    ) -> Result<(), ScriptError> {
        if let (ScriptValue::Int(x), ScriptValue::Int(y)) =
            (&self.regs[self.r(a)], &self.regs[self.r(b)])
        {
            if let Some(value) = int_bin(op, *x, *y, line as usize) {
                self.set(dst, value?);
                return Ok(());
            }
        }
        let l = self.regs[self.r(a)].clone();
        let rv = self.regs[self.r(b)].clone();
        self.set(dst, interp.binary(op, l, rv, line as usize)?);
        Ok(())
    }
}

/// `Int ⊗ Int` arithmetic mirroring [`Interpreter::binary`]
/// byte-for-byte: same values, same error variants, same messages.
/// Returns `None` for operator/operand pairs the kernel must keep
/// owning (containment, boolean short-circuits), so divergence is
/// impossible by construction — the differential suite holds either
/// way. Notes tying each arm to the kernel: `Add` is the kernel's
/// unchecked `a + b`; `Sub`/`Mul` use `checked_*` with the kernel's
/// "integer overflow"; `Div` promotes to float exactly like
/// `both_floats` (an `i64` is zero iff its `f64` cast is).
fn int_bin(op: BinOp, a: i64, b: i64, line: usize) -> Option<Result<ScriptValue, ScriptError>> {
    use ScriptValue as V;
    let arith = |message: &str| ScriptError::Arithmetic {
        line,
        message: message.into(),
    };
    Some(match op {
        BinOp::Add => Ok(V::Int(a.wrapping_add(b))),
        BinOp::Sub => a
            .checked_sub(b)
            .map(V::Int)
            .ok_or_else(|| arith("integer overflow")),
        BinOp::Mul => a
            .checked_mul(b)
            .map(V::Int)
            .ok_or_else(|| arith("integer overflow")),
        BinOp::Div => {
            if b == 0 {
                Err(arith("division by zero"))
            } else {
                Ok(V::Float(a as f64 / b as f64))
            }
        }
        BinOp::FloorDiv => {
            if b == 0 {
                Err(arith("division by zero"))
            } else {
                Ok(V::Int(a.div_euclid(b)))
            }
        }
        BinOp::Mod => {
            if b == 0 {
                Err(arith("modulo by zero"))
            } else {
                Ok(V::Int(a.rem_euclid(b)))
            }
        }
        BinOp::Eq => Ok(V::Bool(a == b)),
        BinOp::NotEq => Ok(V::Bool(a != b)),
        // Ordering goes through `both_floats` in the kernel, so ints
        // beyond 2^53 compare with f64 precision — replicate that
        // rather than "fixing" it, or the oracle diverges.
        BinOp::Lt => Ok(V::Bool((a as f64) < (b as f64))),
        BinOp::LtEq => Ok(V::Bool((a as f64) <= (b as f64))),
        BinOp::Gt => Ok(V::Bool((a as f64) > (b as f64))),
        BinOp::GtEq => Ok(V::Bool((a as f64) >= (b as f64))),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use crate::bytecode::{compile_source, CompiledProgram};
    use crate::interp::Interpreter;
    use crate::value::ScriptValue;

    fn run_vm(src: &str) -> Result<ScriptValue, crate::error::ScriptError> {
        let program = compile_source(src)?;
        Interpreter::new().run_compiled(&program)
    }

    /// Runs `src` on `interp` as its own program.
    fn run_on(interp: &mut Interpreter, src: &str) -> ScriptValue {
        interp.run_compiled(&compile_source(src).unwrap()).unwrap()
    }

    #[test]
    fn arithmetic_and_result() {
        assert_eq!(
            run_vm("x = 2\ny = 3\nx * y + 1").unwrap(),
            ScriptValue::Int(7)
        );
    }

    #[test]
    fn control_flow_and_functions() {
        let src = "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\nfib(10)";
        assert_eq!(run_vm(src).unwrap(), ScriptValue::Int(55));
    }

    #[test]
    fn loops_break_continue() {
        let src = "total = 0\nfor n in range(10):\n    if n == 7:\n        break\n    if n % 2 == 0:\n        continue\n    total += n\ntotal";
        assert_eq!(run_vm(src).unwrap(), ScriptValue::Int(9));
    }

    #[test]
    fn listcomp_with_condition() {
        let src = "xs = [n * n for n in range(6) if n % 2 == 0]\nlen(xs)";
        assert_eq!(run_vm(src).unwrap(), ScriptValue::Int(3));
    }

    #[test]
    fn host_functions_dispatch() {
        let program = compile_source("double(21)").unwrap();
        let mut interp = Interpreter::new();
        interp.bind_host_fn("double", |args| {
            let n = args[0].as_int()?;
            Ok(ScriptValue::Int(n * 2))
        });
        assert_eq!(interp.run_compiled(&program).unwrap(), ScriptValue::Int(42));
    }

    #[test]
    fn globals_persist_across_compiled_runs() {
        let mut interp = Interpreter::new();
        run_on(&mut interp, "x = 40");
        assert_eq!(run_on(&mut interp, "x + 2"), ScriptValue::Int(42));
    }

    #[test]
    fn a_decoded_artifacts_function_runs_from_a_later_program() {
        let program = compile_source("def f():\n    return 41 + 1").unwrap();
        let decoded = CompiledProgram::decode(&program.encode()).unwrap();
        let mut interp = Interpreter::new();
        interp.run_compiled(&decoded).unwrap();
        assert_eq!(run_on(&mut interp, "f()"), ScriptValue::Int(42));
    }

    #[test]
    fn an_earlier_programs_function_charges_the_same_fuel() {
        // The call and the body charge what they would in one program:
        // 4 fuel for the `g(10)` statement, 27 for the body.
        let mut interp = Interpreter::new();
        run_on(
            &mut interp,
            "def g(n):\n    t = 0\n    for i in range(n):\n        t += i\n    return t",
        );
        assert_eq!(run_on(&mut interp, "g(10)"), ScriptValue::Int(45));
        assert_eq!(interp.fuel_remaining(), 1_999_969);
    }

    #[test]
    fn recursion_limit_enforced() {
        let src = "def f(n):\n    return f(n + 1)\nf(0)";
        let err = run_vm(src).unwrap_err();
        assert!(matches!(err, crate::error::ScriptError::RecursionLimit));
    }
}
