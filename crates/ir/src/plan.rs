//! Specialized execution plans and their interpreter.
//!
//! A [`Plan`] is the output of [`crate::Program::compile`] for one
//! precision assignment: straight-line steps over a raw `f64` arena
//! with every precision decision resolved to a [`RoundMode`] and every
//! access stream resolved to absolute synthetic addresses. Executing a
//! plan performs **zero** per-op config dispatch; all accounting flows
//! through the [`ExecSink`] trait so the embedder sees every charge and
//! access stream of the program.

use std::sync::Arc;

use crate::prog::{BinOp, UnOp};
use crate::round::{HalfFn, RoundMode};
use crate::Prec;

/// First synthetic base address, matching the runtime's `ExecCtx`.
pub(crate) const BASE0: u64 = 0x1000;

/// Rounds `base + bytes` up to the next cache line, matching `ExecCtx`.
#[inline]
pub(crate) fn next_base(base: u64, bytes: u64) -> u64 {
    (base + bytes + 63) & !63
}

/// A fully-resolved affine access stream: one access per committed
/// iteration at `base + k * stride` bytes. Field layout mirrors the
/// runtime's `StreamSpec` so the embedder can convert by copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRt {
    pub base: u64,
    pub elem_bytes: u8,
    pub stride: i64,
    pub write: bool,
    /// Storage precision, for load/store op accounting.
    pub prec: Prec,
}

/// A fully-resolved gather stream: iteration `k` touches
/// `base + table[k] * elem_bytes`. Counted in bulk, traced per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherRt {
    pub base: u64,
    pub elem_bytes: u8,
    pub table: u32,
    pub write: bool,
    pub prec: Prec,
}

/// One committed accounting group: the streams of one sweep/reduction.
#[derive(Debug, Clone)]
pub(crate) struct GroupRt {
    pub streams: Box<[StreamRt]>,
    pub gathers: Box<[GatherRt]>,
    pub count: usize,
}

/// Operand of a slice instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VOp {
    /// A window of the arena (absolute element offset; length = count).
    View(usize),
    /// A temporary slice.
    Temp(u32),
    /// A broadcast constant.
    K(f64),
    /// A broadcast (mutable) scalar slot, read at sweep entry.
    Scal(u32),
}

/// Three-address slice instruction of a vectorized sweep.
#[derive(Debug, Clone)]
pub(crate) enum VecInst {
    Bin {
        op: BinOp,
        dst: u32,
        a: VOp,
        b: VOp,
    },
    Un {
        op: UnOp,
        dst: u32,
        a: VOp,
    },
    /// `temps[dst] = round(a)` — a scalar-precision binding
    /// ([`crate::prog::ElemStmt::LetScal`]); no memory traffic.
    Round {
        dst: u32,
        a: VOp,
        mode: RoundMode,
    },
    /// `arena[off..off+count] = round(src)`.
    Store {
        off: usize,
        src: VOp,
        mode: RoundMode,
    },
}

/// Stack bytecode op of a serial sweep (evaluated per iteration `k`).
#[derive(Debug, Clone)]
pub(crate) enum BOp {
    /// Push `arena[off + k * step]` (element offsets).
    Load {
        off: i64,
        step: i64,
    },
    /// Push `arena[off + table[k]]`.
    Gather {
        off: usize,
        table: u32,
    },
    K(f64),
    Scal(u32),
    Local(u32),
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Exp,
    /// Round the stack top through a scalar's storage precision (a
    /// [`crate::prog::ElemStmt::LetScal`] binding; never emitted for
    /// [`RoundMode::Id`]).
    Round(RoundMode),
    /// Pop into a local.
    SetLocal(u32),
    /// Pop, round, store to `arena[off + k * step]`; optionally bind
    /// the stored value to a local.
    Store {
        off: i64,
        step: i64,
        mode: RoundMode,
        local: Option<u32>,
    },
}

/// Max operand-stack depth of serial bytecode (asserted at compile).
pub(crate) const STACK: usize = 16;

/// One straight-line step of a plan.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// Bulk flop/heavy charge (resolved to an op signature by the sink).
    Charge {
        heavy: bool,
        dst: u32,
        srcs: Box<[u32]>,
        amount: u64,
    },
    /// Commit groups `[first, first + n)` once per repeat, pass-major —
    /// the closed-form accounting of a hoisted loop (or a single sweep
    /// when `n == 1, repeats == 1`).
    Groups {
        first: u32,
        n: u32,
        repeats: u32,
    },
    /// Copy pre-rounded init data into the arena.
    InitConst {
        off: usize,
        data: Arc<[f64]>,
    },
    VecSweep {
        count: usize,
        insts: Box<[VecInst]>,
    },
    SerialSweep {
        count: usize,
        locals: u32,
        code: Box<[BOp]>,
    },
    /// `acc = round(acc + (a[k] * b[k]) * w)` — the dot superinstruction.
    ReduceDot {
        acc: u32,
        a_off: usize,
        b_off: usize,
        count: usize,
        w: f64,
        mode: RoundMode,
    },
    /// `acc = round(acc + expr(k))` with a bytecode element expression.
    ReduceSerial {
        acc: u32,
        count: usize,
        code: Box<[BOp]>,
        mode: RoundMode,
    },
    SetScalar {
        slot: u32,
        value: f64,
    },
    EmitScalar {
        slot: u32,
    },
    /// Append `arena[off..off+len]` to the program output.
    Output {
        off: usize,
        len: usize,
    },
    Loop {
        times: u32,
        body: Box<[Step]>,
    },
}

/// Runtime layout of one array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrRt {
    pub var: u32,
    pub base: u64,
    pub off: usize,
    pub len: usize,
    pub prec: Prec,
}

/// Where a plan's accounting goes: the embedder routes charges to its
/// op counters, groups to its batched tracer, gathers to per-element
/// tracing. The optimized and unoptimized plans of one program leave the
/// embedder's counters and tracer in identical states.
pub trait ExecSink {
    /// Registers array `var` (`len` elements at `prec`) and returns its
    /// synthetic base address. Called once per array, in declaration
    /// order, at the start of every run; the plan asserts the returned
    /// base matches its own precomputed layout.
    fn reserve(&mut self, var: u32, len: usize, prec: Prec) -> u64;
    /// Bulk flop (`heavy == false`) or heavy-op charge.
    fn charge(&mut self, heavy: bool, dst: u32, srcs: &[u32], amount: u64);
    /// Commits `count` iterations of an affine stream group: count every
    /// stream's loads/stores and emit one batched trace call.
    fn commit_group(&mut self, streams: &[StreamRt], count: usize);
    /// Bulk-counts `n` gathered loads/stores at `prec`.
    fn gather_counts(&mut self, prec: Prec, n: u64, write: bool);
    /// Traces one gathered element access.
    fn trace_elem(&mut self, addr: u64, bytes: u8, write: bool);
}

/// Reusable per-thread execution scratch (arena, temporaries, scalar
/// slots, output buffer).
#[derive(Debug, Default)]
pub struct Scratch {
    arena: Vec<f64>,
    temps: Vec<Vec<f64>>,
    locals: Vec<f64>,
    scal: Vec<f64>,
    out: Vec<f64>,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

/// A compiled, config-specialized execution plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) arrs: Box<[ArrRt]>,
    pub(crate) groups: Box<[GroupRt]>,
    pub(crate) steps: Box<[Step]>,
    pub(crate) tables: Box<[Arc<[usize]>]>,
    pub(crate) scal0: Box<[f64]>,
    pub(crate) half: HalfFn,
    pub(crate) arena_len: usize,
    pub(crate) n_temps: usize,
}

impl Plan {
    /// Runs the plan, returning the program output. `scratch` is reused
    /// across runs to avoid reallocation on the hot path.
    pub fn execute(&self, sink: &mut dyn ExecSink, scratch: &mut Scratch) -> Vec<f64> {
        scratch.arena.clear();
        scratch.arena.resize(self.arena_len, 0.0);
        if scratch.temps.len() < self.n_temps {
            scratch.temps.resize_with(self.n_temps, Vec::new);
        }
        scratch.scal.clear();
        scratch.scal.extend_from_slice(&self.scal0);
        scratch.out.clear();
        for a in self.arrs.iter() {
            let base = sink.reserve(a.var, a.len, a.prec);
            assert_eq!(
                base, a.base,
                "plan/runtime address layout diverged for var {}",
                a.var
            );
        }
        self.run_steps(&self.steps, sink, scratch);
        std::mem::take(&mut scratch.out)
    }

    fn run_steps(&self, steps: &[Step], sink: &mut dyn ExecSink, scratch: &mut Scratch) {
        for step in steps {
            match step {
                Step::Charge {
                    heavy,
                    dst,
                    srcs,
                    amount,
                } => sink.charge(*heavy, *dst, srcs, *amount),
                Step::Groups { first, n, repeats } => {
                    let gs = &self.groups[*first as usize..(*first + *n) as usize];
                    for _ in 0..*repeats {
                        for g in gs {
                            if g.count == 0 {
                                continue;
                            }
                            if !g.streams.is_empty() {
                                sink.commit_group(&g.streams, g.count);
                            }
                            for ga in g.gathers.iter() {
                                sink.gather_counts(ga.prec, g.count as u64, ga.write);
                                let tab = &self.tables[ga.table as usize];
                                for &idx in &tab[..g.count] {
                                    sink.trace_elem(
                                        ga.base + idx as u64 * ga.elem_bytes as u64,
                                        ga.elem_bytes,
                                        ga.write,
                                    );
                                }
                            }
                        }
                    }
                }
                Step::InitConst { off, data } => {
                    scratch.arena[*off..*off + data.len()].copy_from_slice(data);
                }
                Step::VecSweep { count, insts } => self.run_vec(*count, insts, scratch),
                Step::SerialSweep {
                    count,
                    locals,
                    code,
                } => self.run_serial(*count, *locals, code, scratch),
                Step::ReduceDot {
                    acc,
                    a_off,
                    b_off,
                    count,
                    w,
                    mode,
                } => {
                    let a = &scratch.arena[*a_off..*a_off + *count];
                    let b = &scratch.arena[*b_off..*b_off + *count];
                    let mut v = scratch.scal[*acc as usize];
                    let (w, half) = (*w, self.half);
                    match mode {
                        RoundMode::Id => {
                            for (x, y) in a.iter().zip(b) {
                                v += (x * y) * w;
                            }
                        }
                        RoundMode::F32 => {
                            for (x, y) in a.iter().zip(b) {
                                v = (v + (x * y) * w) as f32 as f64;
                            }
                        }
                        RoundMode::Ext => {
                            for (x, y) in a.iter().zip(b) {
                                v = half(v + (x * y) * w);
                            }
                        }
                    }
                    scratch.scal[*acc as usize] = v;
                }
                Step::ReduceSerial {
                    acc,
                    count,
                    code,
                    mode,
                } => {
                    let mut v = scratch.scal[*acc as usize];
                    for k in 0..*count as i64 {
                        let e = self.eval_bytecode(code, k, scratch);
                        v = mode.apply(self.half, v + e);
                    }
                    scratch.scal[*acc as usize] = v;
                }
                Step::SetScalar { slot, value } => scratch.scal[*slot as usize] = *value,
                Step::EmitScalar { slot } => {
                    let v = scratch.scal[*slot as usize];
                    scratch.out.push(v);
                }
                Step::Output { off, len } => {
                    let Scratch { arena, out, .. } = scratch;
                    out.extend_from_slice(&arena[*off..*off + *len]);
                }
                Step::Loop { times, body } => {
                    for _ in 0..*times {
                        self.run_steps(body, sink, scratch);
                    }
                }
            }
        }
    }

    fn run_vec(&self, count: usize, insts: &[VecInst], scratch: &mut Scratch) {
        for inst in insts {
            match inst {
                VecInst::Bin { op, dst, a, b } => {
                    let mut d = std::mem::take(&mut scratch.temps[*dst as usize]);
                    d.clear();
                    d.resize(count, 0.0);
                    {
                        let a = resolve(&scratch.arena, &scratch.temps, &scratch.scal, *a, count);
                        let b = resolve(&scratch.arena, &scratch.temps, &scratch.scal, *b, count);
                        match op {
                            BinOp::Add => bin2(&mut d, a, b, |x, y| x + y),
                            BinOp::Sub => bin2(&mut d, a, b, |x, y| x - y),
                            BinOp::Mul => bin2(&mut d, a, b, |x, y| x * y),
                            BinOp::Div => bin2(&mut d, a, b, |x, y| x / y),
                            BinOp::Min => bin2(&mut d, a, b, f64::min),
                        }
                    }
                    scratch.temps[*dst as usize] = d;
                }
                VecInst::Un { op, dst, a } => {
                    let mut d = std::mem::take(&mut scratch.temps[*dst as usize]);
                    d.clear();
                    d.resize(count, 0.0);
                    {
                        let a = resolve(&scratch.arena, &scratch.temps, &scratch.scal, *a, count);
                        match op {
                            UnOp::Exp => un1(&mut d, a, f64::exp),
                        }
                    }
                    scratch.temps[*dst as usize] = d;
                }
                VecInst::Round { dst, a, mode } => {
                    let half = self.half;
                    let mut d = std::mem::take(&mut scratch.temps[*dst as usize]);
                    d.clear();
                    d.resize(count, 0.0);
                    {
                        let a = resolve(&scratch.arena, &scratch.temps, &scratch.scal, *a, count);
                        un1(&mut d, a, |x| mode.apply(half, x));
                    }
                    scratch.temps[*dst as usize] = d;
                }
                VecInst::Store { off, src, mode } => {
                    let half = self.half;
                    match *src {
                        VOp::Temp(t) => {
                            let (arena, temps) = (&mut scratch.arena, &scratch.temps);
                            mode.apply_slice(
                                half,
                                &temps[t as usize][..count],
                                &mut arena[*off..*off + count],
                            );
                        }
                        VOp::View(s) => {
                            // May overlap the destination; the forward
                            // element loop matches element-wise semantics
                            // for every access pattern analysis vectorizes.
                            let arena = &mut scratch.arena;
                            for k in 0..count {
                                let v = arena[s + k];
                                arena[*off + k] = mode.apply(half, v);
                            }
                        }
                        VOp::K(v) => {
                            let r = mode.apply(half, v);
                            scratch.arena[*off..*off + count].fill(r);
                        }
                        VOp::Scal(i) => {
                            let r = mode.apply(half, scratch.scal[i as usize]);
                            scratch.arena[*off..*off + count].fill(r);
                        }
                    }
                }
            }
        }
    }

    fn run_serial(&self, count: usize, locals: u32, code: &[BOp], scratch: &mut Scratch) {
        let Scratch { locals: lbuf, .. } = scratch;
        lbuf.clear();
        lbuf.resize(locals as usize, 0.0);
        for k in 0..count as i64 {
            self.eval_bytecode(code, k, scratch);
        }
    }

    /// Evaluates serial bytecode for iteration `k`, returning the final
    /// stack value (reductions read it; sweeps discard it).
    #[inline]
    fn eval_bytecode(&self, code: &[BOp], k: i64, scratch: &mut Scratch) -> f64 {
        let Scratch {
            arena,
            locals,
            scal,
            ..
        } = scratch;
        let half = self.half;
        let mut stack = [0.0f64; STACK];
        let mut sp = 0usize;
        for op in code {
            match *op {
                BOp::Load { off, step } => {
                    stack[sp] = arena[(off + k * step) as usize];
                    sp += 1;
                }
                BOp::Gather { off, table } => {
                    stack[sp] = arena[off + self.tables[table as usize][k as usize]];
                    sp += 1;
                }
                BOp::K(v) => {
                    stack[sp] = v;
                    sp += 1;
                }
                BOp::Scal(i) => {
                    stack[sp] = scal[i as usize];
                    sp += 1;
                }
                BOp::Local(i) => {
                    stack[sp] = locals[i as usize];
                    sp += 1;
                }
                BOp::Add => {
                    sp -= 1;
                    stack[sp - 1] += stack[sp];
                }
                BOp::Sub => {
                    sp -= 1;
                    stack[sp - 1] -= stack[sp];
                }
                BOp::Mul => {
                    sp -= 1;
                    stack[sp - 1] *= stack[sp];
                }
                BOp::Div => {
                    sp -= 1;
                    stack[sp - 1] /= stack[sp];
                }
                BOp::Min => {
                    sp -= 1;
                    stack[sp - 1] = stack[sp - 1].min(stack[sp]);
                }
                BOp::Exp => stack[sp - 1] = stack[sp - 1].exp(),
                BOp::Round(mode) => stack[sp - 1] = mode.apply(half, stack[sp - 1]),
                BOp::SetLocal(i) => {
                    sp -= 1;
                    locals[i as usize] = stack[sp];
                }
                BOp::Store {
                    off,
                    step,
                    mode,
                    local,
                } => {
                    sp -= 1;
                    let v = mode.apply(half, stack[sp]);
                    arena[(off + k * step) as usize] = v;
                    if let Some(l) = local {
                        locals[l as usize] = v;
                    }
                }
            }
        }
        if sp > 0 {
            stack[sp - 1]
        } else {
            0.0
        }
    }
}

/// A resolved slice-instruction operand: a slice or a broadcast.
enum Src<'a> {
    S(&'a [f64]),
    K(f64),
}

#[inline]
fn resolve<'a>(
    arena: &'a [f64],
    temps: &'a [Vec<f64>],
    scal: &[f64],
    op: VOp,
    count: usize,
) -> Src<'a> {
    match op {
        VOp::View(off) => Src::S(&arena[off..off + count]),
        VOp::Temp(t) => Src::S(&temps[t as usize][..count]),
        VOp::K(v) => Src::K(v),
        VOp::Scal(i) => Src::K(scal[i as usize]),
    }
}

#[inline]
fn bin2(dst: &mut [f64], a: Src<'_>, b: Src<'_>, f: impl Fn(f64, f64) -> f64) {
    match (a, b) {
        (Src::S(x), Src::S(y)) => {
            for ((d, x), y) in dst.iter_mut().zip(x).zip(y) {
                *d = f(*x, *y);
            }
        }
        (Src::S(x), Src::K(c)) => {
            for (d, x) in dst.iter_mut().zip(x) {
                *d = f(*x, c);
            }
        }
        (Src::K(c), Src::S(y)) => {
            for (d, y) in dst.iter_mut().zip(y) {
                *d = f(c, *y);
            }
        }
        (Src::K(x), Src::K(y)) => dst.fill(f(x, y)),
    }
}

#[inline]
fn un1(dst: &mut [f64], a: Src<'_>, f: impl Fn(f64) -> f64) {
    match a {
        Src::S(x) => {
            for (d, x) in dst.iter_mut().zip(x) {
                *d = f(*x);
            }
        }
        Src::K(c) => dst.fill(f(c)),
    }
}

/// A test/inspection sink: replicates the runtime's synthetic address
/// layout and records every accounting call verbatim.
#[derive(Debug)]
pub struct RecordingSink {
    next_base: u64,
    /// `(heavy, dst, srcs, amount)` per charge.
    pub charges: Vec<(bool, u32, Vec<u32>, u64)>,
    /// `(streams, count)` per committed group.
    pub groups: Vec<(Vec<StreamRt>, usize)>,
    /// `(prec, n, write)` per bulk gather count.
    pub gathers: Vec<(Prec, u64, bool)>,
    /// `(addr, bytes, write)` per traced gather element.
    pub elems: Vec<(u64, u8, bool)>,
}

impl Default for RecordingSink {
    fn default() -> RecordingSink {
        RecordingSink {
            next_base: BASE0,
            charges: Vec::new(),
            groups: Vec::new(),
            gathers: Vec::new(),
            elems: Vec::new(),
        }
    }
}

impl RecordingSink {
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }
}

impl ExecSink for RecordingSink {
    fn reserve(&mut self, _var: u32, len: usize, prec: Prec) -> u64 {
        let base = self.next_base;
        self.next_base = next_base(base, len as u64 * prec.bytes());
        base
    }

    fn charge(&mut self, heavy: bool, dst: u32, srcs: &[u32], amount: u64) {
        self.charges.push((heavy, dst, srcs.to_vec(), amount));
    }

    fn commit_group(&mut self, streams: &[StreamRt], count: usize) {
        self.groups.push((streams.to_vec(), count));
    }

    fn gather_counts(&mut self, prec: Prec, n: u64, write: bool) {
        self.gathers.push((prec, n, write));
    }

    fn trace_elem(&mut self, addr: u64, bytes: u8, write: bool) {
        self.elems.push((addr, bytes, write));
    }
}
