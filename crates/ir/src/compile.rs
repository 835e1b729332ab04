//! Lowering: `(Program, precision assignment) -> Plan`.
//!
//! Constant precision propagation resolves every array/scalar to a
//! concrete precision and [`RoundMode`] exactly once; dead-cast
//! elimination is the `RoundMode::Id` fast path (double clusters store
//! with plain copies); loop-invariant charge hoisting rewrites a
//! hoistable [`Stmt::Repeat`] into closed-form accounting (charges
//! multiplied by the trip count, stream groups replayed pass-major)
//! plus a single compute pass. Vectorizable sweeps lower to slice
//! instructions, the rest to stack bytecode.

use std::sync::Arc;

use crate::analyze::{analyze, Analysis};
use crate::plan::{
    next_base, ArrRt, BOp, GatherRt, GroupRt, Plan, Step, StreamRt, VOp, VecInst, BASE0, STACK,
};
use crate::prog::{BinOp, ElemStmt, Expr, Program, Reduce, Stmt, StreamDecl, Sweep};
use crate::round::{HalfFn, RoundMode};
use crate::Prec;

fn prec_index(p: Prec) -> usize {
    match p {
        Prec::Half => 0,
        Prec::Single => 1,
        Prec::Double => 2,
    }
}

impl Program {
    /// Compiles this program against a precision assignment (`prec_of`
    /// maps program variable ids to storage precisions) into a
    /// specialized execution plan. `half` is the extended narrow-format
    /// rounding function (assumed identical across compiles — the
    /// pre-rounded init cache is keyed by precision only).
    pub fn compile(&self, prec_of: &mut dyn FnMut(u32) -> Prec, half: HalfFn) -> Plan {
        let analysis = self.analysis.get_or_init(|| analyze(self));
        self.compile_with(Some(analysis), prec_of, half)
    }

    /// [`Program::compile`] without the optimizer: every sweep lowers to
    /// serial bytecode, every loop runs pass by pass and every reduction
    /// through the generic bytecode (no dot superinstruction). The
    /// literal reading of the program, which the optimized plan must
    /// reproduce bit for bit.
    pub fn compile_unoptimized(&self, prec_of: &mut dyn FnMut(u32) -> Prec, half: HalfFn) -> Plan {
        self.compile_with(None, prec_of, half)
    }

    /// Lowers the program; `analysis` enables vectorization, charge
    /// hoisting and the dot superinstruction (`None` disables all three).
    fn compile_with(
        &self,
        analysis: Option<&Analysis>,
        prec_of: &mut dyn FnMut(u32) -> Prec,
        half: HalfFn,
    ) -> Plan {
        let mut arrs = Vec::with_capacity(self.arrays.len());
        let mut modes = Vec::with_capacity(self.arrays.len());
        let mut base = BASE0;
        let mut off = 0usize;
        for d in &self.arrays {
            let prec = prec_of(d.var);
            arrs.push(ArrRt {
                var: d.var,
                base,
                off,
                len: d.len,
                prec,
            });
            modes.push(prec.round_mode());
            base = next_base(base, d.len as u64 * prec.bytes());
            off += d.len;
        }
        let arena_len = off;

        let mut scal0 = Vec::with_capacity(self.scalars.len());
        let mut scal_modes = Vec::with_capacity(self.scalars.len());
        for d in &self.scalars {
            let m = prec_of(d.var).round_mode();
            scal_modes.push(m);
            scal0.push(m.apply(half, d.value));
        }

        let mut mutable = vec![false; self.scalars.len()];
        collect_mutable(&self.body, &mut mutable);

        let mut steps = Vec::new();
        for (i, d) in self.arrays.iter().enumerate() {
            if let Some(ci) = d.init {
                steps.push(Step::InitConst {
                    off: arrs[i].off,
                    data: self.rounded_const(ci, arrs[i].prec, half),
                });
            }
        }

        let mut lw = Lower {
            p: self,
            analysis,
            arrs: &arrs,
            modes: &modes,
            scal_modes: &scal_modes,
            scal0: &scal0,
            mutable: &mutable,
            groups: Vec::new(),
            n_temps: 0,
            sweep_ix: 0,
            repeat_ix: 0,
        };
        steps.extend(lw.lower_body(&self.body));
        if let Some(a) = analysis {
            debug_assert_eq!(lw.sweep_ix, a.sweeps.len());
            debug_assert_eq!(lw.repeat_ix, a.repeats.len());
        }
        let (groups, n_temps) = (lw.groups, lw.n_temps);

        for arr in &self.outputs {
            let a = arrs[arr.0 as usize];
            steps.push(Step::Output {
                off: a.off,
                len: a.len,
            });
        }

        Plan {
            arrs: arrs.into(),
            groups: groups.into(),
            steps: steps.into(),
            tables: self.tables.clone().into(),
            scal0: scal0.into(),
            half,
            arena_len,
            n_temps,
        }
    }

    /// Init data pre-rounded through `prec`, memoized per `(const, prec)`.
    fn rounded_const(&self, ci: usize, prec: Prec, half: HalfFn) -> Arc<[f64]> {
        self.rounded[ci][prec_index(prec)]
            .get_or_init(|| match prec.round_mode() {
                RoundMode::Id => self.consts[ci].clone(),
                m => m.apply_vec(half, self.consts[ci].to_vec()).into(),
            })
            .clone()
    }
}

fn collect_mutable(body: &[Stmt], m: &mut [bool]) {
    for stmt in body {
        match stmt {
            Stmt::SetScalar(s) => m[s.0 as usize] = true,
            Stmt::Reduce(r) => m[r.acc.0 as usize] = true,
            Stmt::Repeat { body, .. } => collect_mutable(body, m),
            _ => {}
        }
    }
}

struct Lower<'a> {
    p: &'a Program,
    analysis: Option<&'a Analysis>,
    arrs: &'a [ArrRt],
    modes: &'a [RoundMode],
    scal_modes: &'a [RoundMode],
    scal0: &'a [f64],
    mutable: &'a [bool],
    groups: Vec<GroupRt>,
    n_temps: usize,
    sweep_ix: usize,
    repeat_ix: usize,
}

impl<'a> Lower<'a> {
    fn lower_body(&mut self, body: &[Stmt]) -> Vec<Step> {
        let mut steps = Vec::new();
        for stmt in body {
            match stmt {
                Stmt::Charge {
                    heavy,
                    dst,
                    srcs,
                    amount,
                } => steps.push(Step::Charge {
                    heavy: *heavy,
                    dst: *dst,
                    srcs: srcs.clone().into(),
                    amount: *amount,
                }),
                Stmt::Sweep(s) => {
                    if let Some(first) = self.push_group(&s.streams, s.count) {
                        steps.push(Step::Groups {
                            first,
                            n: 1,
                            repeats: 1,
                        });
                    }
                    steps.push(self.lower_sweep(s));
                }
                Stmt::Reduce(r) => {
                    if let Some(first) = self.push_group(&r.streams, r.count) {
                        steps.push(Step::Groups {
                            first,
                            n: 1,
                            repeats: 1,
                        });
                    }
                    steps.push(self.lower_reduce(r));
                }
                Stmt::SetScalar(s) => steps.push(Step::SetScalar {
                    slot: s.0,
                    value: self.scal0[s.0 as usize],
                }),
                Stmt::EmitScalar(s) => steps.push(Step::EmitScalar { slot: s.0 }),
                Stmt::Repeat { times, body } => {
                    let hoist = self.analysis.is_some_and(|a| a.repeats[self.repeat_ix]);
                    self.repeat_ix += 1;
                    if hoist && *times > 0 {
                        // Closed-form accounting: charges fold by the trip
                        // count, stream groups replay pass-major, compute
                        // runs once (every pass recomputes identical values).
                        for st in body {
                            if let Stmt::Charge {
                                heavy,
                                dst,
                                srcs,
                                amount,
                            } = st
                            {
                                steps.push(Step::Charge {
                                    heavy: *heavy,
                                    dst: *dst,
                                    srcs: srcs.clone().into(),
                                    amount: amount * *times as u64,
                                });
                            }
                        }
                        let first = self.groups.len() as u32;
                        for st in body {
                            if let Stmt::Sweep(s) = st {
                                let g = self.make_group(&s.streams, s.count);
                                self.groups.push(g);
                            }
                        }
                        let n = self.groups.len() as u32 - first;
                        if n > 0 {
                            steps.push(Step::Groups {
                                first,
                                n,
                                repeats: *times as u32,
                            });
                        }
                        for st in body {
                            if let Stmt::Sweep(s) = st {
                                steps.push(self.lower_sweep(s));
                            }
                        }
                    } else {
                        let inner = self.lower_body(body);
                        steps.push(Step::Loop {
                            times: *times as u32,
                            body: inner.into(),
                        });
                    }
                }
            }
        }
        steps
    }

    fn make_group(&self, streams: &[StreamDecl], count: usize) -> GroupRt {
        let mut specs = Vec::new();
        let mut gathers = Vec::new();
        for d in streams {
            match d {
                StreamDecl::Affine {
                    arr,
                    start,
                    step,
                    write,
                } => {
                    let a = self.arrs[arr.0 as usize];
                    let eb = a.prec.bytes();
                    specs.push(StreamRt {
                        base: a.base + *start as u64 * eb,
                        elem_bytes: eb as u8,
                        stride: step * eb as i64,
                        write: *write,
                        prec: a.prec,
                    });
                }
                StreamDecl::Gather { arr, table, write } => {
                    let a = self.arrs[arr.0 as usize];
                    gathers.push(GatherRt {
                        base: a.base,
                        elem_bytes: a.prec.bytes() as u8,
                        table: table.0,
                        write: *write,
                        prec: a.prec,
                    });
                }
            }
        }
        GroupRt {
            streams: specs.into(),
            gathers: gathers.into(),
            count,
        }
    }

    /// Appends a group and returns its index, or `None` for an empty
    /// stream set (nothing to account).
    fn push_group(&mut self, streams: &[StreamDecl], count: usize) -> Option<u32> {
        if streams.is_empty() {
            return None;
        }
        let id = self.groups.len() as u32;
        let g = self.make_group(streams, count);
        self.groups.push(g);
        Some(id)
    }

    fn lower_sweep(&mut self, s: &Sweep) -> Step {
        let vectorize = self.analysis.is_some_and(|a| a.sweeps[self.sweep_ix]);
        self.sweep_ix += 1;
        if vectorize {
            self.lower_vec(s)
        } else {
            self.lower_serial(s)
        }
    }

    // --- vectorized lowering ---------------------------------------------

    fn lower_vec(&mut self, s: &Sweep) -> Step {
        let count = s.count;
        let mut insts: Vec<VecInst> = Vec::new();
        let mut next_temp: u32 = 0;
        let mut local_map: Vec<VOp> = vec![VOp::K(0.0); s.locals as usize];
        for stmt in &s.body {
            match stmt {
                ElemStmt::Let { local, expr } => {
                    let v = self.vec_expr(expr, count, &mut insts, &mut next_temp, &local_map);
                    local_map[*local as usize] = v;
                }
                ElemStmt::LetScal { local, scal, expr } => {
                    let v = self.vec_expr(expr, count, &mut insts, &mut next_temp, &local_map);
                    // Dead-cast elimination: a double scratch scalar is a
                    // plain binding.
                    local_map[*local as usize] = match self.scal_modes[scal.0 as usize] {
                        RoundMode::Id => v,
                        mode => {
                            let dst = next_temp;
                            next_temp += 1;
                            insts.push(VecInst::Round { dst, a: v, mode });
                            VOp::Temp(dst)
                        }
                    };
                }
                ElemStmt::Store {
                    arr,
                    start,
                    step,
                    expr,
                    local,
                } => {
                    debug_assert_eq!(*step, 1, "vectorized store must be unit-stride");
                    let src = self.vec_expr(expr, count, &mut insts, &mut next_temp, &local_map);
                    let a = self.arrs[arr.0 as usize];
                    assert!(
                        start + count <= a.len,
                        "{}: store past end of array var {}",
                        self.p.name,
                        a.var
                    );
                    let off = a.off + start;
                    insts.push(VecInst::Store {
                        off,
                        src,
                        mode: self.modes[arr.0 as usize],
                    });
                    if let Some(l) = local {
                        local_map[*l as usize] = VOp::View(off);
                    }
                }
            }
        }
        self.n_temps = self.n_temps.max(next_temp as usize);
        Step::VecSweep {
            count,
            insts: insts.into(),
        }
    }

    fn vec_expr(
        &self,
        e: &Expr,
        count: usize,
        insts: &mut Vec<VecInst>,
        next_temp: &mut u32,
        local_map: &[VOp],
    ) -> VOp {
        match e {
            Expr::Load { arr, start, step } => {
                debug_assert_eq!(*step, 1, "vectorized load must be unit-stride");
                let a = self.arrs[arr.0 as usize];
                assert!(
                    start + count <= a.len,
                    "{}: load past end of array var {}",
                    self.p.name,
                    a.var
                );
                VOp::View(a.off + start)
            }
            Expr::K(v) => VOp::K(*v),
            Expr::Scal(s) => {
                if self.mutable[s.0 as usize] {
                    VOp::Scal(s.0)
                } else {
                    VOp::K(self.scal0[s.0 as usize])
                }
            }
            Expr::Local(l) => local_map[*l as usize],
            Expr::Bin(op, x, y) => {
                let a = self.vec_expr(x, count, insts, next_temp, local_map);
                let b = self.vec_expr(y, count, insts, next_temp, local_map);
                let dst = *next_temp;
                *next_temp += 1;
                insts.push(VecInst::Bin { op: *op, dst, a, b });
                VOp::Temp(dst)
            }
            Expr::Un(op, x) => {
                let a = self.vec_expr(x, count, insts, next_temp, local_map);
                let dst = *next_temp;
                *next_temp += 1;
                insts.push(VecInst::Un { op: *op, dst, a });
                VOp::Temp(dst)
            }
            Expr::Gather { .. } => unreachable!("gather in vectorized sweep"),
        }
    }

    // --- serial lowering --------------------------------------------------

    fn check_range(&self, arr: u32, len: usize, start: usize, step: i64, count: usize) {
        if count == 0 {
            return;
        }
        let last = start as i64 + (count as i64 - 1) * step;
        assert!(
            (start as i64) < len as i64 && last >= 0 && last < len as i64,
            "{}: access out of bounds on array var {} (start {start}, step {step}, count {count}, len {len})",
            self.p.name,
            arr
        );
    }

    fn lower_serial(&mut self, s: &Sweep) -> Step {
        let mut code = Vec::new();
        let mut depth = 0usize;
        let mut max = 0usize;
        for stmt in &s.body {
            match stmt {
                ElemStmt::Let { local, expr } => {
                    self.emit_expr(expr, s.count, &mut code, &mut depth, &mut max);
                    code.push(BOp::SetLocal(*local));
                    depth -= 1;
                }
                ElemStmt::LetScal { local, scal, expr } => {
                    self.emit_expr(expr, s.count, &mut code, &mut depth, &mut max);
                    match self.scal_modes[scal.0 as usize] {
                        RoundMode::Id => {}
                        mode => code.push(BOp::Round(mode)),
                    }
                    code.push(BOp::SetLocal(*local));
                    depth -= 1;
                }
                ElemStmt::Store {
                    arr,
                    start,
                    step,
                    expr,
                    local,
                } => {
                    self.emit_expr(expr, s.count, &mut code, &mut depth, &mut max);
                    let a = self.arrs[arr.0 as usize];
                    self.check_range(a.var, a.len, *start, *step, s.count);
                    code.push(BOp::Store {
                        off: a.off as i64 + *start as i64,
                        step: *step,
                        mode: self.modes[arr.0 as usize],
                        local: *local,
                    });
                    depth -= 1;
                }
            }
        }
        assert!(max <= STACK, "{}: expression too deep", self.p.name);
        Step::SerialSweep {
            count: s.count,
            locals: s.locals,
            code: code.into(),
        }
    }

    fn emit_expr(
        &self,
        e: &Expr,
        count: usize,
        code: &mut Vec<BOp>,
        depth: &mut usize,
        max: &mut usize,
    ) {
        let push = |code: &mut Vec<BOp>, op: BOp, depth: &mut usize, max: &mut usize| {
            code.push(op);
            *depth += 1;
            *max = (*max).max(*depth);
        };
        match e {
            Expr::Load { arr, start, step } => {
                let a = self.arrs[arr.0 as usize];
                self.check_range(a.var, a.len, *start, *step, count);
                push(
                    code,
                    BOp::Load {
                        off: a.off as i64 + *start as i64,
                        step: *step,
                    },
                    depth,
                    max,
                );
            }
            Expr::Gather { arr, table } => {
                let a = self.arrs[arr.0 as usize];
                push(
                    code,
                    BOp::Gather {
                        off: a.off,
                        table: table.0,
                    },
                    depth,
                    max,
                );
            }
            Expr::K(v) => push(code, BOp::K(*v), depth, max),
            Expr::Scal(s) => {
                if self.mutable[s.0 as usize] {
                    push(code, BOp::Scal(s.0), depth, max);
                } else {
                    push(code, BOp::K(self.scal0[s.0 as usize]), depth, max);
                }
            }
            Expr::Local(l) => push(code, BOp::Local(*l), depth, max),
            Expr::Bin(op, x, y) => {
                self.emit_expr(x, count, code, depth, max);
                self.emit_expr(y, count, code, depth, max);
                code.push(match op {
                    BinOp::Add => BOp::Add,
                    BinOp::Sub => BOp::Sub,
                    BinOp::Mul => BOp::Mul,
                    BinOp::Div => BOp::Div,
                    BinOp::Min => BOp::Min,
                });
                *depth -= 1;
            }
            Expr::Un(op, x) => {
                self.emit_expr(x, count, code, depth, max);
                match op {
                    crate::prog::UnOp::Exp => code.push(BOp::Exp),
                }
            }
        }
    }

    fn lower_reduce(&mut self, r: &Reduce) -> Step {
        let mode = self.scal_modes[r.acc.0 as usize];
        // The dot superinstruction: acc += (a[k] * b[k]) * w, unit strides.
        if let (Some(_), Expr::Bin(BinOp::Mul, l, rk)) = (self.analysis, &r.expr) {
            if let (Expr::Bin(BinOp::Mul, x, y), Expr::K(w)) = (&**l, &**rk) {
                if let (
                    Expr::Load {
                        arr: aa,
                        start: sa,
                        step: 1,
                    },
                    Expr::Load {
                        arr: ab,
                        start: sb,
                        step: 1,
                    },
                ) = (&**x, &**y)
                {
                    let a = self.arrs[aa.0 as usize];
                    let b = self.arrs[ab.0 as usize];
                    self.check_range(a.var, a.len, *sa, 1, r.count);
                    self.check_range(b.var, b.len, *sb, 1, r.count);
                    return Step::ReduceDot {
                        acc: r.acc.0,
                        a_off: a.off + sa,
                        b_off: b.off + sb,
                        count: r.count,
                        w: *w,
                        mode,
                    };
                }
            }
        }
        let mut code = Vec::new();
        let mut depth = 0usize;
        let mut max = 0usize;
        self.emit_expr(&r.expr, r.count, &mut code, &mut depth, &mut max);
        assert!(max <= STACK, "{}: reduction too deep", self.p.name);
        Step::ReduceSerial {
            acc: r.acc.0,
            count: r.count,
            code: code.into(),
            mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::RecordingSink;
    use crate::{Expr, Prec, Program, Reduce, Scratch, Sweep};

    fn test_half(v: f64) -> f64 {
        (v * 4.0).round() / 4.0
    }

    fn all(p: Prec) -> impl FnMut(u32) -> Prec {
        move |_| p
    }

    #[test]
    fn axpy_plan_rounds_like_storage() {
        let mut p = Program::new("axpy");
        let x = p.array_init(0, vec![0.1, 0.2, 0.3, 0.4]);
        let y = p.array_init(1, vec![1.0, 1.0, 1.0, 1.0]);
        p.flop(1, &[0], 8);
        p.sweep(Sweep::axpy(y, x, 4, Expr::k(2.0)));
        p.output(y);

        let plan = p.compile(&mut all(Prec::Double), test_half);
        let mut sink = RecordingSink::new();
        let out = plan.execute(&mut sink, &mut Scratch::new());
        for (o, x) in out.iter().zip([0.1, 0.2, 0.3, 0.4]) {
            assert_eq!(*o, 2.0 * x + 1.0);
        }
        assert_eq!(sink.charges, vec![(false, 1, vec![0], 8)]);
        assert_eq!(sink.groups.len(), 1);
        let (streams, count) = &sink.groups[0];
        assert_eq!(*count, 4);
        assert_eq!(streams.len(), 3);
        assert_eq!(streams[0].base, 0x1000);
        assert!(!streams[0].write && streams[2].write);

        // Single: init data and stores round through f32; the second
        // array starts one cache line after the 16-byte first array.
        let plan = p.compile(&mut all(Prec::Single), test_half);
        let mut sink = RecordingSink::new();
        let out = plan.execute(&mut sink, &mut Scratch::new());
        for (o, x) in out.iter().zip([0.1f64, 0.2, 0.3, 0.4]) {
            let xs = x as f32 as f64;
            assert_eq!(*o, (2.0 * xs + 1.0) as f32 as f64);
        }
        assert_eq!(sink.groups[0].0[1].base, 0x1040);
        assert_eq!(sink.groups[0].0[1].elem_bytes, 4);
    }

    #[test]
    fn hoisted_loop_matches_forced_loop() {
        let build = |block: bool| {
            let mut p = Program::new("h");
            let x = p.array_init(0, (0..32).map(|i| i as f64 * 0.125).collect::<Vec<_>>());
            let y = p.array(1, 32);
            let dummy = p.scalar(2, 0.0);
            p.begin_repeat(5);
            p.flop(1, &[0], 32);
            let mut s = Sweep::new(31);
            s.load(x, 1).load(y, 0).store(y, 1);
            s.set(y, 1, Expr::at(x, 1) - Expr::at(y, 0));
            p.sweep(s);
            if block {
                // A scalar reset in the body pins the loop (never hoisted).
                p.set_scalar(dummy);
            }
            p.end_repeat();
            p.output(y);
            p
        };
        let ph = build(false).compile(&mut all(Prec::Single), test_half);
        let pl = build(true).compile(&mut all(Prec::Single), test_half);
        let (mut sh, mut sl) = (RecordingSink::new(), RecordingSink::new());
        let oh = ph.execute(&mut sh, &mut Scratch::new());
        let ol = pl.execute(&mut sl, &mut Scratch::new());
        assert_eq!(oh, ol, "hoisted compute must match per-pass compute");
        assert_eq!(sh.groups, sl.groups, "pass-major group replay");
        let total = |s: &RecordingSink| s.charges.iter().map(|c| c.3).sum::<u64>();
        assert_eq!(total(&sh), total(&sl));
        assert_eq!(sh.charges.len(), 1, "hoisted: one folded charge");
        assert_eq!(sl.charges.len(), 5, "loop: one charge per pass");
    }

    /// The unoptimized plan takes none of the optimizer's fast paths yet
    /// reproduces the optimized plan's outputs and stream groups (charges
    /// differ only in batching: the hoisted loop folds its per-pass
    /// charges into one).
    #[test]
    fn unoptimized_plan_is_literal_and_agrees() {
        use crate::plan::Step;
        fn fast(steps: &[Step]) -> bool {
            steps.iter().any(|s| match s {
                Step::VecSweep { .. } | Step::ReduceDot { .. } => true,
                Step::Groups { repeats, .. } => *repeats > 1,
                Step::Loop { body, .. } => fast(body),
                _ => false,
            })
        }
        let mut p = Program::new("u");
        let x = p.array_init(0, (0..16).map(|i| i as f64 * 0.375).collect::<Vec<_>>());
        let y = p.array(1, 16);
        let q = p.scalar(2, 0.0);
        p.begin_repeat(3);
        p.flop(1, &[0], 16);
        p.sweep(Sweep::scale(y, x, 16, Expr::k(0.5)));
        p.end_repeat();
        p.set_scalar(q);
        p.reduce(Reduce::dot(q, x, y, 16, 1.5));
        p.emit_scalar(q);
        p.output(y);
        for prec in [Prec::Half, Prec::Single, Prec::Double] {
            let opt = p.compile(&mut all(prec), test_half);
            let lit = p.compile_unoptimized(&mut all(prec), test_half);
            assert!(fast(&opt.steps), "the optimizer must fire on this program");
            assert!(!fast(&lit.steps), "the unoptimized plan takes no fast path");
            let (mut so, mut sl) = (RecordingSink::new(), RecordingSink::new());
            let oo = opt.execute(&mut so, &mut Scratch::new());
            let ol = lit.execute(&mut sl, &mut Scratch::new());
            assert_eq!(oo, ol);
            assert_eq!(so.groups, sl.groups);
        }
    }

    #[test]
    fn gather_traces_each_element() {
        let mut p = Program::new("g");
        let x = p.array_init(0, vec![1.0, 2.0, 3.0, 4.0]);
        let y = p.array(1, 3);
        let t = p.table(vec![3, 0, 2]);
        p.sweep(Sweep::gather(y, x, t, 3));
        p.output(y);
        let plan = p.compile(&mut all(Prec::Double), test_half);
        let mut sink = RecordingSink::new();
        let out = plan.execute(&mut sink, &mut Scratch::new());
        assert_eq!(out, vec![4.0, 1.0, 3.0]);
        assert_eq!(sink.gathers, vec![(Prec::Double, 3, false)]);
        assert_eq!(
            sink.elems,
            vec![
                (0x1000 + 24, 8, false),
                (0x1000, 8, false),
                (0x1000 + 16, 8, false)
            ]
        );
        assert_eq!(sink.groups.len(), 1, "store stream still commits");
    }

    #[test]
    fn dot_superinstruction_matches_manual() {
        let mut p = Program::new("d");
        let a = p.array_init(0, vec![0.5; 8]);
        let b = p.array_init(1, (1..=8).map(|i| i as f64).collect::<Vec<_>>());
        let q = p.scalar(2, 0.0);
        p.set_scalar(q);
        p.reduce(Reduce::dot(q, a, b, 8, 2.0));
        p.emit_scalar(q);

        let plan = p.compile(&mut all(Prec::Double), test_half);
        let out = plan.execute(&mut RecordingSink::new(), &mut Scratch::new());
        let mut acc = 0.0;
        for i in 1..=8 {
            acc += (0.5 * i as f64) * 2.0;
        }
        assert_eq!(out, vec![acc]);

        let mut prec_of = |v: u32| if v == 2 { Prec::Half } else { Prec::Double };
        let plan = p.compile(&mut prec_of, test_half);
        let out = plan.execute(&mut RecordingSink::new(), &mut Scratch::new());
        let mut acc = 0.0f64;
        for i in 1..=8 {
            acc = test_half(acc + (0.5 * i as f64) * 2.0);
        }
        assert_eq!(out, vec![acc]);
    }

    #[test]
    fn bulk_op_builders_execute() {
        let mut p = Program::new("bulk");
        let x = p.array_init(0, vec![1.0, 2.0, 3.0, 4.0]);
        let y = p.array(1, 4);
        let z = p.array(2, 4);
        let s = p.scalar(3, 0.0);
        p.sweep(Sweep::fill(y, 4, 3.0));
        p.sweep(Sweep::xpby(y, x, 4, Expr::k(0.5)));
        p.sweep(Sweep::scale(z, y, 4, Expr::k(2.0)));
        p.sweep(Sweep::map(z, z, 4, |v| v.min(Expr::k(9.0)).exp()));
        p.reduce(Reduce::sum(s, z, 4));
        p.emit_scalar(s);
        p.output(y);
        let plan = p.compile(&mut all(Prec::Double), test_half);
        let out = plan.execute(&mut RecordingSink::new(), &mut Scratch::new());
        let ys: Vec<f64> = [1.0f64, 2.0, 3.0, 4.0]
            .iter()
            .map(|x| x + 0.5 * 3.0)
            .collect();
        let zs: Vec<f64> = ys.iter().map(|y| (2.0 * y).min(9.0).exp()).collect();
        let sum: f64 = zs.iter().sum();
        assert_eq!(out[0], sum);
        assert_eq!(&out[1..], &ys[..]);
    }
}
