//! Plan-specialized execution of IR-ported benchmarks.
//!
//! A benchmark that exposes an [`mixp_ir::Program`] through
//! [`crate::Benchmark::ir_program`] is executed by compiling the
//! `(program, configuration)` pair into a straight-line [`Plan`] —
//! every store's rounding mode, every charge's precision and every
//! stream group's widths resolved once — and interpreting that plan
//! over raw `f64` slices with zero per-op configuration dispatch.
//!
//! The bridge back into the runtime's accounting is [`CtxSink`]: plan
//! charges route through [`ExecCtx::op_sig`] + `flop_sig`/`heavy_sig`
//! (the same cast accounting as [`ExecCtx::flop`]), and stream groups
//! route through [`ExecCtx::commit_streams`] (the same access stream a
//! [`mixp_float::StreamGroup`] emits, with cancellation still polled
//! once per stream per commit).
//!
//! Plans are transient: every run — the evaluator's reference run,
//! sequential evaluation and batch fan-out alike — compiles its own plan,
//! interprets it and drops it. The evaluator memoises whole outcomes per
//! configuration, so a configuration is never evaluated twice and a kept
//! plan would only hold memory (a paper-scale hotspot plan is ~3 MB).

use mixp_float::{ExecCtx, Precision, PrecisionConfig, StreamSpec, VarId};
use mixp_ir::{ExecSink, Plan, Prec, Program, StreamRt};
use std::cell::RefCell;

/// Maps an IR storage precision to the runtime's.
fn to_precision(p: Prec) -> Precision {
    match p {
        Prec::Half => Precision::Half,
        Prec::Single => Precision::Single,
        Prec::Double => Precision::Double,
    }
}

/// Maps the runtime's storage precision to the IR's.
fn to_prec(p: Precision) -> Prec {
    match p {
        Precision::Half => Prec::Half,
        Precision::Single => Prec::Single,
        Precision::Double => Prec::Double,
    }
}

/// Compiles `prog` specialized to `cfg`: IR variable indices are the
/// benchmark's [`VarId`] indices, and the extended narrow format is the
/// runtime's IEEE binary16 rounding.
pub fn compile_plan(prog: &Program, cfg: &PrecisionConfig) -> Plan {
    let mut prec_of = |var: u32| to_prec(cfg.get(VarId::from_index(var as usize)));
    prog.compile(&mut prec_of, mixp_float::half::round_f64_to_f16)
}

/// [`compile_plan`] with the optimizer off (no vectorized sweeps, no loop
/// hoisting, no dot superinstruction): the oracle the optimized plan is
/// tested against.
pub fn compile_plan_unoptimized(prog: &Program, cfg: &PrecisionConfig) -> Plan {
    let mut prec_of = |var: u32| to_prec(cfg.get(VarId::from_index(var as usize)));
    prog.compile_unoptimized(&mut prec_of, mixp_float::half::round_f64_to_f16)
}

/// The [`ExecSink`] that replays a plan's accounting into an
/// [`ExecCtx`], with reusable scratch so a run allocates nothing per
/// stream group.
struct CtxSink<'a, 'c> {
    ctx: &'a mut ExecCtx<'c>,
    specs: Vec<StreamSpec>,
    precs: Vec<Option<Precision>>,
    src_ids: Vec<VarId>,
}

impl<'a, 'c> CtxSink<'a, 'c> {
    fn new(ctx: &'a mut ExecCtx<'c>) -> Self {
        CtxSink {
            ctx,
            specs: Vec::new(),
            precs: Vec::new(),
            src_ids: Vec::new(),
        }
    }
}

impl ExecSink for CtxSink<'_, '_> {
    fn reserve(&mut self, var: u32, len: usize, _prec: Prec) -> u64 {
        // The context derives the width from its own configuration; the
        // plan asserts the returned base against its precomputed layout,
        // which catches any precision disagreement too (widths feed the
        // cumulative base addresses).
        self.ctx.reserve(VarId::from_index(var as usize), len)
    }

    fn charge(&mut self, heavy: bool, dst: u32, srcs: &[u32], amount: u64) {
        self.src_ids.clear();
        self.src_ids
            .extend(srcs.iter().map(|&s| VarId::from_index(s as usize)));
        let sig = self
            .ctx
            .op_sig(VarId::from_index(dst as usize), &self.src_ids);
        if heavy {
            self.ctx.heavy_sig(sig, amount);
        } else {
            self.ctx.flop_sig(sig, amount);
        }
    }

    fn commit_group(&mut self, streams: &[StreamRt], count: usize) {
        self.specs.clear();
        self.precs.clear();
        for s in streams {
            self.specs.push(StreamSpec {
                base: s.base,
                elem_bytes: s.elem_bytes,
                stride: s.stride,
                write: s.write,
            });
            self.precs.push(Some(to_precision(s.prec)));
        }
        self.ctx.commit_streams(&self.specs, &self.precs, count);
    }

    fn gather_counts(&mut self, prec: Prec, n: u64, write: bool) {
        let p = to_precision(prec);
        if write {
            self.ctx.count_stores(p, n);
        } else {
            self.ctx.count_loads(p, n);
        }
    }

    fn trace_elem(&mut self, addr: u64, bytes: u8, write: bool) {
        self.ctx.trace_untyped(addr, bytes, write);
    }
}

thread_local! {
    /// Per-thread plan-interpreter scratch (arena, temporaries, output
    /// buffer), reused across evaluations exactly like the evaluator's
    /// cached cache hierarchy.
    static SCRATCH: RefCell<mixp_ir::Scratch> = RefCell::new(mixp_ir::Scratch::new());
}

/// Executes a compiled plan against `ctx`, returning the verification
/// output.
pub fn run_plan(plan: &Plan, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let mut sink = CtxSink::new(ctx);
        plan.execute(&mut sink, &mut scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_float::{OpCounts, PrecisionConfig};
    use mixp_ir::Sweep;

    /// y = a*x + y over two 2-var clusters, as a plan, compared against
    /// the equivalent hand-written MpVec loop.
    fn axpy_prog(n: usize) -> Program {
        let mut p = Program::new("axpy");
        let x = p.array_init(0, (0..n).map(|i| 0.1 + i as f64 * 0.01).collect());
        let y = p.array_init(1, (0..n).map(|i| 0.2 + i as f64 * 0.02).collect());
        let a = p.scalar(2, 1.5);
        p.flop(1, &[2, 0], n as u64);
        p.sweep(Sweep::axpy(y, x, n, mixp_ir::Expr::scal(a)));
        p.output(y);
        p
    }

    fn run_handwritten(cfg: &PrecisionConfig, n: usize) -> (Vec<f64>, OpCounts) {
        let mut ctx = ExecCtx::new(cfg);
        let x = mixp_float::MpVec::from_fn(&mut ctx, VarId::from_index(0), n, |i| {
            0.1 + i as f64 * 0.01
        });
        let mut y = mixp_float::MpVec::from_fn(&mut ctx, VarId::from_index(1), n, |i| {
            0.2 + i as f64 * 0.02
        });
        let a = mixp_float::MpScalar::new(&ctx, VarId::from_index(2), 1.5);
        ctx.flop(
            VarId::from_index(1),
            &[VarId::from_index(2), VarId::from_index(0)],
            n as u64,
        );
        let mut g = mixp_float::StreamGroup::new();
        g.load(&x, 0).load(&y, 0).store(&y, 0);
        g.commit(&mut ctx, n);
        for i in 0..n {
            let v = a.get() * x.raw()[i] + y.raw()[i];
            y.write_rounded(i, v);
        }
        let out = y.snapshot();
        (out, ctx.counts())
    }

    #[test]
    fn plan_matches_handwritten_for_mixed_configs() {
        let n = 33;
        let prog = axpy_prog(n);
        let mut configs = vec![
            PrecisionConfig::all_double(3),
            PrecisionConfig::all_single(3),
        ];
        let mut c = PrecisionConfig::all_double(3);
        c.set(VarId::from_index(0), Precision::Half);
        c.set(VarId::from_index(2), Precision::Single);
        configs.push(c);
        for cfg in &mut configs {
            let plan = compile_plan(&prog, cfg);
            let mut ctx = ExecCtx::new(cfg);
            let out = run_plan(&plan, &mut ctx);
            let counts = ctx.counts();
            let (href, hcounts) = run_handwritten(cfg, n);
            assert_eq!(out, href, "outputs must be bit-identical");
            assert_eq!(counts, hcounts, "op counts must match");
        }
    }
}
