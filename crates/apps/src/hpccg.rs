//! HPCCG — Mantevo preconditioned conjugate-gradient proxy application.

use crate::common::rng;
use mixp_core::{
    Benchmark, BenchmarkKind, ExecCtx, MetricKind, ProgramBuilder, ProgramModel, VarId,
};
use mixp_float::{IndexVec, MpScalar, MpVec, StreamGroup};

/// HPCCG (§III-B): a conjugate-gradient solver for a sparse linear system
/// arising from a 27-point PDE discretisation. The verified output is the
/// solver's residual history.
///
/// Program model (Table II): TV = 54, TC = 27. CG's vectors flow through
/// the `ddot`/`waxpby`/`sparsemv` kernel interfaces, so `x`, `r`, `p`,
/// `Ap` and the kernel parameters merge into a few large clusters.
///
/// The solve is dominated by the `ddot` dependence chains and the sparse
/// gather, whose `int` column-index traffic does not shrink at lower
/// precision — Table IV reports exactly 1.00× for the full single-precision
/// version.
#[derive(Debug, Clone)]
pub struct Hpccg {
    program: ProgramModel,
    v: Vars,
    n: usize,
    nnz_per_row: usize,
    max_iter: usize,
    b_init: Vec<f64>,
    a_init: Vec<f64>,
    cols: Vec<i64>,
}

#[derive(Debug, Clone, Copy)]
struct Vars {
    a_values: VarId,
    x: VarId,
    b: VarId,
    r: VarId,
    p: VarId,
    ap: VarId,
    alpha: VarId,
    beta: VarId,
    rtrans: VarId,
    oldrtrans: VarId,
    normr: VarId,
    residual: VarId,
    ddot_sum: VarId,
    spmv_sum: VarId,
}

impl Hpccg {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(4096, 27, 25)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(256, 7, 10)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `nnz_per_row` is even or exceeds `n`, or
    /// `max_iter == 0`.
    pub fn with_params(n: usize, nnz_per_row: usize, max_iter: usize) -> Self {
        assert!(n > 0 && max_iter > 0);
        assert!(nnz_per_row % 2 == 1 && nnz_per_row <= n);
        let mut b = ProgramBuilder::new("hpccg");
        let module = b.module("HPCCG.cpp");
        let main = b.function("main", module);
        let f_ddot = b.function("ddot", module);
        let f_waxpby = b.function("waxpby", module);
        let f_spmv = b.function("HPC_sparsemv", module);
        let f_gen = b.function("generate_matrix", module);

        // --- main (14 tunable).
        let a_values = b.array(main, "A_values");
        let x = b.array(main, "x");
        let bvec = b.array(main, "b");
        let xexact = b.array(main, "xexact");
        let r = b.array(main, "r");
        let p = b.array(main, "p");
        let ap = b.array(main, "Ap");
        let alpha = b.scalar(main, "alpha");
        let beta = b.scalar(main, "beta");
        let rtrans = b.scalar(main, "rtrans");
        let oldrtrans = b.scalar(main, "oldrtrans");
        let normr = b.scalar(main, "normr");
        let residual = b.scalar(main, "residual");
        let tolerance = b.scalar(main, "tolerance");

        // --- ddot (8): called as ddot(r, r), ddot(p, Ap) — its parameters
        // tie r, p and Ap into one cluster.
        let ddot_x = b.array(f_ddot, "ddot_x");
        let ddot_y = b.array(f_ddot, "ddot_y");
        b.bind(r, ddot_x);
        b.bind(r, ddot_y);
        b.bind(p, ddot_x);
        b.bind(ap, ddot_y);
        let ddot_sum = b.scalar(f_ddot, "ddot_sum");
        let ddot_result = b.scalar(f_ddot, "ddot_result");
        b.bind(ddot_result, rtrans);
        let ddot_t1 = b.scalar(f_ddot, "ddot_t1");
        let ddot_t2 = b.scalar(f_ddot, "ddot_t2");
        let ddot_local = b.scalar(f_ddot, "ddot_local");
        let ddot_global = b.scalar(f_ddot, "ddot_global");

        // --- waxpby (10): w = alpha*x + beta*y over the CG vectors.
        let wax_w = b.array(f_waxpby, "wax_w");
        let wax_x = b.array(f_waxpby, "wax_x");
        let wax_y = b.array(f_waxpby, "wax_y");
        // waxpby(x, p): x = x + alpha*p; waxpby(r, Ap): r = r - alpha*Ap;
        // waxpby(p, r): p = r + beta*p.
        b.bind(x, wax_w);
        b.bind(x, wax_x);
        b.bind(p, wax_y);
        b.bind(r, wax_w);
        let wax_alpha = b.scalar(f_waxpby, "wax_alpha");
        let wax_beta = b.scalar(f_waxpby, "wax_beta");
        b.bind(alpha, wax_alpha);
        b.bind(beta, wax_beta);
        let wax_t = b.scalar(f_waxpby, "wax_t");
        let wax_u = b.scalar(f_waxpby, "wax_u");
        let wax_v = b.scalar(f_waxpby, "wax_v");
        let wax_acc = b.scalar(f_waxpby, "wax_acc");
        let wax_tmp = b.scalar(f_waxpby, "wax_tmp");
        // r = b - A*x initialisation also flows b through waxpby, and the
        // exact solution is compared via ddot.
        b.bind(bvec, wax_x);
        b.bind(xexact, ddot_y);
        b.bind(rtrans, oldrtrans);
        b.bind(wax_t, wax_u);

        // --- HPC_sparsemv (10): Ap = A * p.
        let spmv_values = b.array(f_spmv, "spmv_values");
        let spmv_x = b.array(f_spmv, "spmv_x");
        let spmv_y = b.array(f_spmv, "spmv_y");
        b.bind(a_values, spmv_values);
        b.bind(p, spmv_x);
        b.bind(ap, spmv_y);
        let spmv_sum = b.scalar(f_spmv, "spmv_sum");
        let spmv_cur = b.scalar(f_spmv, "spmv_cur");
        let spmv_t0 = b.scalar(f_spmv, "spmv_t0");
        let spmv_t1 = b.scalar(f_spmv, "spmv_t1");
        let spmv_t2 = b.scalar(f_spmv, "spmv_t2");
        let spmv_t3 = b.scalar(f_spmv, "spmv_t3");
        let spmv_t4 = b.scalar(f_spmv, "spmv_t4");

        // --- generate_matrix (12).
        let gen_values = b.array(f_gen, "gen_values");
        b.bind(a_values, gen_values);
        let gen_b = b.array(f_gen, "gen_b");
        b.bind(bvec, gen_b);
        let gen_xexact = b.array(f_gen, "gen_xexact");
        b.bind(xexact, gen_xexact);
        let gen_diag = b.scalar(f_gen, "gen_diag");
        let gen_off = b.scalar(f_gen, "gen_off");
        let gen_scale = b.scalar(f_gen, "gen_scale");
        let gen_bval = b.scalar(f_gen, "gen_bval");
        let gen_t0 = b.scalar(f_gen, "gen_t0");
        let gen_t1 = b.scalar(f_gen, "gen_t1");
        let gen_t2 = b.scalar(f_gen, "gen_t2");
        let gen_t3 = b.scalar(f_gen, "gen_t3");
        let gen_t4 = b.scalar(f_gen, "gen_t4");

        // Result out-parameters and paired temporaries share pointer types.
        b.bind(normr, residual);
        b.bind(ddot_t1, ddot_t2);
        b.bind(ddot_local, ddot_global);
        b.bind(spmv_sum, spmv_cur);
        b.bind(spmv_t0, spmv_t1);
        b.bind(gen_t0, gen_t1);

        let program = b.build();
        debug_assert_eq!(program.total_variables(), 54);
        debug_assert_eq!(program.total_clusters(), 27);

        let _ = (
            tolerance,
            ddot_t1,
            ddot_t2,
            ddot_local,
            ddot_global,
            wax_t,
            wax_u,
            wax_v,
            wax_acc,
            wax_tmp,
            spmv_cur,
            spmv_t0,
            spmv_t1,
            spmv_t2,
            spmv_t3,
            spmv_t4,
            gen_diag,
            gen_off,
            gen_scale,
            gen_bval,
            gen_t0,
            gen_t1,
            gen_t2,
            gen_t3,
            gen_t4,
        );

        // Synthetic banded SPD system: strong diagonal, small symmetric
        // off-diagonals at fixed offsets (a 1-D stencil analogue of the
        // 27-point operator).
        let mut g = rng("hpccg", 0);
        let half = nnz_per_row / 2;
        let mut a_init = Vec::with_capacity(n * nnz_per_row);
        let mut cols = Vec::with_capacity(n * nnz_per_row);
        for row in 0..n {
            for j in 0..nnz_per_row {
                let off = j as i64 - half as i64;
                let col = (row as i64 + off).rem_euclid(n as i64);
                cols.push(col);
                if off == 0 {
                    a_init.push(nnz_per_row as f64 + 1.0);
                } else {
                    a_init.push(-g.uniform(0.5, 1.0));
                }
            }
        }
        let b_init: Vec<f64> = (0..n).map(|_| g.uniform(0.5, 1.5)).collect();

        Hpccg {
            program,
            v: Vars {
                a_values,
                x,
                b: bvec,
                r,
                p,
                ap,
                alpha,
                beta,
                rtrans,
                oldrtrans,
                normr,
                residual,
                ddot_sum,
                spmv_sum,
            },
            n,
            nnz_per_row,
            max_iter,
            b_init,
            a_init,
            cols,
        }
    }

    fn ddot(&self, ctx: &mut ExecCtx<'_>, a: &MpVec, b: &MpVec) -> f64 {
        let v = &self.v;
        let mut sum = MpScalar::new(ctx, v.ddot_sum, 0.0);
        let n = a.len() as u64;
        ctx.flop(v.ddot_sum, &[v.r], n);
        // The accumulation is a strict dependence chain.
        ctx.heavy(v.ddot_sum, &[], n);
        a.dot(ctx, b, &mut sum);
        sum.get()
    }

    fn sparsemv(
        &self,
        ctx: &mut ExecCtx<'_>,
        a: &MpVec,
        cols: &IndexVec,
        x: &MpVec,
        y: &mut MpVec,
    ) {
        let v = &self.v;
        let nnz = self.nnz_per_row;
        let total = (self.n * nnz) as u64;
        ctx.flop(v.spmv_sum, &[v.a_values, v.p], total);
        ctx.heavy(v.spmv_sum, &[], total);
        // The column indices and matrix values stream contiguously over
        // the whole matrix, and the row sums store contiguously — three
        // affine streams. The `x[col]` gather is data-dependent, so it is
        // op-counted in bulk and traced per element from the compute loop.
        let mut mat_group = StreamGroup::new();
        mat_group.load_index(cols, 0).load(a, 0);
        mat_group.commit(ctx, self.n * nnz);
        x.bulk_loads(ctx, total);
        let mut sum_group = StreamGroup::new();
        sum_group.store(y, 0);
        sum_group.commit(ctx, self.n);
        let av = a.raw();
        let colv = cols.raw();
        let mut sum = MpScalar::new(ctx, v.spmv_sum, 0.0);
        for row in 0..self.n {
            sum.set(ctx, 0.0);
            for j in 0..nnz {
                let idx = row * nnz + j;
                let col = colv[idx] as usize;
                x.trace_element(ctx, col, false);
                sum.set(ctx, sum.get() + av[idx] * x.raw()[col]);
            }
            y.write_rounded(row, sum.get());
        }
    }
}

impl Default for Hpccg {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Hpccg {
    fn name(&self) -> &str {
        "hpccg"
    }

    fn description(&self) -> &str {
        "Preconditioned conjugate-gradient PDE solver (Mantevo HPCCG)"
    }

    fn kind(&self) -> BenchmarkKind {
        BenchmarkKind::Application
    }

    fn program(&self) -> &ProgramModel {
        &self.program
    }

    fn metric(&self) -> MetricKind {
        MetricKind::Mae
    }

    fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
        let v = &self.v;
        let n = self.n;
        let a = MpVec::from_values(ctx, v.a_values, &self.a_init);
        let cols = IndexVec::new(ctx, self.cols.clone());
        let bvec = MpVec::from_values(ctx, v.b, &self.b_init);
        let mut x = ctx.alloc_vec(v.x, n);
        let mut r = MpVec::from_fn(ctx, v.r, n, |i| self.b_init[i]);
        let mut p = MpVec::from_fn(ctx, v.p, n, |i| self.b_init[i]);
        let mut ap = ctx.alloc_vec(v.ap, n);
        let _ = bvec;

        let mut residuals = Vec::with_capacity(self.max_iter);
        let rt0 = self.ddot(ctx, &r, &r);
        let mut rtrans = MpScalar::new(ctx, v.rtrans, rt0);
        // x += alpha * p ; r -= alpha * Ap  (waxpby). The two updates are
        // interleaved per element, so no single named primitive fits; the
        // six streams below reproduce the per-element evaluation order.
        let mut wax_group = StreamGroup::new();
        wax_group
            .load(&x, 0)
            .load(&p, 0)
            .store(&x, 0)
            .load(&r, 0)
            .load(&ap, 0)
            .store(&r, 0);
        for _ in 0..self.max_iter {
            self.sparsemv(ctx, &a, &cols, &p, &mut ap);
            let p_ap = self.ddot(ctx, &p, &ap);
            let mut alpha = MpScalar::new(ctx, v.alpha, 0.0);
            ctx.heavy(v.alpha, &[v.rtrans], 1);
            alpha.set(ctx, rtrans.get() / p_ap);

            ctx.flop(v.x, &[v.alpha, v.p], 2 * n as u64);
            ctx.flop(v.r, &[v.alpha, v.ap], 2 * n as u64);
            wax_group.commit(ctx, n);
            {
                let al = alpha.get();
                let pv = p.raw();
                let apv = ap.raw();
                for i in 0..n {
                    let xv = x.raw()[i] + al * pv[i];
                    x.write_rounded(i, xv);
                    let rv = r.raw()[i] - al * apv[i];
                    r.write_rounded(i, rv);
                }
            }

            let mut oldrtrans = MpScalar::new(ctx, v.oldrtrans, rtrans.get());
            let _ = &mut oldrtrans;
            let rt = self.ddot(ctx, &r, &r);
            rtrans.set(ctx, rt);
            let mut beta = MpScalar::new(ctx, v.beta, 0.0);
            ctx.heavy(v.beta, &[v.rtrans, v.oldrtrans], 1);
            beta.set(ctx, rtrans.get() / oldrtrans.get());

            // p = r + beta * p  (waxpby)
            ctx.flop(v.p, &[v.r, v.beta], 2 * n as u64);
            p.xpby(ctx, &r, beta.get());

            let mut normr = MpScalar::new(ctx, v.normr, 0.0);
            ctx.heavy(v.normr, &[v.rtrans], 1);
            normr.set(ctx, rtrans.get().max(0.0).sqrt());
            let mut residual = MpScalar::new(ctx, v.residual, normr.get());
            let _ = &mut residual;
            residuals.push(residual.get());
        }
        residuals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{Evaluator, QualityThreshold};

    #[test]
    fn model_matches_table2() {
        let app = Hpccg::small();
        assert_eq!(app.program().total_variables(), 54);
        assert_eq!(app.program().total_clusters(), 27);
    }

    #[test]
    fn cg_converges_on_the_spd_system() {
        let app = Hpccg::small();
        let cfg = app.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = app.run(&mut ctx);
        assert_eq!(out.len(), 10);
        assert!(
            out.last().unwrap() < &(out[0] * 1e-3),
            "residual must drop: {:?}",
            out
        );
    }

    #[test]
    fn single_precision_converges_similarly() {
        let app = Hpccg::small();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(rec.compiled);
        assert!(rec.quality < 1e-3, "residual history error {}", rec.quality);
    }

    #[test]
    fn single_precision_speedup_is_flat() {
        let app = Hpccg::small();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 0.85 && rec.speedup < 1.35,
            "Table IV says 1.00, got {}",
            rec.speedup
        );
    }
}
