//! SRAD — Rodinia speckle-reducing anisotropic diffusion.

use crate::common::{rng, InputFile};
use mixp_core::{
    Benchmark, BenchmarkKind, ExecCtx, MetricKind, ProgramBuilder, ProgramModel, VarId,
};
use mixp_float::{MpScalar, MpVec, StreamGroup};

/// Declares one row segment's gradient-phase streams in the per-site
/// evaluation order: the centre load, the present neighbour loads, the four
/// gradient stores, and the coefficient store.
#[allow(clippy::too_many_arguments)]
fn declare_gradient(
    g: &mut StreamGroup,
    j: &MpVec,
    grads: [&MpVec; 4],
    c: &MpVec,
    base: usize,
    cols: usize,
    r: usize,
    rows: usize,
    west: bool,
    east: bool,
) {
    g.clear();
    g.load(j, base);
    if r > 0 {
        g.load(j, base - cols);
    }
    if r + 1 < rows {
        g.load(j, base + cols);
    }
    if west {
        g.load(j, base - 1);
    }
    if east {
        g.load(j, base + 1);
    }
    for grad in grads {
        g.store(grad, base);
    }
    g.store(c, base);
}

/// Declares one row segment's diffusion-update streams: the coefficient
/// window (south/east only where present), the four gradient loads, and the
/// image read-modify-write.
#[allow(clippy::too_many_arguments)]
fn declare_diffusion(
    g: &mut StreamGroup,
    c: &MpVec,
    grads: [&MpVec; 4],
    j: &MpVec,
    base: usize,
    cols: usize,
    r: usize,
    rows: usize,
    east: bool,
) {
    g.clear();
    g.load(c, base);
    if r + 1 < rows {
        g.load(c, base + cols);
    }
    if east {
        g.load(c, base + 1);
    }
    for grad in grads {
        g.load(grad, base);
    }
    g.load(j, base);
    g.store(j, base);
}

/// SRAD (§III-B): a partial-differential-equation diffusion method for
/// ultrasonic/radar imaging that removes locally correlated speckle noise
/// without destroying important image features (Rodinia). The verified
/// output is the corrected image (MAE).
///
/// Program model (Table II): TV = 29, TC = 14.
///
/// This is the paper's extreme case in the other direction: converting the
/// application to single precision *destroys the output* — Table IV reports
/// `NaN` quality. The mechanism here is faithful to the real code: the ROI
/// statistics compute a variance as `E[J²] − E[J]²` over an image with a
/// large additive offset; at single precision the two terms cancel
/// catastrophically, the computed variance goes negative, and the
/// normalised standard deviation (`sqrt`) turns into `NaN`, poisoning the
/// diffusion coefficient and then the whole image.
#[derive(Debug, Clone)]
pub struct Srad {
    program: ProgramModel,
    v: Vars,
    rows: usize,
    cols: usize,
    iterations: usize,
    image_file: InputFile,
}

#[derive(Debug, Clone, Copy)]
struct Vars {
    image: VarId,
    c: VarId,
    dn: VarId,
    ds: VarId,
    dw: VarId,
    de: VarId,
    sum: VarId,
    mean_roi: VarId,
    var_roi: VarId,
    q0sqr: VarId,
    qsqr: VarId,
    g2: VarId,
    l: VarId,
    num: VarId,
    lambda: VarId,
}

impl Srad {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(64, 64, 4)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(24, 24, 2)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is below 3 or `iterations == 0`.
    pub fn with_params(rows: usize, cols: usize, iterations: usize) -> Self {
        assert!(rows >= 3 && cols >= 3 && iterations > 0);
        let mut b = ProgramBuilder::new("srad");
        let module = b.module("srad.c");
        let main = b.function("main", module);
        let stats = b.function("roi_statistics", module);
        let kernel = b.function("srad_kernel", module);

        // --- Image family.
        let image = b.array(main, "image");
        let j = b.array(main, "J");
        let j_param = b.array(kernel, "J_param");
        b.bind(image, j);
        b.bind(j, j_param);

        // --- Diffusion coefficient.
        let c = b.array(main, "c");
        let c_param = b.array(kernel, "c_param");
        b.bind(c, c_param);

        // --- Directional gradients (four arrays, each with its kernel
        // parameter).
        let dn = b.array(main, "dN");
        let dn_p = b.array(kernel, "dN_p");
        b.bind(dn, dn_p);
        let ds = b.array(main, "dS");
        let ds_p = b.array(kernel, "dS_p");
        b.bind(ds, ds_p);
        let dw = b.array(main, "dW");
        let dw_p = b.array(kernel, "dW_p");
        b.bind(dw, dw_p);
        let de = b.array(main, "dE");
        let de_p = b.array(kernel, "dE_p");
        b.bind(de, de_p);

        // --- ROI statistics (accumulators and out-parameters).
        let sum = b.scalar(stats, "sum");
        let sum2 = b.scalar(stats, "sum2");
        let stat_acc = b.scalar(stats, "stat_acc");
        b.bind(sum, sum2);
        b.bind(sum, stat_acc);
        let mean_roi = b.scalar(stats, "meanROI");
        let var_roi = b.scalar(stats, "varROI");
        let stat_mean = b.scalar(main, "stat_mean");
        let stat_var = b.scalar(main, "stat_var");
        b.bind(mean_roi, stat_mean);
        b.bind(var_roi, stat_var);
        b.bind(mean_roi, var_roi);

        // --- Kernel locals.
        let q0sqr = b.scalar(main, "q0sqr");
        let qsqr = b.scalar(kernel, "qsqr");
        let g2 = b.scalar(kernel, "G2");
        let l = b.scalar(kernel, "L");
        let num = b.scalar(kernel, "num");
        let den = b.scalar(kernel, "den");
        let qsqr_tmp = b.scalar(kernel, "qsqr_tmp");
        b.bind(num, den);
        b.bind(num, qsqr_tmp);
        let lambda = b.scalar(main, "lambda");
        let lambda_k = b.scalar(kernel, "lambda_k");
        b.bind(lambda, lambda_k);

        let program = b.build();
        debug_assert_eq!(program.total_variables(), 29);
        debug_assert_eq!(program.total_clusters(), 14);

        // Ultrasound-like image: a large additive offset (sensor bias)
        // with small speckle noise. The offset is what makes the
        // single-precision variance cancel catastrophically.
        let mut g = rng("srad", 2);
        let n = rows * cols;
        let values: Vec<f64> = (0..n).map(|_| 1000.0 + g.uniform(-0.05, 0.05)).collect();

        Srad {
            program,
            v: Vars {
                image,
                c,
                dn,
                ds,
                dw,
                de,
                sum,
                mean_roi,
                var_roi,
                q0sqr,
                qsqr,
                g2,
                l,
                num,
                lambda,
            },
            rows,
            cols,
            iterations,
            image_file: InputFile::new(&values),
        }
    }
}

impl Default for Srad {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Srad {
    fn name(&self) -> &str {
        "srad"
    }

    fn description(&self) -> &str {
        "Speckle-reducing anisotropic diffusion for ultrasound imaging (Rodinia)"
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
        let (rows, cols) = (self.rows, self.cols);
        let n = rows * cols;
        let mut j = self.image_file.load(ctx, v.image);
        let mut c = ctx.alloc_vec(v.c, n);
        let mut dn = ctx.alloc_vec(v.dn, n);
        let mut ds = ctx.alloc_vec(v.ds, n);
        let mut dw = ctx.alloc_vec(v.dw, n);
        let mut de = ctx.alloc_vec(v.de, n);
        let lambda = MpScalar::new(ctx, v.lambda, 0.25);

        let mut seg_group = StreamGroup::new();
        for _ in 0..self.iterations {
            // ROI statistics over the whole image: the classic
            // E[J²] − E[J]² form that cancels at single precision.
            let mut sum = MpScalar::new(ctx, v.sum, 0.0);
            let mut sum2 = MpScalar::new(ctx, v.sum, 0.0);
            ctx.flop(v.sum, &[v.image], 3 * n as u64);
            j.sum_with_squares(ctx, &mut sum, &mut sum2);
            let mut mean_roi = MpScalar::new(ctx, v.mean_roi, 0.0);
            ctx.heavy(v.mean_roi, &[v.sum], 1);
            mean_roi.set(ctx, sum.get() / n as f64);
            let mut var_roi = MpScalar::new(ctx, v.var_roi, 0.0);
            ctx.flop(v.var_roi, &[v.sum, v.mean_roi], 2);
            ctx.heavy(v.var_roi, &[v.sum], 1);
            var_roi.set(ctx, sum2.get() / n as f64 - mean_roi.get() * mean_roi.get());
            // Normalised standard deviation: sqrt of the (possibly
            // negative, at single precision) variance — the NaN source.
            let mut q0 = MpScalar::new(ctx, v.q0sqr, 0.0);
            ctx.heavy(v.q0sqr, &[v.var_roi, v.mean_roi], 2);
            q0.set(
                ctx,
                (var_roi.get().sqrt() / mean_roi.get()) * (var_roi.get().sqrt() / mean_roi.get()),
            );

            // Gradients and diffusion coefficient. The operation mix per
            // site is fixed, so all flop/heavy charges hoist; the kernel
            // locals round through reusable scalars with cached rounders.
            let n64 = n as u64;
            ctx.flop(v.dn, &[v.image], 4 * n64);
            ctx.flop(v.g2, &[v.dn, v.ds, v.dw, v.de, v.image], 8 * n64);
            ctx.heavy(v.g2, &[v.image], n64);
            ctx.flop(v.l, &[v.dn, v.ds, v.dw, v.de], 4 * n64);
            ctx.heavy(v.l, &[v.image], n64);
            ctx.flop(v.qsqr, &[v.g2, v.l], 6 * n64);
            ctx.heavy(v.qsqr, &[v.g2, v.l], n64);
            ctx.flop(v.num, &[v.qsqr, v.q0sqr], 3 * n64);
            ctx.heavy(v.num, &[v.q0sqr], n64);
            ctx.heavy(v.c, &[v.num], n64);
            let mut g2 = MpScalar::new(ctx, v.g2, 0.0);
            let mut lv = MpScalar::new(ctx, v.l, 0.0);
            let mut qsqr = MpScalar::new(ctx, v.qsqr, 0.0);
            let mut num = MpScalar::new(ctx, v.num, 0.0);
            // Boundary sites reuse the centre value instead of loading a
            // neighbour, so each row commits as three segments whose
            // stream sets match the per-site evaluation order exactly.
            {
                let jv = j.raw();
                for r in 0..rows {
                    let segments = [
                        (0, 1, false, true),
                        (1, cols - 1, true, true),
                        (cols - 1, cols, true, false),
                    ];
                    for (start, end, west, east) in segments {
                        declare_gradient(
                            &mut seg_group,
                            &j,
                            [&dn, &ds, &dw, &de],
                            &c,
                            r * cols + start,
                            cols,
                            r,
                            rows,
                            west,
                            east,
                        );
                        seg_group.commit(ctx, end - start);
                        for col in start..end {
                            let i = r * cols + col;
                            let jc = jv[i];
                            let jn = if r > 0 { jv[i - cols] } else { jc };
                            let js = if r + 1 < rows { jv[i + cols] } else { jc };
                            let jw = if col > 0 { jv[i - 1] } else { jc };
                            let je = if col + 1 < cols { jv[i + 1] } else { jc };
                            let dnv = dn.write_rounded(i, jn - jc);
                            let dsv = ds.write_rounded(i, js - jc);
                            let dwv = dw.write_rounded(i, jw - jc);
                            let dev = de.write_rounded(i, je - jc);

                            g2.set(
                                ctx,
                                (dnv * dnv + dsv * dsv + dwv * dwv + dev * dev) / (jc * jc),
                            );
                            lv.set(ctx, (dnv + dsv + dwv + dev) / jc);
                            let denom = 1.0 + 0.25 * lv.get();
                            qsqr.set(
                                ctx,
                                (0.5 * g2.get() - 0.0625 * lv.get() * lv.get()) / (denom * denom),
                            );
                            num.set(ctx, (qsqr.get() - q0.get()) / (q0.get() * (1.0 + q0.get())));
                            c.write_rounded(i, 1.0 / (1.0 + num.get()));
                        }
                    }
                }
            }

            // Diffusion update: only the south/east coefficient neighbours
            // are conditional, so each row commits as two segments.
            ctx.flop(v.image, &[v.c, v.dn, v.ds, v.dw, v.de, v.lambda], 9 * n64);
            {
                let lam = lambda.get();
                let cv = c.raw();
                let dnv = dn.raw();
                let dsv = ds.raw();
                let dwv = dw.raw();
                let dev = de.raw();
                for r in 0..rows {
                    for (start, end, east) in [(0, cols - 1, true), (cols - 1, cols, false)] {
                        declare_diffusion(
                            &mut seg_group,
                            &c,
                            [&dn, &ds, &dw, &de],
                            &j,
                            r * cols + start,
                            cols,
                            r,
                            rows,
                            east,
                        );
                        seg_group.commit(ctx, end - start);
                        for col in start..end {
                            let i = r * cols + col;
                            let cc = cv[i];
                            let cs = if r + 1 < rows { cv[i + cols] } else { cc };
                            let ce = if col + 1 < cols { cv[i + 1] } else { cc };
                            let div = cc * dnv[i] + cs * dsv[i] + cc * dwv[i] + ce * dev[i];
                            let jc = j.raw()[i];
                            j.write_rounded(i, jc + 0.25 * lam * div);
                        }
                    }
                }
            }
        }
        j.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{run_config, CacheParams};
    use mixp_core::{Evaluator, QualityThreshold};

    #[test]
    fn model_matches_table2() {
        let app = Srad::small();
        assert_eq!(app.program().total_variables(), 29);
        assert_eq!(app.program().total_clusters(), 14);
    }

    #[test]
    fn double_precision_output_is_finite() {
        let app = Srad::small();
        let cfg = app.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = app.run(&mut ctx);
        assert!(out.iter().all(|x| x.is_finite()), "double must stay clean");
    }

    #[test]
    fn single_precision_output_is_destroyed() {
        // Table IV: the all-single SRAD output contains NaN.
        for app in [Srad::small(), Srad::new()] {
            let cfg = app.program().config_all_single();
            let (out, _, _) = run_config(&app, &cfg, CacheParams::default());
            assert!(
                out.iter().any(|x| !x.is_finite()),
                "cancellation must destroy the single-precision output"
            );
        }
    }

    #[test]
    fn single_precision_never_passes_any_threshold() {
        let app = Srad::small();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(!rec.passes);
        assert!(rec.quality.is_nan());
    }

    #[test]
    fn keeping_statistics_double_preserves_the_output() {
        // Lower the image/gradient arrays but keep the statistics cluster
        // double: the variance no longer cancels, output stays finite.
        let app = Srad::small();
        let pm = app.program();
        let lowered: Vec<_> = [app.v.image, app.v.dn, app.v.ds, app.v.dw, app.v.de]
            .into_iter()
            .flat_map(|var| {
                let cl = pm.clustering().cluster_of(var).unwrap();
                pm.clustering().members(cl).to_vec()
            })
            .collect();
        let cfg = mixp_core::PrecisionConfig::from_lowered(pm.var_count(), lowered);
        assert!(pm.validate(&cfg).is_ok());
        let (out, _, _) = run_config(&app, &cfg, CacheParams::default());
        assert!(out.iter().all(|x| x.is_finite()));
    }
}
