//! HotSpot — Rodinia thermal simulation.

use crate::common::{rng, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// HotSpot (§III-B): estimates processor temperature from an architectural
/// floor plan and simulated power measurements by iteratively solving the
/// thermal differential equations on a 2-D grid (Rodinia).
///
/// Program model (Table II): TV = 36, TC = 22. The temperature/result grids
/// and the power grid flow through `single_iteration`'s pointer parameters;
/// the chip-parameter scalars are passed by reference.
///
/// The grid working set is sized so that the double-precision version
/// spills the simulated L2 while the single-precision version fits — a
/// large memory-bound gain (Table IV: 1.78×). Two chip constants appear as
/// source literals, so searched configurations (which cannot transform
/// literals) retain a few casts and land slightly below the manual maximum,
/// as the paper observes.
///
/// Temperatures are represented as offsets from the ambient temperature,
/// which keeps the verified output values (and thus the single-precision
/// MAE) tiny, matching the paper's 3.08e-10 quality loss.
#[derive(Debug, Clone)]
pub struct Hotspot {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl Hotspot {
    /// Paper-scale instance: 3 grids × 128×128 doubles ≈ 393 KiB (spills the
    /// 256 KiB L2); single precision halves that to within capacity.
    pub fn new() -> Self {
        Self::with_params(128, 128, 8)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(24, 24, 3)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is below 3 or `iterations == 0`.
    pub fn with_params(rows: usize, cols: usize, iterations: usize) -> Self {
        assert!(rows >= 3 && cols >= 3 && iterations > 0);
        let mut b = ProgramBuilder::new("hotspot");
        let module = b.module("hotspot.c");
        let main = b.function("main", module);
        let iter_fn = b.function("single_iteration", module);

        // --- main: grids and chip parameters (13 tunable).
        let temp = b.array(main, "temp");
        let power = b.array(main, "power");
        let result = b.array(main, "result");
        let t_chip = b.scalar(main, "t_chip");
        let chip_height = b.scalar(main, "chip_height");
        let chip_width = b.scalar(main, "chip_width");
        let cap = b.scalar(main, "Cap");
        let rx = b.scalar(main, "Rx");
        let ry = b.scalar(main, "Ry");
        let rz = b.scalar(main, "Rz");
        let max_slope = b.scalar(main, "max_slope");
        let step = b.scalar(main, "step");
        let amb_temp = b.scalar(main, "amb_temp");

        // --- single_iteration: parameters and locals (23 tunable).
        let temp_in = b.array(iter_fn, "temp_in");
        let temp_out = b.array(iter_fn, "temp_out");
        let power_in = b.array(iter_fn, "power_in");
        let cap_1 = b.scalar(iter_fn, "Cap_1");
        let rx_1 = b.scalar(iter_fn, "Rx_1");
        let ry_1 = b.scalar(iter_fn, "Ry_1");
        let rz_1 = b.scalar(iter_fn, "Rz_1");
        let step_1 = b.scalar(iter_fn, "step_1");
        let amb_1 = b.scalar(iter_fn, "amb_1");
        let delta = b.scalar(iter_fn, "delta");
        let tc = b.scalar(iter_fn, "tc");
        let tn = b.scalar(iter_fn, "tn");
        let ts = b.scalar(iter_fn, "ts");
        let te = b.scalar(iter_fn, "te");
        let tw = b.scalar(iter_fn, "tw");
        let h_sum = b.scalar(iter_fn, "h_sum");
        let v_sum = b.scalar(iter_fn, "v_sum");
        let p_term = b.scalar(iter_fn, "p_term");
        let dtemp = b.scalar(iter_fn, "dtemp");
        let r_denom_x = b.scalar(iter_fn, "r_denom_x");
        let r_denom_y = b.scalar(iter_fn, "r_denom_y");
        let r_denom_z = b.scalar(iter_fn, "r_denom_z");
        let acc = b.scalar(iter_fn, "acc");

        // Untransformable literals in the update expression.
        let step_lit = b.literal(iter_fn, "0.5");
        let _two_lit = b.literal(iter_fn, "2.0");

        // Pointer bindings: grids ping-pong between main and the iteration
        // function; parameter scalars are passed by reference.
        b.bind(temp, result);
        b.bind(temp, temp_in);
        b.bind(result, temp_out);
        b.bind(power, power_in);
        b.bind(cap, cap_1);
        b.bind(rx, rx_1);
        b.bind(ry, ry_1);
        b.bind(rz, rz_1);
        b.bind(step, step_1);
        b.bind(amb_temp, amb_1);
        // The stencil window (tc/tn/ts/te/tw) is carried in a small
        // temperature array shared with the grid element type.
        b.bind(tc, tn);
        b.bind(tc, ts);
        b.bind(tc, te);
        b.bind(tc, tw);

        let program = b.build();
        debug_assert_eq!(program.total_variables(), 36);
        debug_assert_eq!(program.total_clusters(), 22);

        let _ = (
            t_chip,
            chip_height,
            chip_width,
            max_slope,
            h_sum,
            v_sum,
            p_term,
            dtemp,
            r_denom_x,
            r_denom_y,
            r_denom_z,
            acc,
        );

        // Synthetic power map and initial temperature offsets.
        let n = rows * cols;
        let mut g = rng("hotspot", 0);
        let power_vals: Vec<f64> = (0..n).map(|_| g.uniform(1.0e-6, 5.0e-5)).collect();
        let temp_vals: Vec<f64> = (0..n).map(|_| g.uniform(0.0, 1.0e-3)).collect();

        // Allocation order is power, temp, result; four charges per
        // iteration; one sweep per row segment. Boundary sites reuse the
        // centre temperature, forgoing one load per missing neighbour, so
        // each row is three segments (left edge, interior, right edge)
        // with streams declared in the stencil's per-cell evaluation
        // order. The grid ping-pong cannot hoist (each pass reads the
        // previous pass's writes), so the iteration loop is unrolled with
        // the cur/nxt array ids swapped per pass; the output is whichever
        // grid the last pass wrote.
        let mut p = mixp_ir::Program::new("hotspot");
        let pow_a = p.array_init(vid(power), power_vals);
        let temp_a = p.array_init(vid(temp), temp_vals);
        let result_a = p.array(vid(result), n);
        let cap_s = p.scalar(vid(cap), 0.5);
        let rx_s = p.scalar(vid(rx), 1.0 / 3.0);
        let ry_s = p.scalar(vid(ry), 1.0 / 3.0);
        let rz_s = p.scalar(vid(rz), 4.75);
        let step_s = p.scalar(vid(step), 1.0 / 64.0);
        let tc_sc = p.scalar(vid(tc), 0.0);
        let delta_sc = p.scalar(vid(delta), 0.0);
        let n64 = n as u64;
        let (mut cur, mut nxt) = (temp_a, result_a);
        for _ in 0..iterations {
            p.flop(vid(tc), &[], 4 * n64);
            // The `2.0` and `0.5` update factors are literals: at single
            // precision these two ops stay double and cast.
            p.flop(vid(delta), &[vid(tc), vid(step_lit)], 2 * n64);
            // Rx/Ry/Rz are priced as pre-inverted outside the loop, so the
            // inner update is charged as multiply-add only.
            p.flop(
                vid(delta),
                &[vid(step), vid(cap), vid(power), vid(ry), vid(rx), vid(rz)],
                7 * n64,
            );
            p.flop(vid(result), &[vid(tc), vid(delta)], n64);
            for r in 0..rows {
                let segments = [
                    (0, 1, false, true),
                    (1, cols - 1, true, true),
                    (cols - 1, cols, true, false),
                ];
                for (start, end, west, east) in segments {
                    let base = r * cols + start;
                    let mut s = Sweep::new(end - start);
                    s.load(cur, base);
                    if r > 0 {
                        s.load(cur, base - cols);
                    }
                    if r + 1 < rows {
                        s.load(cur, base + cols);
                    }
                    if west {
                        s.load(cur, base - 1);
                    }
                    if east {
                        s.load(cur, base + 1);
                    }
                    s.load(pow_a, base).store(nxt, base);
                    // The centre temperature rounds through the `tc`
                    // scratch scalar; boundary sites reuse it in place of
                    // the missing neighbour.
                    let tc_l = s.bind_scal(tc_sc, Expr::at(cur, base));
                    let tn = if r > 0 {
                        Expr::at(cur, base - cols)
                    } else {
                        tc_l.clone()
                    };
                    let ts = if r + 1 < rows {
                        Expr::at(cur, base + cols)
                    } else {
                        tc_l.clone()
                    };
                    let tw = if west {
                        Expr::at(cur, base - 1)
                    } else {
                        tc_l.clone()
                    };
                    let te = if east {
                        Expr::at(cur, base + 1)
                    } else {
                        tc_l.clone()
                    };
                    let vert = s.bind(ts + tn - Expr::k(2.0) * tc_l.clone());
                    let horiz = s.bind(te + tw - Expr::k(2.0) * tc_l.clone());
                    // delta = step/cap * (power + (ts+tn-2tc)/ry
                    //                    + (te+tw-2tc)/rx + (amb-tc)/rz),
                    // where the ambient offset is zero by definition and
                    // `-tc` is `-1.0 * tc`: an exact IEEE sign flip,
                    // signed zeros included.
                    let sink = s.bind(Expr::k(-1.0) * tc_l.clone());
                    let d = (Expr::scal(step_s) / Expr::scal(cap_s))
                        * (Expr::at(pow_a, base)
                            + vert / Expr::scal(ry_s)
                            + horiz / Expr::scal(rx_s)
                            + sink / Expr::scal(rz_s));
                    let d_l = s.bind_scal(delta_sc, d);
                    let tc2 = s.bind_scal(tc_sc, tc_l + d_l);
                    s.set(nxt, base, tc2);
                    p.sweep(s);
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
        }
        p.output(cur);

        Hotspot { program, ir: p }
    }
}

impl Default for Hotspot {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Hotspot {
    fn name(&self) -> &str {
        "hotspot"
    }

    fn description(&self) -> &str {
        "Thermal simulation of a processor floor plan (Rodinia)"
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

    fn ir_program(&self) -> Option<&mixp_ir::Program> {
        Some(&self.ir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{Evaluator, ExecCtx, QualityThreshold};

    #[test]
    fn model_matches_table2() {
        let app = Hotspot::small();
        assert_eq!(app.program().total_variables(), 36);
        assert_eq!(app.program().total_clusters(), 22);
    }

    #[test]
    fn temperatures_stay_finite_and_small() {
        let app = Hotspot::small();
        let cfg = app.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = app.run(&mut ctx);
        assert!(out.iter().all(|t| t.is_finite() && t.abs() < 1.0));
    }

    #[test]
    fn single_precision_error_is_tiny() {
        // Offsets from ambient are ~1e-3, so absolute f32 error ~1e-10.
        let app = Hotspot::small();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(rec.quality > 0.0);
        assert!(rec.quality < 1e-8, "error {}", rec.quality);
    }

    #[test]
    fn paper_scale_grid_spills_l2_in_double_only() {
        // 3 grids * 128 * 128 * 8B = 384 KiB > 256 KiB; halved fits.
        let app = Hotspot::new();
        let grid_bytes = |cfg: &mixp_core::PrecisionConfig| {
            let mut ctx = ExecCtx::new(cfg);
            app.run(&mut ctx);
            ctx.allocations().iter().map(|a| a.2).sum::<u64>()
        };
        assert!(grid_bytes(&app.program().config_all_double()) > 256 * 1024);
        assert!(grid_bytes(&app.program().config_all_single()) < 256 * 1024);
    }
}
