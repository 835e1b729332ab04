//! LavaMD — Rodinia molecular-dynamics particle-potential code.

use crate::common::{rng, InputFile};
use mixp_core::{
    Benchmark, BenchmarkKind, ExecCtx, MetricKind, ProgramBuilder, ProgramModel, VarId,
};
use mixp_float::{IndexVec, MpScalar, StreamGroup};

/// LavaMD (§III-B): computes particle potential and relocation due to
/// mutual forces between particles within a large 3-D space divided into
/// boxes; each box interacts with its 26 neighbours (Rodinia).
/// Verified outputs are the force/velocity four-vectors (MAE).
///
/// Program model (Table II): TV = 47, TC = 11. LavaMD's FOUR_VECTOR arrays
/// flow as pointers through the whole kernel, collapsing 47 variables into
/// just 11 clusters.
///
/// This is the paper's headline cache case (§V): the position/charge/force
/// working set is revisited 27 times per box, and the double-precision
/// footprint spills the simulated cache hierarchy while the single-precision
/// footprint fits — lowering the arrays changes the *cache behaviour*, not
/// just the arithmetic, for a 2.66× gain (Table IV). The accumulated
/// pairwise forces also make it the application with the largest accuracy
/// loss (~1e-4), so it only passes relaxed thresholds.
#[derive(Debug, Clone)]
pub struct LavaMd {
    program: ProgramModel,
    v: Vars,
    boxes_per_dim: usize,
    par_per_box: usize,
    rv_file: InputFile,
    qv_file: InputFile,
    neighbors: Vec<i64>,
}

#[derive(Debug, Clone, Copy)]
struct Vars {
    rv: VarId,
    qv: VarId,
    fv: VarId,
    a2: VarId,
    r2: VarId,
    u2: VarId,
    vij: VarId,
    fs: VarId,
}

impl LavaMd {
    /// Paper-scale instance: 4³ boxes × 64 particles. At 9 doubles per
    /// particle the double-precision working set (~288 KiB) spills the
    /// simulated L2 while the single-precision set (~144 KiB) fits, and a
    /// home box's 27-neighbour window likewise straddles the L1 capacity —
    /// so the reuse pattern hits dramatically different levels.
    pub fn new() -> Self {
        Self::with_params(4, 80)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(2, 6)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `boxes_per_dim == 0` or `par_per_box == 0`.
    pub fn with_params(boxes_per_dim: usize, par_per_box: usize) -> Self {
        assert!(boxes_per_dim > 0 && par_per_box > 0);
        let mut b = ProgramBuilder::new("lavamd");
        let module = b.module("lavaMD.c");
        let main = b.function("main", module);
        let kernel = b.function("kernel_cpu", module);

        // --- Position four-vectors: one big pointer-connected family.
        let rv = b.array(main, "rv");
        let r_a = b.array(kernel, "rA");
        let r_b = b.array(kernel, "rB");
        b.bind(rv, r_a);
        b.bind(rv, r_b);
        let mut pos_family = Vec::new();
        for name in [
            "rai_x", "rai_y", "rai_z", "rai_v", "rbj_x", "rbj_y", "rbj_z", "rbj_v",
        ] {
            let s = b.scalar(kernel, name);
            b.bind(rv, s);
            pos_family.push(s);
        }

        // --- Charges.
        let qv = b.array(main, "qv");
        let q_b = b.array(kernel, "qB");
        let qb_j = b.scalar(kernel, "qb_j");
        let charge_acc = b.scalar(kernel, "charge_acc");
        b.bind(qv, q_b);
        b.bind(qv, qb_j);
        b.bind(qv, charge_acc);

        // --- Forces.
        let fv = b.array(main, "fv");
        let f_a = b.array(kernel, "fA");
        b.bind(fv, f_a);
        for name in ["fai_x", "fai_y", "fai_z", "fai_v", "fxij", "fyij", "fzij"] {
            let s = b.scalar(kernel, name);
            b.bind(fv, s);
        }
        let fs = b.scalar(kernel, "fs");
        b.bind(fv, fs);

        // --- Simulation parameter alpha² (par.alpha flows by reference).
        let par_alpha = b.scalar(main, "par_alpha");
        let a2 = b.scalar(main, "a2");
        let a2_kernel = b.scalar(kernel, "a2_kernel");
        b.bind(par_alpha, a2);
        b.bind(a2, a2_kernel);

        // --- Pairwise distance components (a THREE_VECTOR helper).
        let dx = b.scalar(kernel, "dx");
        let r2 = b.scalar(kernel, "r2");
        for name in ["dy", "dz", "d_tmp"] {
            let s = b.scalar(kernel, name);
            b.bind(dx, s);
        }
        b.bind(dx, r2);

        // --- Potential terms.
        let u2 = b.scalar(kernel, "u2");
        let vij = b.scalar(kernel, "vij");
        let v_tmp = b.scalar(kernel, "v_tmp");
        b.bind(u2, vij);
        b.bind(u2, v_tmp);

        // --- Per-home-particle accumulators (a FOUR_VECTOR).
        let acc_x = b.scalar(kernel, "kernel_acc_x");
        for name in ["kernel_acc_y", "kernel_acc_z", "kernel_acc_w"] {
            let s = b.scalar(kernel, name);
            b.bind(acc_x, s);
        }

        // --- Remaining main locals.
        b.scalar(main, "main_t0");
        b.scalar(main, "main_t1");
        let cutoff = b.scalar(main, "cutoff");
        for name in ["cutoff2", "cutoff_tmp"] {
            let s = b.scalar(main, name);
            b.bind(cutoff, s);
        }
        let dist_scale = b.scalar(main, "dist_scale");
        let dist_scale_k = b.scalar(kernel, "dist_scale_k");
        b.bind(dist_scale, dist_scale_k);

        let program = b.build();
        debug_assert_eq!(program.total_variables(), 47);
        debug_assert_eq!(program.total_clusters(), 11);

        let _ = pos_family;

        // Synthetic particle soup.
        let nboxes = boxes_per_dim * boxes_per_dim * boxes_per_dim;
        let npar = nboxes * par_per_box;
        let mut g = rng("lavamd", 0);
        let mut rv_vals = Vec::with_capacity(npar * 4);
        for _ in 0..npar {
            rv_vals.push(g.uniform(0.1, 1.0)); // x
            rv_vals.push(g.uniform(0.1, 1.0)); // y
            rv_vals.push(g.uniform(0.1, 1.0)); // z
            rv_vals.push(g.uniform(0.1, 1.0)); // v
        }
        let qv_vals: Vec<f64> = (0..npar).map(|_| g.uniform(10.0, 30.0)).collect();

        // 26 + 1 neighbour boxes per box, clamped at the domain boundary
        // (interior boxes have 27, corner boxes 8 — like the paper's space).
        let bd = boxes_per_dim as i64;
        let mut neighbors = Vec::new();
        for z in 0..bd {
            for y in 0..bd {
                for x in 0..bd {
                    let mut list = Vec::new();
                    for dz in -1..=1 {
                        for dy in -1..=1 {
                            for dxo in -1..=1 {
                                let (nx, ny, nz) = (x + dxo, y + dy, z + dz);
                                if (0..bd).contains(&nx)
                                    && (0..bd).contains(&ny)
                                    && (0..bd).contains(&nz)
                                {
                                    list.push(nz * bd * bd + ny * bd + nx);
                                }
                            }
                        }
                    }
                    // Fixed-width row: pad with -1.
                    list.resize(27, -1);
                    neighbors.extend(list);
                }
            }
        }

        LavaMd {
            program,
            v: Vars {
                rv,
                qv,
                fv,
                a2,
                r2,
                u2,
                vij,
                fs,
            },
            boxes_per_dim,
            par_per_box,
            rv_file: InputFile::new(&rv_vals),
            qv_file: InputFile::new(&qv_vals),
            neighbors,
        }
    }
}

impl Default for LavaMd {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for LavaMd {
    fn name(&self) -> &str {
        "lavamd"
    }

    fn description(&self) -> &str {
        "Particle potential and relocation within a boxed 3-D space (Rodinia)"
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
        let nboxes = self.boxes_per_dim.pow(3);
        let ppb = self.par_per_box;
        let rv = self.rv_file.load(ctx, v.rv);
        let qv = self.qv_file.load(ctx, v.qv);
        let mut fv = ctx.alloc_vec(v.fv, nboxes * ppb * 4);
        let neighbors = IndexVec::new(ctx, self.neighbors.clone());
        let a2 = MpScalar::new(ctx, v.a2, 2.0 * 0.5 * 0.5);

        // The neighbour structure is fixed input data, so the pair count —
        // and with it the whole operation mix — is known before the kernel
        // runs: each home particle interacts with every particle of every
        // valid neighbour box.
        let valid_boxes: u64 = self.neighbors.iter().filter(|&&nb| nb >= 0).count() as u64;
        let pairs = valid_boxes * (ppb * ppb) as u64;
        ctx.flop(v.r2, &[v.rv], 5 * pairs);
        ctx.flop(v.u2, &[v.a2, v.r2], pairs);
        // The pairwise exp vectorises (SVML-style), so it scales with SIMD
        // width like ordinary flops.
        ctx.flop(v.vij, &[v.u2], 4 * pairs);
        ctx.flop(v.fs, &[v.qv, v.vij], 2 * pairs);
        ctx.flop(v.fv, &[v.fs, v.rv], 4 * pairs);
        let mut r2 = MpScalar::new(ctx, v.r2, 0.0);
        let mut u2 = MpScalar::new(ctx, v.u2, 0.0);
        let mut vij_s = MpScalar::new(ctx, v.vij, 0.0);
        let mut fs = MpScalar::new(ctx, v.fs, 0.0);
        // Per home particle: its position four-vector, the 27 neighbour
        // indices, one strided quad-stream + charge stream per valid
        // neighbour box (rebased to the box's particle range), and the
        // force four-vector store.
        let mut home_group = StreamGroup::new();
        home_group.load(&rv, 0);
        let mut nb_group = StreamGroup::new();
        nb_group.load_index(&neighbors, 0);
        let mut pair_group = StreamGroup::new();
        for kq in 0..4 {
            pair_group.load_strided(&rv, kq, 4);
        }
        pair_group.load(&qv, 0);
        let mut force_group = StreamGroup::new();
        force_group.store(&fv, 0);
        {
            let a2v = a2.get();
            let rvv = rv.raw();
            let qvv = qv.raw();
            let nbv = neighbors.raw();
            for home in 0..nboxes {
                for i in 0..ppb {
                    let pi = home * ppb + i;
                    home_group.rebase(0, &rv, pi * 4);
                    home_group.commit(ctx, 4);
                    nb_group.rebase_index(0, &neighbors, home * 27);
                    nb_group.commit(ctx, 27);
                    let (rx, ry, rz, rw) = (
                        rvv[pi * 4],
                        rvv[pi * 4 + 1],
                        rvv[pi * 4 + 2],
                        rvv[pi * 4 + 3],
                    );
                    let (mut ax, mut ay, mut az, mut aw) = (0.0, 0.0, 0.0, 0.0);
                    for nb in 0..27 {
                        let nb_box = nbv[home * 27 + nb];
                        if nb_box < 0 {
                            continue;
                        }
                        let pj0 = nb_box as usize * ppb;
                        for kq in 0..4 {
                            pair_group.rebase(kq, &rv, pj0 * 4 + kq);
                        }
                        pair_group.rebase(4, &qv, pj0);
                        pair_group.commit(ctx, ppb);
                        for j in 0..ppb {
                            let pj = pj0 + j;
                            let (bx, by, bz, bw) = (
                                rvv[pj * 4],
                                rvv[pj * 4 + 1],
                                rvv[pj * 4 + 2],
                                rvv[pj * 4 + 3],
                            );
                            // r2 = rA.v + rB.v - dot(rA, rB)
                            r2.set(ctx, rw + bw - (rx * bx + ry * by + rz * bz));
                            u2.set(ctx, a2v * r2.get());
                            vij_s.set(ctx, (-u2.get()).exp());
                            let qj = qvv[pj];
                            fs.set(ctx, 2.0 * qj * vij_s.get());
                            let dx = rx - bx;
                            let dy = ry - by;
                            let dz = rz - bz;
                            ax += fs.get() * dx;
                            ay += fs.get() * dy;
                            az += fs.get() * dz;
                            aw += qj * vij_s.get();
                        }
                    }
                    force_group.rebase(0, &fv, pi * 4);
                    force_group.commit(ctx, 4);
                    fv.write_rounded(pi * 4, ax);
                    fv.write_rounded(pi * 4 + 1, ay);
                    fv.write_rounded(pi * 4 + 2, az);
                    fv.write_rounded(pi * 4 + 3, aw);
                }
            }
        }
        fv.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{Evaluator, QualityThreshold};

    #[test]
    fn model_matches_table2() {
        let app = LavaMd::small();
        assert_eq!(app.program().total_variables(), 47);
        assert_eq!(app.program().total_clusters(), 11);
    }

    #[test]
    fn forces_are_finite() {
        let app = LavaMd::small();
        let cfg = app.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = app.run(&mut ctx);
        assert_eq!(out.len(), 8 * 6 * 4);
        assert!(out.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn single_precision_error_is_the_largest_of_the_suite() {
        let app = LavaMd::small();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-2));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(
            rec.quality > 1e-7,
            "accumulated force error should be visible: {}",
            rec.quality
        );
        assert!(rec.quality < 1e-2, "error {}", rec.quality);
    }

    #[test]
    fn paper_scale_gets_a_large_cache_speedup() {
        let app = LavaMd::new();
        let mut ev = Evaluator::new(&app, QualityThreshold::new(1e-2));
        let rec = ev.evaluate(&app.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 1.6,
            "Table IV says 2.66 (cache effect), got {}",
            rec.speedup
        );
    }
}
