//! Plugging your own benchmark into the suite.
//!
//! ```sh
//! cargo run --release --example custom_benchmark
//! ```
//!
//! HPC-MixPBench is designed to be extended (§III): a new benchmark only
//! needs to (1) declare its program model — variables and the
//! type-dependence edges a pointer-based C implementation would induce —
//! and (2) route its computation through the mixed-precision execution
//! context. Every search algorithm, metric and report then works on it
//! unchanged.
//!
//! The example implements a damped 1-D wave-equation step (a leapfrog
//! scheme over three time levels) and tunes it with delta-debugging and
//! the exhaustive baseline.

use mixp_core::synth::SplitMix64;
use mixp_core::{
    Benchmark, BenchmarkKind, Evaluator, ExecCtx, MetricKind, ProgramBuilder, ProgramModel,
    QualityThreshold, VarId,
};
use mixp_float::MpVec;
use mixp_search::{Combinational, DeltaDebug, SearchAlgorithm};

/// A leapfrog integrator for the damped wave equation
/// `u_tt = c² u_xx − γ u_t` on a 1-D grid.
struct WaveStep {
    program: ProgramModel,
    prev: VarId,
    cur: VarId,
    next: VarId,
    c2: VarId,
    damping: VarId,
    n: usize,
    steps: usize,
    init: Vec<f64>,
}

impl WaveStep {
    fn new(n: usize, steps: usize) -> Self {
        let mut b = ProgramBuilder::new("wave-step");
        let module = b.module("wave.c");
        let f = b.function("leapfrog", module);
        // The three time levels rotate through the same pointers: one
        // cluster.
        let prev = b.array(f, "u_prev");
        let cur = b.array(f, "u_cur");
        let next = b.array(f, "u_next");
        b.bind(prev, cur);
        b.bind(cur, next);
        // The two physics coefficients travel in one parameter struct.
        let c2 = b.scalar(f, "c2");
        let damping = b.scalar(f, "damping");
        b.bind(c2, damping);
        let program = b.build();

        let mut g = SplitMix64::new(0x5741_5645);
        let init: Vec<f64> = (0..n).map(|_| g.uniform(-0.01, 0.01)).collect();
        WaveStep {
            program,
            prev,
            cur,
            next,
            c2,
            damping,
            n,
            steps,
            init,
        }
    }
}

impl Benchmark for WaveStep {
    fn name(&self) -> &str {
        "wave-step"
    }

    fn description(&self) -> &str {
        "Damped 1-D wave equation leapfrog step (custom extension)"
    }

    fn kind(&self) -> BenchmarkKind {
        BenchmarkKind::Kernel
    }

    fn program(&self) -> &ProgramModel {
        &self.program
    }

    fn metric(&self) -> MetricKind {
        MetricKind::Rmse
    }

    fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
        let c2 = mixp_float::MpScalar::new(ctx, self.c2, 0.25);
        let damping = mixp_float::MpScalar::new(ctx, self.damping, 0.02);
        let mut prev = MpVec::from_values(ctx, self.prev, &self.init);
        let mut cur = MpVec::from_values(ctx, self.cur, &self.init);
        let mut next = ctx.alloc_vec(self.next, self.n);
        for _ in 0..self.steps {
            for i in 1..self.n - 1 {
                let lap = cur.get(ctx, i - 1) - 2.0 * cur.get(ctx, i) + cur.get(ctx, i + 1);
                let vel = cur.get(ctx, i) - prev.get(ctx, i);
                let v = cur.get(ctx, i) + (1.0 - damping.get()) * vel + c2.get() * lap;
                ctx.flop(self.next, &[self.cur, self.prev, self.c2, self.damping], 8);
                next.set(ctx, i, v);
            }
            std::mem::swap(&mut prev, &mut cur);
            std::mem::swap(&mut cur, &mut next);
        }
        cur.snapshot()
    }
}

fn main() {
    let bench = WaveStep::new(2048, 50);
    println!(
        "{}: {} variables, {} clusters, metric {}",
        bench.name(),
        bench.program().total_variables(),
        bench.program().total_clusters(),
        bench.metric()
    );

    for algo in [
        Box::new(Combinational::new()) as Box<dyn SearchAlgorithm>,
        Box::new(DeltaDebug::new()),
    ] {
        let mut ev = Evaluator::new(&bench, QualityThreshold::new(1e-6));
        let result = algo.search(&mut ev);
        println!("{}: {}", algo.full_name(), result);
    }
}
