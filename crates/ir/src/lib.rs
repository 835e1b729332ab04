//! A small SSA-ish IR for mixed-precision benchmark programs, plus a
//! lowering pipeline that compiles a `(Program, precision assignment)`
//! pair into a specialized straight-line **execution plan**.
//!
//! # Why an IR
//!
//! The hand-written benchmarks consult per-handle precision state on
//! every sweep even though a precision config fixes every decision
//! before the first flop. Search algorithms price thousands of configs
//! per benchmark, so ahead-of-time specialization is the biggest
//! hot-path lever: compile once per config, then re-run the plan with
//! zero per-op config dispatch.
//!
//! # Pipeline
//!
//! 1. **[`Program`]** — typed arrays/scalars, bulk ops
//!    ([`Sweep::fill`], [`Sweep::axpy`], [`Sweep::xpby`],
//!    [`Sweep::scale`], [`Sweep::map`], [`Sweep::gather`],
//!    [`Reduce::dot`], [`Reduce::sum`]), custom element-wise sweeps,
//!    reductions, and counted loops with static trip counts
//!    ([`Program::begin_repeat`]).
//! 2. **Analysis** (config-independent, cached on the program):
//!    per-sweep vectorizability (unit strides, no gathers, no
//!    loop-carried hazards) and per-loop *charge hoistability* (a pass
//!    body whose every load reads either a value recomputed earlier in
//!    the same pass or a never-written input recomputes the identical
//!    values every pass, so compute can run once while accounting is
//!    replayed in closed form).
//! 3. **[`Program::compile`]** — constant precision propagation
//!    resolves every array/scalar to a concrete [`RoundMode`] once;
//!    dead-cast elimination turns same-precision (double) stores into
//!    plain copies; loop-invariant charge hoisting folds per-iteration
//!    flop/heavy/memory charges into [`StreamRt`] groups replayed
//!    `times` passes while the compute steps run once. Array init data
//!    is pre-rounded per precision and memoized on the program.
//!    [`Program::compile_unoptimized`] lowers the same program with
//!    vectorization, hoisting and the dot superinstruction off: the
//!    literal reading the optimized plan is tested against.
//! 4. **[`Plan::execute`]** — a plan interpreter over a raw `f64`
//!    arena. Vectorizable sweeps run as three-address slice
//!    instructions, serial sweeps as a tiny stack bytecode; all
//!    accounting (charges, stream groups, gather elements) is emitted
//!    through the [`ExecSink`] trait so the embedder can route it to
//!    its op counters and memory tracer and observe the **identical**
//!    access stream the element-wise program produces.
//!
//! The crate is dependency-free by design: variables are raw `u32`
//! ids, precision is the three-level [`Prec`] lattice, and the
//! extended-format (f16) rounding function is injected as a plain
//! `fn(f64) -> f64` pointer. All f32/f16 rounding lives in the
//! sanctioned [`round`] module — plan interpretation itself never
//! touches a narrow float type.

mod analyze;
mod compile;
mod plan;
mod prog;
pub mod round;

pub use plan::{ExecSink, GatherRt, Plan, RecordingSink, Scratch, StreamRt};
pub use prog::Program;
pub use prog::{
    ArrId, BinOp, ElemStmt, Expr, Reduce, ScalId, Stmt, StreamDecl, Sweep, TabId, UnOp,
};
pub use round::{HalfFn, RoundMode};

/// Storage precision of one IR value: the paper's three-level lattice.
///
/// Mirrors the runtime's `Precision` but is deliberately a separate
/// type so this crate stays dependency-free; the embedder maps between
/// the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Prec {
    /// IEEE binary16 storage (rounded via the injected [`HalfFn`]).
    Half,
    /// IEEE binary32 storage.
    Single,
    /// IEEE binary64 storage (the reference precision; a no-op round).
    Double,
}

impl Prec {
    /// Storage size in bytes of one element at this precision.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Prec::Half => 2,
            Prec::Single => 4,
            Prec::Double => 8,
        }
    }

    /// The rounding mode a store through this storage precision uses.
    #[inline]
    pub fn round_mode(self) -> RoundMode {
        match self {
            Prec::Half => RoundMode::Ext,
            Prec::Single => RoundMode::F32,
            Prec::Double => RoundMode::Id,
        }
    }
}
