//! Performance substrate: cache simulation and execution-cost modelling.
//!
//! The paper measures wall-clock speedups on an Intel Xeon cluster. This
//! crate replaces that testbed with a deterministic substitute built from
//! two pieces:
//!
//! * [`CacheSim`] / [`Hierarchy`] — a set-associative, write-back,
//!   write-allocate cache simulator (one or two levels) that consumes the
//!   synthetic memory-access stream emitted by `mixp-float`'s [`MpVec`]
//!   accesses. Because arrays are laid out at their *configured* element
//!   width, lowering an array to single precision genuinely halves its
//!   footprint and changes hit rates — reproducing the LavaMD cache effect
//!   the paper highlights in §V.
//! * [`CostModel`] — converts the operation mix ([`OpCounts`]) and cache
//!   statistics into a scalar execution-cost estimate. Plain f32 flops are
//!   cheaper than f64 (twice the SIMD width), heavy operations (divide,
//!   sqrt, transcendental) cost the same at either precision, and casts cost
//!   extra — reproducing both the "compute-bound kernels don't speed up"
//!   and the "literal-induced casts eat Hotspot's gains" shapes.
//!
//! [`MpVec`]: mixp_float::MpVec
//! [`OpCounts`]: mixp_float::OpCounts
//!
//! # Example
//!
//! ```
//! use mixp_float::{ExecCtx, PrecisionConfig, VarRegistry};
//! use mixp_perf::{CacheParams, CostModel, Hierarchy};
//!
//! let mut reg = VarRegistry::new();
//! let a = reg.fresh("a");
//! let cfg = PrecisionConfig::all_double(reg.len());
//! let mut cache = Hierarchy::new(CacheParams::default());
//! let mut ctx = ExecCtx::with_tracer(&cfg, &mut cache);
//! let mut v = ctx.alloc_vec(a, 1024);
//! for i in 0..1024 {
//!     v.set(&mut ctx, i, i as f64);
//! }
//! let counts = ctx.counts();
//! drop(ctx);
//! let stats = cache.stats();
//! assert_eq!(stats.accesses, 1024);
//! let cost = CostModel::default().cost(&counts, Some(&stats));
//! assert!(cost > 0.0);
//! ```

pub mod bench;
mod cache;
mod cost;
mod fingerprint;
pub mod profile;

pub use bench::{BenchGroup, Bencher};
pub use cache::{CacheParams, CacheSim, CacheStats, Hierarchy, LevelParams};
pub use cost::CostModel;
pub use fingerprint::{StreamFingerprint, StreamFingerprinter};
pub use profile::{attribute, AccessProfiler, Tee, VarTraffic};
