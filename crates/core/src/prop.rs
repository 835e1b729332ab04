//! Deterministic in-tree property-testing harness.
//!
//! A zero-dependency replacement for the subset of `proptest` this
//! workspace used: generators ([`Gen`]) driven by the reproducible
//! [`SplitMix64`] stream, a fixed number of deterministic cases per
//! property, shrinking-by-halving on failure, and a failure report that
//! names the seed so any counterexample can be replayed exactly
//! (`MIXP_PROP_SEED=<seed> cargo test <name>`).
//!
//! Properties are written with the [`prop_check!`](crate::prop_check)
//! macro and the `prop_assert*` family:
//!
//! ```
//! use mixp_core::prop::{f64s, vecs};
//! use mixp_core::{prop_assert, prop_check};
//!
//! prop_check!((xs in vecs(f64s(-1.0e3..1.0e3), 1..40)) => {
//!     let sum: f64 = xs.iter().map(|x| x.abs()).sum();
//!     prop_assert!(sum >= 0.0, "sum of magnitudes {} must be >= 0", sum);
//! });
//! ```
//!
//! Unlike `proptest`, case generation is *fully deterministic*: the base
//! seed is a hash of the call site (`file!()`/`line!()`), so every run —
//! local, CI, offline — explores the identical case sequence.

use crate::synth::SplitMix64;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases per property (the acceptance floor is 64).
pub const DEFAULT_CASES: usize = 64;

/// Upper bound on shrink steps, guaranteeing shrinking terminates even
/// for generators whose halving sequence is long (e.g. f64 toward zero).
pub const MAX_SHRINK_STEPS: usize = 200;

/// A deterministic value generator with optional shrinking.
///
/// `shrink` returns *candidate* simpler values (typically produced by
/// halving toward the generator's minimum); the runner keeps a candidate
/// only if the property still fails on it.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Produces one value from the deterministic stream.
    fn generate(&self, rng: &mut SplitMix64) -> Self::Value;

    /// Candidate simplifications of `value`, closest-to-minimal first.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

impl<G: Gen + ?Sized> Gen for &G {
    type Value = G::Value;
    fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

impl<G: Gen + ?Sized> Gen for Box<G> {
    type Value = G::Value;
    fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

macro_rules! int_gen {
    ($(#[$doc:meta])* $func:ident, $name:ident, $ty:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            lo: $ty,
            hi: $ty,
        }

        $(#[$doc])*
        ///
        /// # Panics
        ///
        /// Panics if the range is empty.
        pub fn $func(r: Range<$ty>) -> $name {
            assert!(r.start < r.end, "empty range");
            $name { lo: r.start, hi: r.end }
        }

        impl Gen for $name {
            type Value = $ty;

            fn generate(&self, rng: &mut SplitMix64) -> $ty {
                let span = self.hi.wrapping_sub(self.lo) as u64;
                self.lo.wrapping_add(rng.next_range(span) as $ty)
            }

            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                let v = *value;
                if v == self.lo {
                    return Vec::new();
                }
                // Halve the distance to the lower bound; also offer the
                // bound itself as the most aggressive candidate.
                let mid = self.lo + (v - self.lo) / 2;
                let mut out = vec![self.lo];
                if mid != self.lo && mid != v {
                    out.push(mid);
                }
                out
            }
        }
    };
}

int_gen!(
    /// Uniform `u64` in `[lo, hi)`.
    u64s, U64Range, u64
);
int_gen!(
    /// Uniform `usize` in `[lo, hi)`.
    usizes, UsizeRange, usize
);
int_gen!(
    /// Uniform `i64` in `[lo, hi)`.
    i64s, I64Range, i64
);

/// Uniform `f64` in `[lo, hi)`; shrinks by halving toward zero (or the
/// lower bound when zero is outside the range).
#[derive(Debug, Clone)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` in `[lo, hi)`.
///
/// # Panics
///
/// Panics if the range is empty or a bound is non-finite.
pub fn f64s(r: Range<f64>) -> F64Range {
    assert!(
        r.start.is_finite() && r.end.is_finite() && r.start < r.end,
        "invalid f64 range"
    );
    F64Range {
        lo: r.start,
        hi: r.end,
    }
}

impl Gen for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut SplitMix64) -> f64 {
        rng.uniform(self.lo, self.hi)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        let target = if self.lo <= 0.0 && 0.0 < self.hi {
            0.0
        } else {
            self.lo
        };
        if v == target || !v.is_finite() {
            return Vec::new();
        }
        let mid = target + (v - target) / 2.0;
        let mut out = vec![target];
        if mid != target && mid != v {
            out.push(mid);
        }
        out
    }
}

/// Uniform booleans; `true` shrinks to `false`.
#[derive(Debug, Clone)]
pub struct Bools;

/// Uniform booleans.
pub fn bools() -> Bools {
    Bools
}

impl Gen for Bools {
    type Value = bool;

    fn generate(&self, rng: &mut SplitMix64) -> bool {
        rng.next_u64() & 1 == 1
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Always produces a clone of the same value.
#[derive(Debug, Clone)]
pub struct Just<T>(T);

/// A generator that always yields `value`.
pub fn just<T: Clone + Debug>(value: T) -> Just<T> {
    Just(value)
}

impl<T: Clone + Debug> Gen for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SplitMix64) -> T {
        self.0.clone()
    }
}

/// Vectors of an element generator with length in `[min, max)`.
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    min: usize,
    max: usize,
}

/// A `Vec` whose length is uniform in `len` and whose elements come from
/// `elem`. Shrinks by halving the length toward the minimum, then by
/// shrinking individual elements.
///
/// # Panics
///
/// Panics if `len` is empty.
pub fn vecs<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "empty length range");
    VecGen {
        elem,
        min: len.start,
        max: len.end,
    }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut SplitMix64) -> Vec<G::Value> {
        let span = (self.max - self.min) as u64;
        let len = self.min
            + if span == 0 {
                0
            } else {
                rng.next_range(span) as usize
            };
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        if value.len() > self.min {
            // Halve the length toward the minimum.
            let keep = self.min.max(value.len() / 2);
            out.push(value[..keep].to_vec());
            if keep > self.min {
                out.push(value[..self.min].to_vec());
            }
        }
        // Shrink one element at a time (first candidate only).
        for i in 0..value.len() {
            if let Some(cand) = self.elem.shrink(&value[i]).into_iter().next() {
                let mut w = value.clone();
                w[i] = cand;
                out.push(w);
            }
        }
        out
    }
}

/// Strings over a fixed alphabet with length in `[min, max)`.
#[derive(Debug, Clone)]
pub struct StringGen {
    alphabet: Vec<char>,
    min: usize,
    max: usize,
}

/// A string of characters drawn uniformly from `alphabet`, with length
/// uniform in `len`. Shrinks by halving the length.
///
/// # Panics
///
/// Panics if `alphabet` or `len` is empty.
pub fn strings_of(alphabet: &str, len: Range<usize>) -> StringGen {
    let alphabet: Vec<char> = alphabet.chars().collect();
    assert!(!alphabet.is_empty(), "empty alphabet");
    assert!(len.start < len.end, "empty length range");
    StringGen {
        alphabet,
        min: len.start,
        max: len.end,
    }
}

impl Gen for StringGen {
    type Value = String;

    fn generate(&self, rng: &mut SplitMix64) -> String {
        let span = (self.max - self.min) as u64;
        let len = self.min
            + if span == 0 {
                0
            } else {
                rng.next_range(span) as usize
            };
        (0..len)
            .map(|_| self.alphabet[rng.next_range(self.alphabet.len() as u64) as usize])
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        if value.chars().count() <= self.min {
            return Vec::new();
        }
        let chars: Vec<char> = value.chars().collect();
        let keep = self.min.max(chars.len() / 2);
        vec![chars[..keep].iter().collect()]
    }
}

/// Picks uniformly among boxed alternatives (for recursive/sum types).
pub struct OneOf<T> {
    options: Vec<Box<dyn Gen<Value = T>>>,
}

/// A generator choosing uniformly among `options` each case.
///
/// # Panics
///
/// Panics if `options` is empty.
pub fn one_of<T: Clone + Debug>(options: Vec<Box<dyn Gen<Value = T>>>) -> OneOf<T> {
    assert!(!options.is_empty(), "one_of needs at least one option");
    OneOf { options }
}

impl<T: Clone + Debug> Gen for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut SplitMix64) -> T {
        let idx = rng.next_range(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

/// Applies a function to another generator's output.
#[derive(Debug, Clone)]
pub struct MapGen<G, F> {
    inner: G,
    f: F,
}

/// Maps `f` over the values of `inner`. (Shrinking does not propagate
/// through the map, since `f` is not invertible.)
pub fn map<G, U, F>(inner: G, f: F) -> MapGen<G, F>
where
    G: Gen,
    U: Clone + Debug,
    F: Fn(G::Value) -> U,
{
    MapGen { inner, f }
}

impl<G, U, F> Gen for MapGen<G, F>
where
    G: Gen,
    U: Clone + Debug,
    F: Fn(G::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut SplitMix64) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! tuple_gen {
    ($($g:ident : $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut w = value.clone();
                        w.$idx = cand;
                        out.push(w);
                    }
                )+
                out
            }
        }
    };
}

tuple_gen!(A: 0);
tuple_gen!(A: 0, B: 1);
tuple_gen!(A: 0, B: 1, C: 2);
tuple_gen!(A: 0, B: 1, C: 2, D: 3);

/// FNV-1a, used to derive a stable per-property base seed from the call
/// site so every run explores the identical case sequence.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The result of running a property on one generated value: `Ok` on
/// success, `Err(message)` from a `prop_assert*` failure.
pub type PropResult = Result<(), String>;

fn run_one<G, P>(_gen: &G, prop: &P, value: &G::Value) -> PropResult
where
    G: Gen,
    P: Fn(&G::Value) -> PropResult,
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Runs `prop` on `cases` deterministic values from `gen`, shrinking any
/// counterexample by halving and panicking with a replayable report.
///
/// Set `MIXP_PROP_SEED=<seed>` to replay exactly one reported case.
///
/// # Panics
///
/// Panics (failing the enclosing test) if the property fails, reporting
/// the case number, the seed, and the minimal shrunk counterexample.
pub fn check<G, P>(name: &str, cases: usize, gen: G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value) -> PropResult,
{
    if let Ok(s) = std::env::var("MIXP_PROP_SEED") {
        let seed: u64 = s
            .parse()
            .unwrap_or_else(|_| panic!("MIXP_PROP_SEED must be a u64, got {s:?}"));
        run_case(name, usize::MAX, seed, &gen, &prop, cases);
        return;
    }
    let base = fnv1a(name);
    for case in 0..cases {
        // Decorrelate per-case seeds with the SplitMix64 increment.
        let seed = base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1);
        run_case(name, case, seed, &gen, &prop, cases);
    }
}

fn run_case<G, P>(name: &str, case: usize, seed: u64, gen: &G, prop: &P, cases: usize)
where
    G: Gen,
    P: Fn(&G::Value) -> PropResult,
{
    let mut rng = SplitMix64::new(seed);
    let value = gen.generate(&mut rng);
    if let Err(first_msg) = run_one(gen, prop, &value) {
        let (min_value, min_msg, steps) = shrink_loop(gen, prop, value, first_msg);
        let case_str = if case == usize::MAX {
            "replay".to_string()
        } else {
            format!("{}/{}", case + 1, cases)
        };
        panic!(
            "property '{name}' failed (case {case_str}, seed {seed})\n  \
             minimal counterexample after {steps} shrink step(s): {min_value:?}\n  \
             {min_msg}\n  \
             replay with: MIXP_PROP_SEED={seed} cargo test"
        );
    }
}

fn shrink_loop<G, P>(
    gen: &G,
    prop: &P,
    mut value: G::Value,
    mut msg: String,
) -> (G::Value, String, usize)
where
    G: Gen,
    P: Fn(&G::Value) -> PropResult,
{
    let mut steps = 0;
    'outer: while steps < MAX_SHRINK_STEPS {
        for cand in gen.shrink(&value) {
            if let Err(m) = run_one(gen, prop, &cand) {
                value = cand;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Checks a property over deterministic generated cases.
///
/// ```
/// use mixp_core::prop::usizes;
/// use mixp_core::{prop_assert, prop_check};
///
/// prop_check!(cases = 64, (n in usizes(1..100)) => {
///     prop_assert!(n >= 1 && n < 100);
/// });
/// ```
///
/// The optional `cases = N` prefix overrides
/// [`DEFAULT_CASES`](crate::prop::DEFAULT_CASES). On failure the report
/// names the seed; replay it with `MIXP_PROP_SEED=<seed>`.
#[macro_export]
macro_rules! prop_check {
    (cases = $cases:expr, ( $($name:ident in $gen:expr),+ $(,)? ) => $body:block) => {{
        let __gen = ($($gen,)+);
        $crate::prop::check(
            concat!(file!(), ":", line!()),
            $cases,
            __gen,
            |__value| {
                let ($($name,)+) = __value.clone();
                $body
                Ok(())
            },
        );
    }};
    (( $($name:ident in $gen:expr),+ $(,)? ) => $body:block) => {
        $crate::prop_check!(cases = $crate::prop::DEFAULT_CASES, ( $($name in $gen),+ ) => $body)
    };
}

/// `assert!` analogue for property bodies: fails the case (triggering
/// shrinking and the seed report) instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` analogue for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if __a != __b {
            return Err(format!(
                "assertion failed: `{}` == `{}`\n    left: {:?}\n   right: {:?}",
                stringify!($a), stringify!($b), __a, __b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if __a != __b {
            return Err(format!(
                "{}\n    left: {:?}\n   right: {:?}",
                format!($($fmt)+), __a, __b
            ));
        }
    }};
}

/// `assert_ne!` analogue for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return Err(format!(
                "assertion failed: `{}` != `{}`\n    both: {:?}",
                stringify!($a), stringify!($b), __a
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return Err(format!("{}\n    both: {:?}", format!($($fmt)+), __a));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_streams_stable_across_seeds() {
        // Golden values: the SplitMix64 reference stream for seed 0 — the
        // harness's determinism rests on this never changing.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
        // Same seed → same stream, regardless of construction order.
        for seed in [1u64, 42, 0xDEAD_BEEF, u64::MAX] {
            let s1: Vec<u64> = {
                let mut g = SplitMix64::new(seed);
                (0..16).map(|_| g.next_u64()).collect()
            };
            let mut g2 = SplitMix64::new(seed);
            for v in s1 {
                assert_eq!(g2.next_u64(), v, "stream for seed {seed} must be stable");
            }
        }
    }

    #[test]
    fn generated_ranges_respect_bounds() {
        let mut rng = SplitMix64::new(99);
        let gi = usizes(3..17);
        let gf = f64s(-2.5..4.5);
        let gv = vecs(u64s(10..20), 2..6);
        let gs = strings_of("abc", 1..5);
        for _ in 0..500 {
            let i = gi.generate(&mut rng);
            assert!((3..17).contains(&i));
            let f = gf.generate(&mut rng);
            assert!((-2.5..4.5).contains(&f));
            let v = gv.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| (10..20).contains(x)));
            let s = gs.generate(&mut rng);
            assert!((1..5).contains(&s.chars().count()));
            assert!(s.chars().all(|c| "abc".contains(c)));
        }
    }

    #[test]
    fn shrink_candidates_stay_in_bounds() {
        let mut rng = SplitMix64::new(5);
        let gi = usizes(3..1000);
        let gf = f64s(1.0..100.0);
        for _ in 0..200 {
            let v = gi.generate(&mut rng);
            for c in gi.shrink(&v) {
                assert!((3..1000).contains(&c), "shrink {c} escaped bounds");
                assert!(c < v, "shrinking must make progress");
            }
            let f = gf.generate(&mut rng);
            for c in gf.shrink(&f) {
                assert!((1.0..100.0).contains(&c));
                assert!(c < f);
            }
        }
    }

    #[test]
    fn shrinking_terminates_and_reaches_minimum() {
        // A property that fails for every value ≥ the generator minimum:
        // shrinking must terminate and land exactly on the minimum.
        let gen = usizes(2..1_000_000);
        let prop = |_v: &usize| -> PropResult { Err("always fails".to_string()) };
        let mut rng = SplitMix64::new(1234);
        let start = gen.generate(&mut rng);
        let (min, _msg, steps) = shrink_loop(&gen, &prop, start, "seed msg".to_string());
        assert_eq!(min, 2, "halving must reach the generator minimum");
        assert!(steps <= MAX_SHRINK_STEPS);
    }

    #[test]
    fn shrinking_respects_the_property_boundary() {
        // Fails only for values > 500: the minimal counterexample the
        // halving search can certify must still fail the property.
        let gen = usizes(0..100_000);
        let prop = |v: &usize| -> PropResult {
            if *v > 500 {
                Err(format!("{v} > 500"))
            } else {
                Ok(())
            }
        };
        let (min, _msg, _steps) = shrink_loop(&gen, &prop, 90_000, "90000 > 500".to_string());
        assert!(min > 500, "shrunk value must still fail");
        assert!(min <= 90_000);
    }

    #[test]
    fn failure_report_names_the_seed() {
        let result = catch_unwind(|| {
            check(
                "prop::tests::failure_report",
                DEFAULT_CASES,
                usizes(10..1000),
                |_v| Err("forced failure".to_string()),
            );
        });
        let payload = result.expect_err("property must fail");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic message is a String");
        assert!(msg.contains("seed "), "report must name the seed: {msg}");
        assert!(
            msg.contains("MIXP_PROP_SEED="),
            "report must show how to replay: {msg}"
        );
        assert!(
            msg.contains("minimal counterexample"),
            "report must show the shrunk value: {msg}"
        );
        // The always-failing property shrinks to the generator minimum.
        assert!(msg.contains(": 10\n"), "minimal value must be 10: {msg}");
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let mut vals = Vec::new();
            let base = fnv1a("determinism-probe");
            for case in 0..64u64 {
                let seed = base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case + 1);
                let mut rng = SplitMix64::new(seed);
                vals.push((usizes(0..1000)).generate(&mut rng));
            }
            vals
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn prop_check_macro_passes_and_counts() {
        use std::cell::Cell;
        thread_local! {
            static COUNT: Cell<usize> = const { Cell::new(0) };
        }
        COUNT.with(|c| c.set(0));
        prop_check!(cases = 64, (a in usizes(0..50), b in bools()) => {
            COUNT.with(|c| c.set(c.get() + 1));
            prop_assert!(a < 50);
            prop_assert_ne!(b, !b);
        });
        assert_eq!(COUNT.with(|c| c.get()), 64, "must run every case");
    }

    #[test]
    fn tuple_and_onof_generators_compose() {
        let gen = one_of(vec![
            Box::new(map(usizes(0..10), |v| v as i64)) as Box<dyn Gen<Value = i64>>,
            Box::new(i64s(100..200)),
            Box::new(just(-5i64)),
        ]);
        let mut rng = SplitMix64::new(8);
        for _ in 0..300 {
            let v = gen.generate(&mut rng);
            assert!((0..10).contains(&v) || (100..200).contains(&v) || v == -5);
        }
    }

    #[test]
    fn panicking_property_reports_seed_too() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("prop::tests::panics", 4, usizes(0..10), |v| {
                assert!(*v > 100, "inner panic {v}");
                Ok(())
            });
        }));
        let payload = result.expect_err("property must fail");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("seed "), "panic path must report seed: {msg}");
        assert!(msg.contains("panic:"), "panic payload must be shown: {msg}");
    }
}
