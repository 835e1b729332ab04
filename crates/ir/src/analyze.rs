//! Config-independent program analysis, computed once per [`Program`]
//! and cached: per-sweep vectorizability and per-loop charge
//! hoistability. Both are pure functions of the statement structure, so
//! they are shared by every compiled plan.

use std::collections::HashMap;

use crate::prog::{ElemStmt, Expr, Program, Stmt, StreamDecl, Sweep};

/// Analysis results, indexed by pre-order position: `sweeps[i]` is the
/// `i`-th [`Stmt::Sweep`] encountered walking the body depth-first,
/// `repeats[i]` the `i`-th [`Stmt::Repeat`]. The compiler walks the
/// body in the same order and consumes the flags positionally.
#[derive(Debug)]
pub(crate) struct Analysis {
    pub sweeps: Vec<bool>,
    pub repeats: Vec<bool>,
}

pub(crate) fn analyze(p: &Program) -> Analysis {
    let mut a = Analysis {
        sweeps: Vec::new(),
        repeats: Vec::new(),
    };
    walk(p, &p.body, &mut a);
    a
}

fn walk(p: &Program, body: &[Stmt], a: &mut Analysis) {
    for stmt in body {
        match stmt {
            Stmt::Sweep(s) => a.sweeps.push(vectorizable(s)),
            Stmt::Repeat { body, .. } => {
                a.repeats.push(hoistable(p, body));
                walk(p, body, a);
            }
            _ => {}
        }
    }
}

fn for_each_load(e: &Expr, f: &mut impl FnMut(&Expr)) {
    match e {
        Expr::Load { .. } | Expr::Gather { .. } => f(e),
        Expr::Bin(_, a, b) => {
            for_each_load(a, f);
            for_each_load(b, f);
        }
        Expr::Un(_, a) => for_each_load(a, f),
        Expr::Scal(_) | Expr::Local(_) | Expr::K(_) => {}
    }
}

/// A sweep lowers to slice instructions (whole-slice evaluation, one
/// statement at a time) iff that ordering is observationally identical
/// to the element-wise loop:
///
/// - every load and store is unit-stride and affine (no gathers);
/// - no two statements store to the same array (stores within one
///   statement order are then fixed by statement position);
/// - no loop-carried hazard between a load and a store on the same
///   array. With load offset `L` in statement `jL` and store offset `S`
///   in statement `jS`, element-wise iteration `k` reads index `L + k`,
///   which the store writes at iteration `L + k - S`. Whole-slice
///   evaluation reads *old* values when the load statement runs first
///   and *new* values otherwise; the element-wise loop reads new values
///   exactly when `L + k - S < k` (already written), or `L <= S` with
///   the store earlier in statement order. The two agree unless
///   `jL <= jS && L < S` (slice reads old, loop reads new) or
///   `jL > jS && L > S` (slice reads new, loop reads old).
fn vectorizable(s: &Sweep) -> bool {
    if s.streams
        .iter()
        .any(|d| matches!(d, StreamDecl::Gather { .. }))
    {
        return false;
    }
    // (stmt index, arr, start) for unit-stride accesses; None on any
    // non-vectorizable access.
    let mut loads: Vec<(usize, u32, usize)> = Vec::new();
    let mut stores: Vec<(usize, u32, usize)> = Vec::new();
    for (j, stmt) in s.body.iter().enumerate() {
        let (expr, dst) = match stmt {
            ElemStmt::Let { expr, .. } | ElemStmt::LetScal { expr, .. } => (expr, None),
            ElemStmt::Store {
                arr,
                start,
                step,
                expr,
                ..
            } => (expr, Some((*arr, *start, *step))),
        };
        let mut ok = true;
        for_each_load(expr, &mut |e| match e {
            Expr::Load { arr, start, step } if *step == 1 => loads.push((j, arr.0, *start)),
            _ => ok = false,
        });
        if !ok {
            return false;
        }
        if let Some((arr, start, step)) = dst {
            if step != 1 {
                return false;
            }
            stores.push((j, arr.0, start));
        }
    }
    for (i, &(_, arr_a, _)) in stores.iter().enumerate() {
        for &(_, arr_b, _) in &stores[i + 1..] {
            if arr_a == arr_b {
                return false;
            }
        }
    }
    for &(jl, larr, l) in &loads {
        for &(js, sarr, s) in &stores {
            if larr != sarr {
                continue;
            }
            if (jl <= js && l < s) || (jl > js && l > s) {
                return false;
            }
        }
    }
    true
}

/// A counted loop's accounting can be hoisted (charges and stream
/// groups replayed `times` passes while compute runs once) iff every
/// pass recomputes the identical values. Sufficient condition, checked
/// by exact element-order simulation: the body contains only sweeps and
/// charges, and every load reads either an element already (re)written
/// earlier in the same pass — recomputed identically by induction — or
/// an element no pass ever writes (a constant input).
fn hoistable(p: &Program, body: &[Stmt]) -> bool {
    let mut sweeps: Vec<&Sweep> = Vec::new();
    for stmt in body {
        match stmt {
            Stmt::Sweep(s) => {
                if s.streams
                    .iter()
                    .any(|d| matches!(d, StreamDecl::Gather { .. }))
                {
                    return false;
                }
                sweeps.push(s);
            }
            Stmt::Charge { .. } => {}
            // Reductions, scalar resets/emits and nested loops observe or
            // carry state across passes; never hoist over them.
            _ => return false,
        }
    }

    // Every element any pass writes.
    let mut ever: HashMap<u32, Box<[bool]>> = HashMap::new();
    let mark = |arr: u32, idx: usize, map: &mut HashMap<u32, Box<[bool]>>| {
        let len = p.arrays[arr as usize].len;
        let m = map
            .entry(arr)
            .or_insert_with(|| vec![false; len].into_boxed_slice());
        m[idx] = true;
    };
    for s in &sweeps {
        for stmt in &s.body {
            if let ElemStmt::Store {
                arr, start, step, ..
            } = stmt
            {
                for k in 0..s.count {
                    let idx = (*start as i64 + k as i64 * step) as usize;
                    mark(arr.0, idx, &mut ever);
                }
            }
        }
    }

    // Walk one pass in element order; loads must hit recomputed or
    // never-written elements.
    let mut written: HashMap<u32, Box<[bool]>> = HashMap::new();
    for s in &sweeps {
        for k in 0..s.count {
            for stmt in &s.body {
                let (expr, dst) = match stmt {
                    ElemStmt::Let { expr, .. } | ElemStmt::LetScal { expr, .. } => (expr, None),
                    ElemStmt::Store {
                        arr,
                        start,
                        step,
                        expr,
                        ..
                    } => (expr, Some((arr.0, *start, *step))),
                };
                let mut ok = true;
                for_each_load(expr, &mut |e| {
                    if let Expr::Load { arr, start, step } = e {
                        let idx = (*start as i64 + k as i64 * step) as usize;
                        let fresh = written.get(&arr.0).map_or(false, |m| m[idx]);
                        let touched = ever.get(&arr.0).map_or(false, |m| m[idx]);
                        if touched && !fresh {
                            ok = false;
                        }
                    }
                });
                if !ok {
                    return false;
                }
                if let Some((arr, start, step)) = dst {
                    let idx = (start as i64 + k as i64 * step) as usize;
                    mark(arr, idx, &mut written);
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::Sweep;

    fn prog_with(sweep: Sweep, repeat: Option<usize>) -> Program {
        let mut p = Program::new("t");
        p.array(0, 64);
        p.array(1, 64);
        if let Some(times) = repeat {
            p.begin_repeat(times);
            p.sweep(sweep);
            p.end_repeat();
        } else {
            p.sweep(sweep);
        }
        p
    }

    fn a0() -> crate::ArrId {
        // ArrIds are plain indices; rebuild them for test readability.
        let mut p = Program::new("ids");
        p.array(0, 1)
    }

    fn a1() -> crate::ArrId {
        let mut p = Program::new("ids");
        p.array(0, 1);
        p.array(1, 1)
    }

    #[test]
    fn elementwise_map_vectorizes() {
        let s = Sweep::scale(a1(), a0(), 64, Expr::k(2.0));
        assert!(super::vectorizable(&s));
    }

    #[test]
    fn recurrence_serializes() {
        // x[k+1] = x[k] * 0.5: load behind the store.
        let mut s = Sweep::new(63);
        s.load(a0(), 0).store(a0(), 1);
        s.set(a0(), 1, Expr::at(a0(), 0) * Expr::k(0.5));
        assert!(!super::vectorizable(&s));
    }

    #[test]
    fn shift_left_copy_vectorizes() {
        // x[k] = x[k+1]: both orders read old values.
        let mut s = Sweep::new(63);
        s.load(a0(), 1).store(a0(), 0);
        s.set(a0(), 0, Expr::at(a0(), 1));
        assert!(super::vectorizable(&s));
    }

    #[test]
    fn strided_access_serializes() {
        let mut s = Sweep::new(16);
        s.load_strided(a0(), 0, 2).store(a1(), 0);
        s.set(a1(), 0, Expr::load(a0(), 0, 2));
        assert!(!super::vectorizable(&s));
    }

    #[test]
    fn pure_sweep_loop_hoists() {
        // y[k] = 2 * x[k] each pass: recomputes identical values.
        let mut p = Program::new("t");
        let x = p.array(0, 64);
        let y = p.array(1, 64);
        p.begin_repeat(4);
        p.sweep(Sweep::scale(y, x, 64, Expr::k(2.0)));
        p.end_repeat();
        let a = analyze(&p);
        assert_eq!(a.repeats, vec![true]);
        assert_eq!(a.sweeps, vec![true]);
    }

    #[test]
    fn loop_carried_array_blocks_hoisting() {
        // x[k+1] = x[k] evolves across passes? No — but x[k] += 1 does:
        // the load reads the previous pass's store of the same element.
        let mut p = Program::new("t");
        let x = p.array(0, 64);
        p.begin_repeat(4);
        let mut s = Sweep::new(64);
        s.load(x, 0).store(x, 0);
        s.set(x, 0, Expr::at(x, 0) + Expr::k(1.0));
        p.sweep(s);
        p.end_repeat();
        let a = analyze(&p);
        assert_eq!(a.repeats, vec![false]);
    }

    #[test]
    fn recurrence_from_untouched_seed_hoists() {
        // tridiag shape: x[k+1] = f(x[k]), x[0] never written. Pass 2
        // recomputes the same chain from the same seed.
        let mut p = Program::new("t");
        let x = p.array(0, 64);
        let y = p.array(1, 64);
        p.begin_repeat(4);
        let mut s = Sweep::new(63);
        s.load(y, 1).load(x, 0).store(x, 1);
        s.set(x, 1, Expr::at(y, 1) - Expr::at(x, 0));
        p.sweep(s);
        p.end_repeat();
        let a = analyze(&p);
        assert_eq!(a.repeats, vec![true]);
    }

    #[test]
    fn reduction_in_loop_blocks_hoisting() {
        let mut p = Program::new("t");
        let x = p.array(0, 64);
        let q = p.scalar(1, 0.0);
        p.begin_repeat(4);
        p.reduce(crate::Reduce::sum(q, x, 64));
        p.end_repeat();
        let a = analyze(&p);
        assert_eq!(a.repeats, vec![false]);
    }

    #[test]
    fn analysis_orders_nested_loops_preorder() {
        let mut p = Program::new("t");
        let x = p.array(0, 8);
        let y = p.array(1, 8);
        p.begin_repeat(2);
        p.begin_repeat(3);
        p.sweep(Sweep::scale(y, x, 8, Expr::k(2.0)));
        p.end_repeat();
        p.end_repeat();
        let a = analyze(&p);
        // Outer first (not hoistable: body contains a nested repeat),
        // then inner (hoistable).
        assert_eq!(a.repeats, vec![false, true]);
    }

    #[test]
    fn gather_blocks_both() {
        let mut p = Program::new("t");
        let x = p.array(0, 8);
        let y = p.array(1, 8);
        let t = p.table(vec![3, 1, 2, 0]);
        let s = Sweep::gather(y, x, t, 4);
        assert!(!super::vectorizable(&s));
        p.begin_repeat(2);
        p.sweep(Sweep::gather(y, x, t, 4));
        p.end_repeat();
        let a = analyze(&p);
        assert_eq!(a.repeats, vec![false]);
    }

    #[test]
    fn prog_with_compiles_helpers() {
        // Keep the helpers exercised (ids built via throwaway programs).
        let p = prog_with(Sweep::fill(a0(), 8, 0.0), Some(2));
        let a = analyze(&p);
        assert_eq!(a.repeats.len(), 1);
    }
}
