//! The program representation: typed arrays/scalars, element-wise
//! sweeps with declared access streams, reductions, and counted loops.
//!
//! A [`Program`] is built once per benchmark (config-independent) and
//! compiled per precision assignment by [`Program::compile`]. Builders
//! mirror the `MpVec` idiom: arrays are declared in
//! allocation order (which fixes their synthetic addresses), every
//! sweep declares its access streams in the exact order the
//! element-wise loop would touch memory, and bulk flop/heavy charges
//! are recorded as explicit statements.

use std::sync::{Arc, OnceLock};

use crate::analyze::Analysis;

/// Index of an array declaration within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrId(pub(crate) u32);

/// Index of a scalar declaration within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScalId(pub(crate) u32);

/// Index of a gather index table within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TabId(pub(crate) u32);

#[derive(Debug, Clone)]
pub(crate) struct ArrayDecl {
    /// Program-model variable id (the precision lookup key).
    pub var: u32,
    pub len: usize,
    /// Index into [`Program::consts`] when initialised from data.
    pub init: Option<usize>,
}

#[derive(Debug, Clone)]
pub(crate) struct ScalarDecl {
    pub var: u32,
    /// Raw value; rounded through the variable's precision at compile
    /// time (matching `MpScalar::new`).
    pub value: f64,
}

/// Binary element operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// IEEE `min` (used for clamping, e.g. planckian's ratio cap).
    Min,
}

/// Unary element operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Natural exponential (a heavy op in the cost model).
    Exp,
}

/// An element expression, evaluated per sweep iteration `k` over raw
/// `f64` values. Loads read the current (already-rounded) array
/// storage; rounding happens only at stores and reduction updates.
#[derive(Debug, Clone)]
pub enum Expr {
    /// `arr[start + k * step]`.
    Load {
        arr: ArrId,
        start: usize,
        step: i64,
    },
    /// `arr[table[k]]` — a data-dependent gather (always serial).
    Gather {
        arr: ArrId,
        table: TabId,
    },
    /// The current value of a scalar variable.
    Scal(ScalId),
    /// A sweep-local binding introduced by [`Sweep::bind`] /
    /// [`Sweep::store_bind`].
    Local(u32),
    /// A raw literal constant (not a program variable; never rounded).
    K(f64),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Un(UnOp, Box<Expr>),
}

impl Expr {
    /// Unit-stride load `arr[start + k]`.
    pub fn at(arr: ArrId, start: usize) -> Expr {
        Expr::Load {
            arr,
            start,
            step: 1,
        }
    }

    /// Strided load `arr[start + k * step]` (step may be negative or zero).
    pub fn load(arr: ArrId, start: usize, step: i64) -> Expr {
        Expr::Load { arr, start, step }
    }

    /// Gather load `arr[table[k]]`.
    pub fn gather(arr: ArrId, table: TabId) -> Expr {
        Expr::Gather { arr, table }
    }

    /// Literal constant.
    pub fn k(v: f64) -> Expr {
        Expr::K(v)
    }

    /// Scalar variable reference.
    pub fn scal(s: ScalId) -> Expr {
        Expr::Scal(s)
    }

    /// `min(self, other)`.
    pub fn min(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(self), Box::new(other))
    }

    /// `exp(self)`.
    pub fn exp(self) -> Expr {
        Expr::Un(UnOp::Exp, Box::new(self))
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(rhs))
    }
}

/// One declared access stream of a sweep or reduction — accounting
/// metadata only (the op counters and memory tracer see these; the
/// element expressions carry the actual dataflow). Declared in the
/// exact order the element-wise loop touches memory.
#[derive(Debug, Clone)]
pub enum StreamDecl {
    /// `arr[start + k * step]`, one access per committed iteration.
    Affine {
        arr: ArrId,
        start: usize,
        step: i64,
        write: bool,
    },
    /// `arr[table[k]]` — counted in bulk, traced per element.
    Gather {
        arr: ArrId,
        table: TabId,
        write: bool,
    },
}

/// One element-wise statement of a sweep body.
#[derive(Debug, Clone)]
pub enum ElemStmt {
    /// Bind a local to an (unrounded, f64) intermediate.
    Let { local: u32, expr: Expr },
    /// Bind a local to `expr` rounded through scalar `scal`'s precision
    /// — the register-resident `MpScalar::set` idiom: the value rounds
    /// into scalar storage but is not traced as memory traffic, and the
    /// scalar slot itself is never read back (each iteration overwrites
    /// it), so the binding carries the dataflow.
    LetScal {
        local: u32,
        scal: ScalId,
        expr: Expr,
    },
    /// `arr[start + k * step] = round(expr)`; optionally also binds the
    /// *stored* (rounded) value to a local, matching `write_rounded`'s
    /// return value.
    Store {
        arr: ArrId,
        start: usize,
        step: i64,
        expr: Expr,
        local: Option<u32>,
    },
}

/// A counted element-wise sweep: `for k in 0..count { body }` plus the
/// declared access streams the accounting replays.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub(crate) count: usize,
    pub(crate) streams: Vec<StreamDecl>,
    pub(crate) body: Vec<ElemStmt>,
    pub(crate) locals: u32,
}

impl Sweep {
    /// An empty sweep over `count` iterations.
    pub fn new(count: usize) -> Sweep {
        Sweep {
            count,
            streams: Vec::new(),
            body: Vec::new(),
            locals: 0,
        }
    }

    // --- stream declarations (accounting) -------------------------------

    /// Declares a unit-stride load stream.
    pub fn load(&mut self, arr: ArrId, start: usize) -> &mut Self {
        self.load_strided(arr, start, 1)
    }

    /// Declares a strided load stream.
    pub fn load_strided(&mut self, arr: ArrId, start: usize, step: i64) -> &mut Self {
        self.streams.push(StreamDecl::Affine {
            arr,
            start,
            step,
            write: false,
        });
        self
    }

    /// Declares a unit-stride store stream.
    pub fn store(&mut self, arr: ArrId, start: usize) -> &mut Self {
        self.store_strided(arr, start, 1)
    }

    /// Declares a strided store stream.
    pub fn store_strided(&mut self, arr: ArrId, start: usize, step: i64) -> &mut Self {
        self.streams.push(StreamDecl::Affine {
            arr,
            start,
            step,
            write: true,
        });
        self
    }

    /// Declares a gather load stream through an index table.
    pub fn load_gather(&mut self, arr: ArrId, table: TabId) -> &mut Self {
        self.streams.push(StreamDecl::Gather {
            arr,
            table,
            write: false,
        });
        self
    }

    // --- body (dataflow) -------------------------------------------------

    /// Binds `expr` to a fresh local and returns a reference to it.
    pub fn bind(&mut self, expr: Expr) -> Expr {
        let local = self.locals;
        self.locals += 1;
        self.body.push(ElemStmt::Let { local, expr });
        Expr::Local(local)
    }

    /// Binds `expr` rounded through `scal`'s precision to a fresh local,
    /// like `MpScalar::set` followed by `get` on a per-iteration
    /// scratch scalar (no memory traffic, no flop charge).
    pub fn bind_scal(&mut self, scal: ScalId, expr: Expr) -> Expr {
        let local = self.locals;
        self.locals += 1;
        self.body.push(ElemStmt::LetScal { local, scal, expr });
        Expr::Local(local)
    }

    /// `arr[start + k] = round(expr)`.
    pub fn set(&mut self, arr: ArrId, start: usize, expr: Expr) {
        self.set_strided(arr, start, 1, expr)
    }

    /// `arr[start + k * step] = round(expr)`.
    pub fn set_strided(&mut self, arr: ArrId, start: usize, step: i64, expr: Expr) {
        self.body.push(ElemStmt::Store {
            arr,
            start,
            step,
            expr,
            local: None,
        });
    }

    /// `arr[start + k] = round(expr)`, returning the **stored**
    /// (rounded) value as a local, like `MpVec::write_rounded`.
    pub fn store_bind(&mut self, arr: ArrId, start: usize, expr: Expr) -> Expr {
        let local = self.locals;
        self.locals += 1;
        self.body.push(ElemStmt::Store {
            arr,
            start,
            step: 1,
            expr,
            local: Some(local),
        });
        Expr::Local(local)
    }

    // --- named bulk ops --------------------------------------------------

    /// `dst[k] = v` for `k in 0..count`.
    pub fn fill(dst: ArrId, count: usize, v: f64) -> Sweep {
        let mut s = Sweep::new(count);
        s.store(dst, 0);
        s.set(dst, 0, Expr::k(v));
        s
    }

    /// `dst[k] = factor * src[k]`.
    pub fn scale(dst: ArrId, src: ArrId, count: usize, factor: Expr) -> Sweep {
        let mut s = Sweep::new(count);
        s.load(src, 0).store(dst, 0);
        s.set(dst, 0, factor * Expr::at(src, 0));
        s
    }

    /// `y[k] = a * x[k] + y[k]`.
    pub fn axpy(y: ArrId, x: ArrId, count: usize, a: Expr) -> Sweep {
        let mut s = Sweep::new(count);
        s.load(x, 0).load(y, 0).store(y, 0);
        s.set(y, 0, a * Expr::at(x, 0) + Expr::at(y, 0));
        s
    }

    /// `y[k] = x[k] + b * y[k]`.
    pub fn xpby(y: ArrId, x: ArrId, count: usize, b: Expr) -> Sweep {
        let mut s = Sweep::new(count);
        s.load(x, 0).load(y, 0).store(y, 0);
        s.set(y, 0, Expr::at(x, 0) + b * Expr::at(y, 0));
        s
    }

    /// `dst[k] = f(src[k])`.
    pub fn map(dst: ArrId, src: ArrId, count: usize, f: impl FnOnce(Expr) -> Expr) -> Sweep {
        let mut s = Sweep::new(count);
        s.load(src, 0).store(dst, 0);
        s.set(dst, 0, f(Expr::at(src, 0)));
        s
    }

    /// `dst[k] = src[table[k]]` (serial; traced per element).
    pub fn gather(dst: ArrId, src: ArrId, table: TabId, count: usize) -> Sweep {
        let mut s = Sweep::new(count);
        s.load_gather(src, table).store(dst, 0);
        s.set(dst, 0, Expr::gather(src, table));
        s
    }
}

/// A counted reduction: `for k in 0..count { acc = round(acc + expr(k)) }`,
/// rounding through the accumulator variable's precision (matching
/// `MpScalar` accumulation).
#[derive(Debug, Clone)]
pub struct Reduce {
    pub(crate) acc: ScalId,
    pub(crate) count: usize,
    pub(crate) streams: Vec<StreamDecl>,
    pub(crate) expr: Expr,
}

impl Reduce {
    /// A reduction with explicit streams and element expression.
    pub fn new(acc: ScalId, count: usize, expr: Expr) -> Reduce {
        Reduce {
            acc,
            count,
            streams: Vec::new(),
            expr,
        }
    }

    /// Declares a unit-stride load stream.
    pub fn load(&mut self, arr: ArrId, start: usize) -> &mut Self {
        self.streams.push(StreamDecl::Affine {
            arr,
            start,
            step: 1,
            write: false,
        });
        self
    }

    /// Weighted dot product: `acc = round(acc + (a[k] * b[k]) * w)`,
    /// streams `[load a, load b]` — the shape of `MpVec::dot` with each
    /// product scaled by `w`.
    pub fn dot(acc: ScalId, a: ArrId, b: ArrId, count: usize, w: f64) -> Reduce {
        let mut r = Reduce::new(acc, count, (Expr::at(a, 0) * Expr::at(b, 0)) * Expr::k(w));
        r.load(a, 0).load(b, 0);
        r
    }

    /// Plain sum: `acc = round(acc + a[k])`.
    pub fn sum(acc: ScalId, a: ArrId, count: usize) -> Reduce {
        let mut r = Reduce::new(acc, count, Expr::at(a, 0));
        r.load(a, 0);
        r
    }
}

/// A top-level (or loop-body) statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Bulk flop/heavy charge: `amount` ops with destination variable
    /// `dst` and source variables `srcs` (resolved to an op signature —
    /// widest precision plus per-op casts — by the embedder).
    Charge {
        heavy: bool,
        dst: u32,
        srcs: Vec<u32>,
        amount: u64,
    },
    Sweep(Sweep),
    Reduce(Reduce),
    /// Resets a scalar to its declared value (a fresh accumulator).
    SetScalar(ScalId),
    /// Appends the scalar's current value to the program output.
    EmitScalar(ScalId),
    /// A counted loop with a static trip count.
    Repeat {
        times: usize,
        body: Vec<Stmt>,
    },
}

/// A benchmark program: declarations plus a statement body. Built once
/// (config-independent), compiled per precision assignment.
#[derive(Debug)]
pub struct Program {
    pub(crate) name: String,
    pub(crate) arrays: Vec<ArrayDecl>,
    pub(crate) scalars: Vec<ScalarDecl>,
    pub(crate) consts: Vec<Arc<[f64]>>,
    pub(crate) tables: Vec<Arc<[usize]>>,
    pub(crate) body: Vec<Stmt>,
    pub(crate) outputs: Vec<ArrId>,
    /// Open `begin_repeat` bodies (builder state only).
    open: Vec<(usize, Vec<Stmt>)>,
    /// Pre-rounded init data, memoized per `(const, precision)`.
    pub(crate) rounded: Vec<[OnceLock<Arc<[f64]>>; 3]>,
    /// Config-independent analysis, computed once on first compile.
    pub(crate) analysis: OnceLock<Analysis>,
}

impl Clone for Program {
    fn clone(&self) -> Program {
        assert!(self.open.is_empty(), "clone of a program mid-build");
        Program {
            name: self.name.clone(),
            arrays: self.arrays.clone(),
            scalars: self.scalars.clone(),
            consts: self.consts.clone(),
            tables: self.tables.clone(),
            body: self.body.clone(),
            outputs: self.outputs.clone(),
            open: Vec::new(),
            // Caches refill on demand; cheaper than deep-cloning OnceLocks.
            rounded: self.consts.iter().map(|_| Default::default()).collect(),
            analysis: OnceLock::new(),
        }
    }
}

impl Program {
    /// An empty program.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            arrays: Vec::new(),
            scalars: Vec::new(),
            consts: Vec::new(),
            tables: Vec::new(),
            body: Vec::new(),
            outputs: Vec::new(),
            open: Vec::new(),
            rounded: Vec::new(),
            analysis: OnceLock::new(),
        }
    }

    /// The program name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    // --- declarations ----------------------------------------------------
    //
    // Declaration order is allocation order: synthetic base addresses are
    // assigned exactly as `ExecCtx::reserve` would for the same sequence
    // of allocations.

    /// Declares a zero-initialised array bound to program variable `var`.
    pub fn array(&mut self, var: u32, len: usize) -> ArrId {
        let id = ArrId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl {
            var,
            len,
            init: None,
        });
        id
    }

    /// Declares an array initialised from `values` (rounded through the
    /// array's storage precision at compile time, like `from_values`).
    pub fn array_init(&mut self, var: u32, values: Vec<f64>) -> ArrId {
        let id = ArrId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl {
            var,
            len: values.len(),
            init: Some(self.consts.len()),
        });
        self.consts.push(values.into());
        self.rounded.push(Default::default());
        id
    }

    /// Declares a scalar bound to variable `var` with initial `value`
    /// (rounded through the variable's precision, like `MpScalar::new`).
    pub fn scalar(&mut self, var: u32, value: f64) -> ScalId {
        let id = ScalId(self.scalars.len() as u32);
        self.scalars.push(ScalarDecl { var, value });
        id
    }

    /// Declares a gather index table.
    pub fn table(&mut self, indices: Vec<usize>) -> TabId {
        let id = TabId(self.tables.len() as u32);
        self.tables.push(indices.into());
        id
    }

    /// Length of a declared array.
    pub fn array_len(&self, arr: ArrId) -> usize {
        self.arrays[arr.0 as usize].len
    }

    // --- body ------------------------------------------------------------

    fn push(&mut self, stmt: Stmt) {
        match self.open.last_mut() {
            Some((_, body)) => body.push(stmt),
            None => self.body.push(stmt),
        }
    }

    /// Records `amount` flops with destination `dst` and sources `srcs`.
    pub fn flop(&mut self, dst: u32, srcs: &[u32], amount: u64) {
        self.push(Stmt::Charge {
            heavy: false,
            dst,
            srcs: srcs.to_vec(),
            amount,
        });
    }

    /// Records `amount` heavy ops (div, exp, …).
    pub fn heavy(&mut self, dst: u32, srcs: &[u32], amount: u64) {
        self.push(Stmt::Charge {
            heavy: true,
            dst,
            srcs: srcs.to_vec(),
            amount,
        });
    }

    /// Appends a sweep.
    pub fn sweep(&mut self, s: Sweep) {
        self.push(Stmt::Sweep(s));
    }

    /// Appends a reduction.
    pub fn reduce(&mut self, r: Reduce) {
        self.push(Stmt::Reduce(r));
    }

    /// Resets `s` to its declared value.
    pub fn set_scalar(&mut self, s: ScalId) {
        self.push(Stmt::SetScalar(s));
    }

    /// Appends `s`'s current value to the program output.
    pub fn emit_scalar(&mut self, s: ScalId) {
        self.push(Stmt::EmitScalar(s));
    }

    /// Opens a counted loop; statements until [`Program::end_repeat`]
    /// form its body.
    pub fn begin_repeat(&mut self, times: usize) {
        self.open.push((times, Vec::new()));
    }

    /// Closes the innermost open loop.
    ///
    /// # Panics
    ///
    /// Panics if no loop is open.
    pub fn end_repeat(&mut self) {
        let (times, body) = self.open.pop().expect("end_repeat without begin_repeat");
        self.push(Stmt::Repeat { times, body });
    }

    /// Appends a full array snapshot to the program output (after the
    /// body runs).
    pub fn output(&mut self, arr: ArrId) {
        self.outputs.push(arr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_nests_repeats() {
        let mut p = Program::new("t");
        let a = p.array(0, 4);
        p.begin_repeat(3);
        p.sweep(Sweep::fill(a, 4, 1.0));
        p.end_repeat();
        assert_eq!(p.body.len(), 1);
        match &p.body[0] {
            Stmt::Repeat { times, body } => {
                assert_eq!(*times, 3);
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected repeat, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "end_repeat without begin_repeat")]
    fn unbalanced_end_repeat_panics() {
        let mut p = Program::new("t");
        p.end_repeat();
    }

    #[test]
    fn bulk_ops_declare_streams_in_eval_order() {
        let mut p = Program::new("t");
        let x = p.array(0, 8);
        let y = p.array(1, 8);
        let s = Sweep::axpy(y, x, 8, Expr::k(2.0));
        // load x, load y, store y — the order the element loop reads.
        assert_eq!(s.streams.len(), 3);
        assert!(matches!(
            s.streams[0],
            StreamDecl::Affine { write: false, .. }
        ));
        assert!(matches!(
            s.streams[2],
            StreamDecl::Affine { write: true, .. }
        ));
        p.sweep(s);
    }

    #[test]
    fn clone_resets_caches() {
        let mut p = Program::new("t");
        let a = p.array_init(0, vec![1.0, 2.0]);
        p.output(a);
        let q = p.clone();
        assert_eq!(q.consts.len(), 1);
        assert_eq!(q.rounded.len(), 1);
        assert!(q.rounded[0][0].get().is_none());
    }
}
