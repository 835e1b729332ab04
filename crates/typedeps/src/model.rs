//! The declarative program model benchmarks register themselves with.

use crate::{ClusterId, Clustering, FuncId, ModuleId};
use mixp_float::{Precision, PrecisionConfig, VarId, VarRegistry};
use std::fmt;

/// The syntactic kind of a tunable program location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// A scalar local or global variable.
    Scalar,
    /// An array / pointer-to-buffer variable (base type is what changes).
    Array,
    /// A floating-point literal. Typeforge does not transform literals, so
    /// these are untunable and pinned to double — mixing them with lowered
    /// variables produces the cast overhead the paper observes in Hotspot.
    Literal,
}

/// Metadata of one program location.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// The location's id (index into configurations).
    pub id: VarId,
    /// Declared name (for reports).
    pub name: String,
    /// Syntactic kind.
    pub kind: VarKind,
    /// Enclosing function.
    pub function: FuncId,
    /// Whether the search may change this location's precision.
    pub tunable: bool,
}

/// Error returned when a configuration cannot "compile": it splits a
/// type-dependence cluster or lowers an untunable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "configuration does not compile: {}", self.reason)
    }
}

impl std::error::Error for InvalidConfig {}

/// Incrementally constructs a [`ProgramModel`].
///
/// Benchmarks declare modules, functions, variables and the dependence edges
/// a Typeforge analysis of their C source would find, then call
/// [`ProgramBuilder::build`].
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    registry: VarRegistry,
    vars: Vec<VarInfo>,
    modules: Vec<String>,
    functions: Vec<(String, ModuleId)>,
    edges: Vec<(VarId, VarId)>,
}

impl ProgramBuilder {
    /// Starts a model for the benchmark called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            registry: VarRegistry::new(),
            vars: Vec::new(),
            modules: Vec::new(),
            functions: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Declares a module (translation unit).
    pub fn module(&mut self, name: impl Into<String>) -> ModuleId {
        let id = ModuleId(u32::try_from(self.modules.len()).expect("too many modules"));
        self.modules.push(name.into());
        id
    }

    /// Declares a function inside `module`.
    ///
    /// # Panics
    ///
    /// Panics if `module` was not declared by this builder.
    pub fn function(&mut self, name: impl Into<String>, module: ModuleId) -> FuncId {
        assert!(module.index() < self.modules.len(), "unknown module");
        let id = FuncId(u32::try_from(self.functions.len()).expect("too many functions"));
        self.functions.push((name.into(), module));
        id
    }

    fn var(&mut self, function: FuncId, name: &str, kind: VarKind, tunable: bool) -> VarId {
        assert!(function.index() < self.functions.len(), "unknown function");
        let id = self.registry.fresh(name);
        self.vars.push(VarInfo {
            id,
            name: name.to_string(),
            kind,
            function,
            tunable,
        });
        id
    }

    /// Declares a tunable scalar variable.
    pub fn scalar(&mut self, function: FuncId, name: &str) -> VarId {
        self.var(function, name, VarKind::Scalar, true)
    }

    /// Declares a tunable array (pointer base type) variable.
    pub fn array(&mut self, function: FuncId, name: &str) -> VarId {
        self.var(function, name, VarKind::Array, true)
    }

    /// Declares an untunable literal location (always double).
    pub fn literal(&mut self, function: FuncId, name: &str) -> VarId {
        self.var(function, name, VarKind::Literal, false)
    }

    /// Records a type-dependence edge: `a` and `b` must share a base type
    /// (pointer assignment, array argument binding, address-of binding).
    ///
    /// # Panics
    ///
    /// Panics if either variable was not declared by this builder.
    pub fn bind(&mut self, a: VarId, b: VarId) {
        assert!(a.index() < self.vars.len() && b.index() < self.vars.len());
        self.edges.push((a, b));
    }

    /// Finalises the model, running the clustering analysis.
    pub fn build(self) -> ProgramModel {
        let tunable: Vec<bool> = self.vars.iter().map(|v| v.tunable).collect();
        let clustering = Clustering::from_edges(&tunable, &self.edges);
        ProgramModel {
            name: self.name,
            registry: self.registry,
            vars: self.vars,
            modules: self.modules,
            functions: self.functions,
            clustering,
        }
    }
}

/// The finalized program model of one benchmark: variables, hierarchy and
/// the cluster partition.
#[derive(Debug, Clone)]
pub struct ProgramModel {
    name: String,
    registry: VarRegistry,
    vars: Vec<VarInfo>,
    modules: Vec<String>,
    functions: Vec<(String, ModuleId)>,
    clustering: Clustering,
}

impl ProgramModel {
    /// The benchmark's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of program locations (tunable or not).
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The paper's *TV* metric: number of tunable variables.
    pub fn total_variables(&self) -> usize {
        self.vars.iter().filter(|v| v.tunable).count()
    }

    /// The paper's *TC* metric: number of type-dependence clusters.
    pub fn total_clusters(&self) -> usize {
        self.clustering.len()
    }

    /// Metadata of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn var_info(&self, var: VarId) -> &VarInfo {
        &self.vars[var.index()]
    }

    /// The name registry (ids ↔ names).
    pub fn registry(&self) -> &VarRegistry {
        &self.registry
    }

    /// All tunable variable ids, in declaration order.
    pub fn tunable_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .filter(|v| v.tunable)
            .map(|v| v.id)
            .collect()
    }

    /// The cluster partition.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Ids and names of all modules.
    pub fn modules(&self) -> impl Iterator<Item = (ModuleId, &str)> {
        self.modules
            .iter()
            .enumerate()
            .map(|(i, n)| (ModuleId(i as u32), n.as_str()))
    }

    /// Ids and names of all functions.
    pub fn functions(&self) -> impl Iterator<Item = (FuncId, &str)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (FuncId(i as u32), n.as_str()))
    }

    /// The module containing `func`.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn module_of(&self, func: FuncId) -> ModuleId {
        self.functions[func.index()].1
    }

    /// Tunable variables declared in `func`.
    pub fn vars_in_function(&self, func: FuncId) -> Vec<VarId> {
        self.vars
            .iter()
            .filter(|v| v.tunable && v.function == func)
            .map(|v| v.id)
            .collect()
    }

    /// Tunable variables declared in any function of `module`.
    pub fn vars_in_module(&self, module: ModuleId) -> Vec<VarId> {
        self.vars
            .iter()
            .filter(|v| v.tunable && self.module_of(v.function) == module)
            .map(|v| v.id)
            .collect()
    }

    /// Builds an all-double configuration sized for this program.
    pub fn config_all_double(&self) -> PrecisionConfig {
        PrecisionConfig::all_double(self.var_count())
    }

    /// Builds the configuration that lowers every *tunable* variable
    /// (literals stay double, exactly like Typeforge's output).
    pub fn config_all_single(&self) -> PrecisionConfig {
        PrecisionConfig::from_lowered(self.var_count(), self.tunable_vars())
    }

    /// Expands a cluster selection into a variable-level configuration.
    pub fn config_from_clusters(
        &self,
        lowered: impl IntoIterator<Item = ClusterId>,
    ) -> PrecisionConfig {
        self.clustering.expand(self.var_count(), lowered)
    }

    /// Expands a per-cluster precision assignment into a variable-level
    /// configuration (three-level search spaces).
    ///
    /// # Panics
    ///
    /// Panics if `levels.len()` differs from the cluster count.
    pub fn config_from_cluster_levels(&self, levels: &[Precision]) -> PrecisionConfig {
        self.clustering.expand_levels(self.var_count(), levels)
    }

    /// Checks that `cfg` would compile: no untunable location is lowered and
    /// no cluster is split across precisions.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] naming the offending location or cluster.
    pub fn validate(&self, cfg: &PrecisionConfig) -> Result<(), InvalidConfig> {
        if cfg.len() != self.var_count() {
            return Err(InvalidConfig {
                reason: format!(
                    "configuration covers {} locations, program has {}",
                    cfg.len(),
                    self.var_count()
                ),
            });
        }
        for v in &self.vars {
            if !v.tunable && cfg.get(v.id) != Precision::Double {
                return Err(InvalidConfig {
                    reason: format!("untransformable location `{}` lowered", v.name),
                });
            }
        }
        for c in self.clustering.ids() {
            let ms = self.clustering.members(c);
            if let Some(w) = ms.windows(2).find(|w| cfg.get(w[0]) != cfg.get(w[1])) {
                return Err(InvalidConfig {
                    reason: format!(
                        "cluster {c} split: `{}` and `{}` differ in precision",
                        self.registry.name(w[0]),
                        self.registry.name(w[1])
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Listing 1 example from the paper.
    fn listing1() -> ProgramModel {
        let mut b = ProgramBuilder::new("listing1");
        let m = b.module("main");
        let vm = b.function("vect_mult", m);
        let input = b.array(vm, "input");
        let inout = b.array(vm, "inout");
        let _ratio = b.scalar(vm, "ratio");
        let _res = b.scalar(vm, "res");
        let foo = b.function("foo", m);
        let arr = b.array(foo, "arr");
        let val = b.scalar(foo, "val");
        let _scale = b.scalar(foo, "scale");
        b.bind(arr, input);
        b.bind(val, inout);
        b.build()
    }

    #[test]
    fn listing1_partition_matches_paper() {
        let pm = listing1();
        assert_eq!(pm.total_variables(), 7);
        assert_eq!(pm.total_clusters(), 5);
        let reg = pm.registry();
        let arr = reg.find("arr").unwrap();
        let input = reg.find("input").unwrap();
        let val = reg.find("val").unwrap();
        let inout = reg.find("inout").unwrap();
        let scale = reg.find("scale").unwrap();
        let ratio = reg.find("ratio").unwrap();
        let cl = pm.clustering();
        assert_eq!(cl.cluster_of(arr), cl.cluster_of(input));
        assert_eq!(cl.cluster_of(val), cl.cluster_of(inout));
        assert_ne!(cl.cluster_of(scale), cl.cluster_of(ratio));
        assert_ne!(cl.cluster_of(arr), cl.cluster_of(val));
    }

    #[test]
    fn validate_accepts_cluster_consistent_configs() {
        let pm = listing1();
        assert!(pm.validate(&pm.config_all_double()).is_ok());
        assert!(pm.validate(&pm.config_all_single()).is_ok());
    }

    #[test]
    fn validate_rejects_split_cluster() {
        let pm = listing1();
        let arr = pm.registry().find("arr").unwrap();
        let mut cfg = pm.config_all_double();
        cfg.set(arr, Precision::Single); // `input` stays double: won't compile
        let err = pm.validate(&cfg).unwrap_err();
        assert!(
            err.reason.contains("split"),
            "unexpected reason: {}",
            err.reason
        );
    }

    #[test]
    fn validate_rejects_lowered_literal() {
        let mut b = ProgramBuilder::new("lit");
        let m = b.module("main");
        let f = b.function("f", m);
        let lit = b.literal(f, "0.5");
        let pm = b.build();
        let mut cfg = pm.config_all_double();
        cfg.set(lit, Precision::Single);
        assert!(pm.validate(&cfg).is_err());
    }

    #[test]
    fn literals_do_not_count_as_variables() {
        let mut b = ProgramBuilder::new("lit");
        let m = b.module("main");
        let f = b.function("f", m);
        b.literal(f, "0.5");
        b.scalar(f, "x");
        let pm = b.build();
        assert_eq!(pm.total_variables(), 1);
        assert_eq!(pm.total_clusters(), 1);
        assert_eq!(pm.var_count(), 2);
    }

    #[test]
    fn all_single_keeps_literals_double() {
        let mut b = ProgramBuilder::new("lit");
        let m = b.module("main");
        let f = b.function("f", m);
        let lit = b.literal(f, "0.5");
        let x = b.scalar(f, "x");
        let pm = b.build();
        let cfg = pm.config_all_single();
        assert_eq!(cfg.get(lit), Precision::Double);
        assert_eq!(cfg.get(x), Precision::Single);
        assert!(pm.validate(&cfg).is_ok());
    }

    #[test]
    fn hierarchy_queries() {
        let mut b = ProgramBuilder::new("h");
        let m1 = b.module("a.c");
        let m2 = b.module("b.c");
        let f1 = b.function("f1", m1);
        let f2 = b.function("f2", m2);
        let x = b.scalar(f1, "x");
        let y = b.scalar(f2, "y");
        let z = b.array(f2, "z");
        let pm = b.build();
        assert_eq!(pm.vars_in_function(f1), vec![x]);
        assert_eq!(pm.vars_in_module(m2), vec![y, z]);
        assert_eq!(pm.module_of(f2), m2);
        assert_eq!(pm.modules().count(), 2);
        assert_eq!(pm.functions().count(), 2);
    }

    #[test]
    fn config_from_clusters_expands() {
        let pm = listing1();
        let arr = pm.registry().find("arr").unwrap();
        let input = pm.registry().find("input").unwrap();
        let c = pm.clustering().cluster_of(arr).unwrap();
        let cfg = pm.config_from_clusters([c]);
        assert_eq!(cfg.get(arr), Precision::Single);
        assert_eq!(cfg.get(input), Precision::Single);
        assert_eq!(cfg.lowered_count(), 2);
        assert!(pm.validate(&cfg).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_length() {
        let pm = listing1();
        let cfg = PrecisionConfig::all_double(3);
        assert!(pm.validate(&cfg).is_err());
    }
}
