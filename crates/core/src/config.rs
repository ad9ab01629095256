//! Solver configuration: frameworks, pivot strategies, orderings and the
//! named algorithm presets used throughout the paper's evaluation.

use std::fmt;

use mce_graph::{EdgeOrderingKind, VertexOrderingKind};

/// An invalid [`SolverConfig`] (out-of-range early-termination level, zero
/// edge depth, unknown preset name). Implements [`std::error::Error`] so
/// drivers can surface it with a proper exit code instead of panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid solver configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Pivot selection strategy for the vertex-oriented recursion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PivotStrategy {
    /// No pivoting: branch on every candidate vertex (the original Bron–Kerbosch).
    None,
    /// Classic Tomita pivot: the vertex of `C ∪ X` with the most neighbours in `C`
    /// (used by `BK_Pivot`, `BK_Degen` and by HBBMC's vertex-oriented phase).
    Classic,
    /// Refined pivot selection in the spirit of `BK_Ref` (Naudé): prunes branches
    /// dominated by an exclusion vertex adjacent to all candidates and absorbs
    /// universal candidates before falling back to the classic rule.
    Refined,
    /// Cheap iteratively-improved pivot in the spirit of `BK_Fac`: start from an
    /// arbitrary candidate and shrink the branching set whenever a processed
    /// vertex yields a smaller one.
    Factor,
}

/// The shape of the recursion run below the initial branching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecursionStrategy {
    /// Vertex-oriented Bron–Kerbosch branching with the given pivot strategy.
    Pivoting(PivotStrategy),
    /// The `BK_Rcd` top-down recursion: repeatedly branch on the minimum-degree
    /// candidate until the candidate graph becomes a clique.
    Rcd,
}

/// How the initial (root) branching partitions the search space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InitialBranching {
    /// Vertex-oriented branching (Eq. 1) over the whole graph using the given
    /// vertex ordering. This is the `VBBMC` family.
    Vertex(VertexOrderingKind),
    /// Edge-oriented branching (Eq. 2 / Eq. 3) using the given edge ordering,
    /// applied for `depth` levels of the recursion tree before switching to the
    /// vertex-oriented strategy. `depth = 1` (only the root) is the paper's
    /// HBBMC; `depth ∈ {2, 3}` reproduces Table IV.
    Edge {
        /// Edge ordering used at the root (and inherited at deeper edge levels).
        ordering: EdgeOrderingKind,
        /// Number of edge-oriented levels (≥ 1).
        depth: usize,
    },
}

/// Full configuration of a maximal clique enumeration run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SolverConfig {
    /// Root branching strategy.
    pub initial: InitialBranching,
    /// Recursion strategy below the root.
    pub recursion: RecursionStrategy,
    /// Early-termination parameter `t ∈ {0, 1, 2, 3}` — terminate branches whose
    /// candidate graph is a t-plex and whose exclusion graph is empty. `0`
    /// disables the technique.
    pub early_termination_t: usize,
    /// Whether to apply the graph-reduction (GR) preprocessing of Deng et al.
    pub graph_reduction: bool,
}

impl Default for SolverConfig {
    /// The paper's flagship configuration `HBBMC++`.
    fn default() -> Self {
        Self::hbbmc_pp()
    }
}

impl SolverConfig {
    /// Validates the configuration (early-termination level and edge depth).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.early_termination_t > 3 {
            return Err(ConfigError::new(format!(
                "early_termination_t must be in 0..=3 (got {}): the paper's construction only \
                 covers cliques, 2-plexes and 3-plexes",
                self.early_termination_t
            )));
        }
        if let InitialBranching::Edge { depth, .. } = self.initial {
            if depth == 0 {
                return Err(ConfigError::new(
                    "edge-oriented initial branching requires depth >= 1",
                ));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Proposed algorithms
    // ------------------------------------------------------------------

    /// `HBBMC++`: hybrid branching (truss-ordered edge root, classic-pivot
    /// vertex recursion) + early termination (t = 3) + graph reduction.
    pub fn hbbmc_pp() -> Self {
        SolverConfig {
            initial: InitialBranching::Edge {
                ordering: EdgeOrderingKind::Truss,
                depth: 1,
            },
            recursion: RecursionStrategy::Pivoting(PivotStrategy::Classic),
            early_termination_t: 3,
            graph_reduction: true,
        }
    }

    /// `HBBMC+`: HBBMC++ without the early-termination technique.
    pub fn hbbmc_plus() -> Self {
        SolverConfig {
            early_termination_t: 0,
            ..Self::hbbmc_pp()
        }
    }

    /// Plain `HBBMC` (no ET, no GR): the bare hybrid framework of Algorithm 4.
    pub fn hbbmc_bare() -> Self {
        SolverConfig {
            early_termination_t: 0,
            graph_reduction: false,
            ..Self::hbbmc_pp()
        }
    }

    /// `HBBMC++` with a different switch depth `d` (Table IV).
    pub fn hbbmc_pp_depth(depth: usize) -> Self {
        SolverConfig {
            initial: InitialBranching::Edge {
                ordering: EdgeOrderingKind::Truss,
                depth,
            },
            ..Self::hbbmc_pp()
        }
    }

    /// `HBBMC++` with early-termination level `t` (Table V; `t = 0` is `HBBMC+`).
    pub fn hbbmc_pp_et(t: usize) -> Self {
        SolverConfig {
            early_termination_t: t,
            ..Self::hbbmc_pp()
        }
    }

    /// `EBBMC`: pure edge-oriented branching with truss ordering (no pivoting
    /// benefit below the root is expressed by an effectively unbounded depth).
    pub fn ebbmc() -> Self {
        SolverConfig {
            initial: InitialBranching::Edge {
                ordering: EdgeOrderingKind::Truss,
                depth: usize::MAX,
            },
            recursion: RecursionStrategy::Pivoting(PivotStrategy::Classic),
            early_termination_t: 0,
            graph_reduction: false,
        }
    }

    // ------------------------------------------------------------------
    // VBBMC baselines (Deng et al.'s R* variants all include GR)
    // ------------------------------------------------------------------

    /// `RRef`: `BK_Ref` (refined pivoting) + graph reduction.
    pub fn r_ref() -> Self {
        SolverConfig {
            initial: InitialBranching::Vertex(VertexOrderingKind::Natural),
            recursion: RecursionStrategy::Pivoting(PivotStrategy::Refined),
            early_termination_t: 0,
            graph_reduction: true,
        }
    }

    /// `RDegen`: `BK_Degen` (degeneracy ordering + classic pivot) + graph reduction.
    pub fn r_degen() -> Self {
        SolverConfig {
            initial: InitialBranching::Vertex(VertexOrderingKind::Degeneracy),
            recursion: RecursionStrategy::Pivoting(PivotStrategy::Classic),
            early_termination_t: 0,
            graph_reduction: true,
        }
    }

    /// `RRcd`: `BK_Rcd` (top-down removal of minimum-degree candidates) + graph reduction.
    pub fn r_rcd() -> Self {
        SolverConfig {
            initial: InitialBranching::Vertex(VertexOrderingKind::Degeneracy),
            recursion: RecursionStrategy::Rcd,
            early_termination_t: 0,
            graph_reduction: true,
        }
    }

    /// `RFac`: `BK_Fac` (cheap iterative pivot) + graph reduction.
    pub fn r_fac() -> Self {
        SolverConfig {
            initial: InitialBranching::Vertex(VertexOrderingKind::Degeneracy),
            recursion: RecursionStrategy::Pivoting(PivotStrategy::Factor),
            early_termination_t: 0,
            graph_reduction: true,
        }
    }

    /// Historical `BK_Pivot` (classic pivot, natural ordering, no GR).
    pub fn bk_pivot() -> Self {
        SolverConfig {
            initial: InitialBranching::Vertex(VertexOrderingKind::Natural),
            recursion: RecursionStrategy::Pivoting(PivotStrategy::Classic),
            early_termination_t: 0,
            graph_reduction: false,
        }
    }

    /// The original Bron–Kerbosch algorithm (no pivot, no ordering, no GR).
    pub fn bk_plain() -> Self {
        SolverConfig {
            initial: InitialBranching::Vertex(VertexOrderingKind::Natural),
            recursion: RecursionStrategy::Pivoting(PivotStrategy::None),
            early_termination_t: 0,
            graph_reduction: false,
        }
    }

    /// `BK_Degree`: degree ordering at the root + classic pivot.
    pub fn bk_degree() -> Self {
        SolverConfig {
            initial: InitialBranching::Vertex(VertexOrderingKind::Degree),
            recursion: RecursionStrategy::Pivoting(PivotStrategy::Classic),
            early_termination_t: 0,
            graph_reduction: false,
        }
    }

    // ------------------------------------------------------------------
    // Hybrid-framework variants of Table III and Table VI
    // ------------------------------------------------------------------

    /// `Ref++`: edge-oriented root + refined-pivot recursion + ET + GR.
    pub fn ref_pp() -> Self {
        SolverConfig {
            recursion: RecursionStrategy::Pivoting(PivotStrategy::Refined),
            ..Self::hbbmc_pp()
        }
    }

    /// `Rcd++`: edge-oriented root + Rcd recursion + ET + GR.
    pub fn rcd_pp() -> Self {
        SolverConfig {
            recursion: RecursionStrategy::Rcd,
            ..Self::hbbmc_pp()
        }
    }

    /// `Fac++`: edge-oriented root + factor-pivot recursion + ET + GR.
    pub fn fac_pp() -> Self {
        SolverConfig {
            recursion: RecursionStrategy::Pivoting(PivotStrategy::Factor),
            ..Self::hbbmc_pp()
        }
    }

    /// `VBBMC-dgn`: vertex-oriented root with degeneracy ordering + ET + GR
    /// (differs from HBBMC++ only in the initial branching, Table VI).
    pub fn vbbmc_dgn() -> Self {
        SolverConfig {
            initial: InitialBranching::Vertex(VertexOrderingKind::Degeneracy),
            ..Self::hbbmc_pp()
        }
    }

    /// `HBBMC-dgn`: edge-oriented root ordered lexicographically by the
    /// degeneracy positions of the endpoints (Table VI).
    pub fn hbbmc_dgn() -> Self {
        SolverConfig {
            initial: InitialBranching::Edge {
                ordering: EdgeOrderingKind::DegeneracyLex,
                depth: 1,
            },
            ..Self::hbbmc_pp()
        }
    }

    /// `HBBMC-mdg`: edge-oriented root ordered by the minimum endpoint degree
    /// (Table VI).
    pub fn hbbmc_mdg() -> Self {
        SolverConfig {
            initial: InitialBranching::Edge {
                ordering: EdgeOrderingKind::MinDegree,
                depth: 1,
            },
            ..Self::hbbmc_pp()
        }
    }

    /// `RDegen+ET`: the early-termination technique applied to the
    /// vertex-oriented `RDegen` baseline — the paper's remark that ET is
    /// orthogonal to the branching framework.
    pub fn r_degen_et() -> Self {
        SolverConfig {
            early_termination_t: 3,
            ..Self::r_degen()
        }
    }

    /// `RRcd+ET`: early termination on top of the `BK_Rcd` recursion.
    pub fn r_rcd_et() -> Self {
        SolverConfig {
            early_termination_t: 3,
            ..Self::r_rcd()
        }
    }

    /// Looks up a named preset case-insensitively (the names of
    /// [`SolverConfig::named_presets`], e.g. `HBBMC++` or `rdegen`).
    pub fn preset_by_name(name: &str) -> Result<SolverConfig, ConfigError> {
        Self::named_presets()
            .into_iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, cfg)| cfg)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::named_presets().iter().map(|(n, _)| *n).collect();
                ConfigError::new(format!(
                    "unknown preset '{name}' (expected one of: {})",
                    names.join(", ")
                ))
            })
    }

    /// All named presets with their paper names, useful for harnesses and tests.
    pub fn named_presets() -> Vec<(&'static str, SolverConfig)> {
        vec![
            ("HBBMC++", Self::hbbmc_pp()),
            ("HBBMC+", Self::hbbmc_plus()),
            ("HBBMC", Self::hbbmc_bare()),
            ("EBBMC", Self::ebbmc()),
            ("RRef", Self::r_ref()),
            ("RDegen", Self::r_degen()),
            ("RRcd", Self::r_rcd()),
            ("RFac", Self::r_fac()),
            ("BK", Self::bk_plain()),
            ("BK_Pivot", Self::bk_pivot()),
            ("BK_Degree", Self::bk_degree()),
            ("Ref++", Self::ref_pp()),
            ("Rcd++", Self::rcd_pp()),
            ("Fac++", Self::fac_pp()),
            ("VBBMC-dgn", Self::vbbmc_dgn()),
            ("HBBMC-dgn", Self::hbbmc_dgn()),
            ("HBBMC-mdg", Self::hbbmc_mdg()),
            ("RDegen+ET", Self::r_degen_et()),
            ("RRcd+ET", Self::r_rcd_et()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_hbbmc_pp() {
        assert_eq!(SolverConfig::default(), SolverConfig::hbbmc_pp());
    }

    #[test]
    fn hbbmc_pp_shape() {
        let c = SolverConfig::hbbmc_pp();
        assert_eq!(
            c.initial,
            InitialBranching::Edge {
                ordering: EdgeOrderingKind::Truss,
                depth: 1
            }
        );
        assert_eq!(
            c.recursion,
            RecursionStrategy::Pivoting(PivotStrategy::Classic)
        );
        assert_eq!(c.early_termination_t, 3);
        assert!(c.graph_reduction);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn hbbmc_plus_disables_only_et() {
        let pp = SolverConfig::hbbmc_pp();
        let plus = SolverConfig::hbbmc_plus();
        assert_eq!(plus.early_termination_t, 0);
        assert_eq!(plus.initial, pp.initial);
        assert_eq!(plus.graph_reduction, pp.graph_reduction);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = SolverConfig::hbbmc_pp();
        c.early_termination_t = 4;
        assert!(c.validate().is_err());
        let mut c = SolverConfig::hbbmc_pp();
        c.initial = InitialBranching::Edge {
            ordering: EdgeOrderingKind::Truss,
            depth: 0,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn baselines_have_no_et() {
        for cfg in [
            SolverConfig::r_ref(),
            SolverConfig::r_degen(),
            SolverConfig::r_rcd(),
            SolverConfig::r_fac(),
        ] {
            assert_eq!(cfg.early_termination_t, 0);
            assert!(cfg.graph_reduction);
            assert!(matches!(cfg.initial, InitialBranching::Vertex(_)));
        }
    }

    #[test]
    fn table6_variants_differ_only_in_initial_branching() {
        let pp = SolverConfig::hbbmc_pp();
        for cfg in [
            SolverConfig::vbbmc_dgn(),
            SolverConfig::hbbmc_dgn(),
            SolverConfig::hbbmc_mdg(),
        ] {
            assert_eq!(cfg.recursion, pp.recursion);
            assert_eq!(cfg.early_termination_t, pp.early_termination_t);
            assert_eq!(cfg.graph_reduction, pp.graph_reduction);
            assert_ne!(cfg.initial, pp.initial);
        }
    }

    #[test]
    fn named_presets_all_validate_and_are_distinctly_named() {
        let presets = SolverConfig::named_presets();
        let mut names: Vec<&str> = presets.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), presets.len());
        for (name, cfg) in presets {
            assert!(cfg.validate().is_ok(), "{name} must validate");
        }
    }

    #[test]
    fn et_orthogonality_presets_keep_framework_and_add_et() {
        let base = SolverConfig::r_degen();
        let et = SolverConfig::r_degen_et();
        assert_eq!(et.initial, base.initial);
        assert_eq!(et.recursion, base.recursion);
        assert_eq!(et.early_termination_t, 3);
        let et = SolverConfig::r_rcd_et();
        assert_eq!(et.recursion, RecursionStrategy::Rcd);
        assert_eq!(et.early_termination_t, 3);
    }

    #[test]
    fn preset_lookup_is_case_insensitive() {
        assert_eq!(
            SolverConfig::preset_by_name("hbbmc++").unwrap(),
            SolverConfig::hbbmc_pp()
        );
        assert_eq!(
            SolverConfig::preset_by_name("RDEGEN").unwrap(),
            SolverConfig::r_degen()
        );
        let err = SolverConfig::preset_by_name("nope").unwrap_err();
        assert!(err.to_string().contains("unknown preset"));
        assert!(err.to_string().contains("HBBMC++"));
    }

    #[test]
    fn depth_preset_sets_depth() {
        for d in 1..=3 {
            let c = SolverConfig::hbbmc_pp_depth(d);
            assert_eq!(
                c.initial,
                InitialBranching::Edge {
                    ordering: EdgeOrderingKind::Truss,
                    depth: d
                }
            );
        }
    }
}
