//! The query planner: compiles `(text, predicate, k)` into a staged
//! [`QueryPlan`] the executor ([`crate::exec`]) runs.
//!
//! Every query — the plain `Lovo::query(text)` included — goes through one
//! plan path: **encode → prune → coarse filtered search → rerank →
//! aggregate**. The planner's job is the *prune* half: it folds the
//! [`QueryPredicate`] AST into the storage-level [`PatchPredicate`]
//! (conjunctions intersect video sets, time windows and class-code sets), and
//! detects predicates that are jointly unsatisfiable so the executor can
//! answer them with an empty result without touching the index at all.

use crate::config::LovoConfig;
use lovo_store::PatchPredicate;
use lovo_video::{ObjectClass, QueryPredicate};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One query as the user states it: the text, an optional metadata predicate
/// restricting where to search, and an optional fast-search `k` override.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// The natural-language query text.
    pub text: String,
    /// Metadata predicate restricting the search universe.
    pub predicate: QueryPredicate,
    /// Fast-search candidate count; `None` uses the configured default.
    pub fast_search_k: Option<usize>,
}

impl QuerySpec {
    /// A spec with no predicate and the default candidate count.
    pub fn new(text: impl Into<String>) -> Self {
        Self {
            text: text.into(),
            predicate: QueryPredicate::Any,
            fast_search_k: None,
        }
    }

    /// Builder-style predicate attachment.
    pub fn with_predicate(mut self, predicate: QueryPredicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Builder-style fast-search `k` override. Passed through verbatim —
    /// `k = 0` is a valid no-candidates baseline (it returns an empty
    /// result).
    pub fn with_k(mut self, k: usize) -> Self {
        self.fast_search_k = Some(k);
        self
    }
}

/// The stages of a compiled plan, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanStage {
    /// Text encoding (§VI-A).
    Encode,
    /// Predicate compilation + metadata join + zone-map range derivation.
    Prune,
    /// Filtered fast search over the vector collection (Algorithm 1).
    CoarseSearch,
    /// Cross-modality rerank of the candidate frames (§VI-B).
    Rerank,
    /// Frame grouping, truncation, and result assembly.
    Aggregate,
}

impl PlanStage {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PlanStage::Encode => "encode",
            PlanStage::Prune => "prune",
            PlanStage::CoarseSearch => "coarse",
            PlanStage::Rerank => "rerank",
            PlanStage::Aggregate => "aggregate",
        }
    }
}

/// A compiled, executable query plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryPlan {
    /// The query text (encoded in the first stage).
    pub text: String,
    /// The predicate as the user stated it.
    pub predicate: QueryPredicate,
    /// The compiled storage-level predicate the database resolves into a
    /// pushed-down filter.
    pub patch_predicate: PatchPredicate,
    /// True when the predicate is jointly unsatisfiable (e.g. two disjoint
    /// video sets): the executor returns an empty result without searching.
    pub provably_empty: bool,
    /// Fast-search candidate count (stage-1 `k`).
    pub fast_search_k: usize,
    /// Whether the cross-modality rerank stage runs.
    pub enable_rerank: bool,
    /// Candidate-frame budget of the rerank stage.
    pub rerank_frames: usize,
    /// Number of frames returned to the user.
    pub output_frames: usize,
}

impl QueryPlan {
    /// True when the plan carries a real pushdown (some constraint survived
    /// compilation).
    pub fn is_filtered(&self) -> bool {
        !self.patch_predicate.is_unconstrained() || self.provably_empty
    }

    /// A 64-bit fingerprint of everything that determines this plan's result:
    /// the query text, the effective fast-search `k`, the rerank/output
    /// budgets, and the *compiled* (flattened) predicate — so two specs whose
    /// predicate ASTs differ syntactically but compile to the same
    /// conjunction (e.g. `videos([1,2]) AND videos([2,3])` vs `videos([2])`)
    /// fingerprint identically. Result caches key on this plus an ingest
    /// epoch. Fingerprints are stable within a process but not across
    /// processes or versions — never persist them.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.text.hash(&mut hasher);
        self.fast_search_k.hash(&mut hasher);
        self.enable_rerank.hash(&mut hasher);
        self.rerank_frames.hash(&mut hasher);
        self.output_frames.hash(&mut hasher);
        self.provably_empty.hash(&mut hasher);
        self.patch_predicate.video_ids.hash(&mut hasher);
        // f64 is not Hash; bit patterns are exact and deterministic.
        self.patch_predicate
            .time_range
            .map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
            .hash(&mut hasher);
        self.patch_predicate.class_codes.hash(&mut hasher);
        hasher.finish()
    }

    /// True when `other` has the same result-relevant identity: field for
    /// field what [`QueryPlan::fingerprint`] hashes, so the predicate is
    /// compared as compiled, not as the user wrote it. Two plans that agree
    /// here return the same answer from the same collection.
    pub fn same_answer(&self, other: &QueryPlan) -> bool {
        self.text == other.text
            && self.fast_search_k == other.fast_search_k
            && self.enable_rerank == other.enable_rerank
            && self.rerank_frames == other.rerank_frames
            && self.output_frames == other.output_frames
            && self.provably_empty == other.provably_empty
            && self.patch_predicate == other.patch_predicate
    }

    /// The stages this plan executes, in order. Unconstrained plans skip
    /// `prune`; rerank-ablated plans skip `rerank`.
    pub fn stages(&self) -> Vec<PlanStage> {
        let mut stages = vec![PlanStage::Encode];
        if self.is_filtered() {
            stages.push(PlanStage::Prune);
        }
        stages.push(PlanStage::CoarseSearch);
        if self.enable_rerank {
            stages.push(PlanStage::Rerank);
        }
        stages.push(PlanStage::Aggregate);
        stages
    }

    /// One-line human-readable plan description, e.g.
    /// `encode -> prune -> coarse(k=400) -> rerank(64) -> aggregate(20)`.
    pub fn describe(&self) -> String {
        self.stages()
            .iter()
            .map(|stage| match stage {
                PlanStage::CoarseSearch => format!("coarse(k={})", self.fast_search_k),
                PlanStage::Rerank => format!("rerank({})", self.rerank_frames),
                PlanStage::Aggregate => format!("aggregate({})", self.output_frames),
                other => other.name().to_string(),
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Compiles [`QuerySpec`]s into [`QueryPlan`]s under one system configuration.
#[derive(Debug, Clone)]
pub struct QueryPlanner {
    config: LovoConfig,
}

impl QueryPlanner {
    /// A planner for the given configuration.
    pub fn new(config: LovoConfig) -> Self {
        Self { config }
    }

    /// Compiles one spec into an executable plan.
    pub fn plan(&self, spec: &QuerySpec) -> QueryPlan {
        let (patch_predicate, provably_empty) = compile_predicate(&spec.predicate);
        QueryPlan {
            text: spec.text.clone(),
            predicate: spec.predicate.clone(),
            patch_predicate,
            provably_empty,
            fast_search_k: spec.fast_search_k.unwrap_or(self.config.fast_search_k),
            enable_rerank: self.config.enable_rerank,
            rerank_frames: self.config.rerank_frames,
            output_frames: self.config.output_frames,
        }
    }
}

/// Conjunctive fold of the predicate AST into the storage-level predicate.
/// Returns the compiled predicate plus whether it is provably empty.
fn compile_predicate(predicate: &QueryPredicate) -> (PatchPredicate, bool) {
    let mut compiled = PatchPredicate::default();
    let mut empty = false;
    fold(predicate, &mut compiled, &mut empty);
    (compiled, empty)
}

fn fold(predicate: &QueryPredicate, compiled: &mut PatchPredicate, empty: &mut bool) {
    match predicate {
        QueryPredicate::Any => {}
        QueryPredicate::Videos(ids) => {
            let set: BTreeSet<u32> = ids.iter().copied().collect();
            intersect(&mut compiled.video_ids, set, empty);
        }
        QueryPredicate::TimeRange { start, end } => {
            let (mut lo, mut hi) = (*start, *end);
            if let Some((existing_lo, existing_hi)) = compiled.time_range {
                lo = lo.max(existing_lo);
                hi = hi.min(existing_hi);
            }
            if lo > hi {
                *empty = true;
            }
            compiled.time_range = Some((lo, hi));
        }
        QueryPredicate::Class(class) => {
            // A Car predicate also accepts SUV patches, mirroring the
            // ground-truth rule of `QueryConstraints::matches`.
            let codes: BTreeSet<u8> = match class {
                ObjectClass::Car => [ObjectClass::Car, ObjectClass::Suv]
                    .iter()
                    .map(|c| c.code() as u8)
                    .collect(),
                other => std::iter::once(other.code() as u8).collect(),
            };
            intersect(&mut compiled.class_codes, codes, empty);
        }
        QueryPredicate::And(children) => {
            for child in children {
                fold(child, compiled, empty);
            }
        }
    }
}

/// Intersects an optional constraint set with a new one; an empty result
/// marks the whole predicate unsatisfiable.
fn intersect<T: Ord + Copy>(
    slot: &mut Option<BTreeSet<T>>,
    incoming: BTreeSet<T>,
    empty: &mut bool,
) {
    let merged = match slot.take() {
        None => incoming,
        Some(existing) => existing.intersection(&incoming).copied().collect(),
    };
    if merged.is_empty() {
        *empty = true;
    }
    *slot = Some(merged);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> QueryPlanner {
        QueryPlanner::new(LovoConfig::default())
    }

    #[test]
    fn unconstrained_spec_compiles_to_unfiltered_plan() {
        let plan = planner().plan(&QuerySpec::new("a red car"));
        assert!(!plan.is_filtered());
        assert!(!plan.provably_empty);
        assert!(plan.patch_predicate.is_unconstrained());
        assert_eq!(plan.fast_search_k, LovoConfig::default().fast_search_k);
        let stages: Vec<_> = plan.stages().iter().map(PlanStage::name).collect();
        assert_eq!(stages, ["encode", "coarse", "rerank", "aggregate"]);
        assert!(plan.describe().contains("coarse(k=400)"));
    }

    #[test]
    fn predicate_compiles_into_patch_predicate() {
        let spec = QuerySpec::new("a bus").with_predicate(
            QueryPredicate::videos([3, 1])
                .and(QueryPredicate::time_range(5.0, 9.0))
                .and(QueryPredicate::class(ObjectClass::Bus)),
        );
        let plan = planner().plan(&spec);
        assert!(plan.is_filtered());
        assert!(!plan.provably_empty);
        let pred = &plan.patch_predicate;
        assert_eq!(
            pred.video_ids
                .as_ref()
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(pred.time_range, Some((5.0, 9.0)));
        assert_eq!(
            pred.class_codes
                .as_ref()
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![ObjectClass::Bus.code() as u8]
        );
        let stages: Vec<_> = plan.stages().iter().map(PlanStage::name).collect();
        assert_eq!(stages, ["encode", "prune", "coarse", "rerank", "aggregate"]);
    }

    #[test]
    fn car_class_predicate_accepts_suv_code() {
        let plan = planner()
            .plan(&QuerySpec::new("a car").with_predicate(QueryPredicate::class(ObjectClass::Car)));
        let codes = plan.patch_predicate.class_codes.unwrap();
        assert!(codes.contains(&(ObjectClass::Car.code() as u8)));
        assert!(codes.contains(&(ObjectClass::Suv.code() as u8)));
    }

    #[test]
    fn conjunction_intersects_constraints() {
        let spec = QuerySpec::new("q").with_predicate(
            QueryPredicate::videos([1, 2, 3])
                .and(QueryPredicate::videos([2, 3, 4]))
                .and(QueryPredicate::time_range(0.0, 10.0))
                .and(QueryPredicate::time_range(5.0, 20.0)),
        );
        let plan = planner().plan(&spec);
        assert!(!plan.provably_empty);
        let pred = &plan.patch_predicate;
        assert_eq!(
            pred.video_ids
                .as_ref()
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(pred.time_range, Some((5.0, 10.0)));
    }

    #[test]
    fn unsatisfiable_predicates_are_provably_empty() {
        let planner = planner();
        let disjoint_videos = planner.plan(
            &QuerySpec::new("q")
                .with_predicate(QueryPredicate::videos([1]).and(QueryPredicate::videos([2]))),
        );
        assert!(disjoint_videos.provably_empty);

        let disjoint_time = planner.plan(&QuerySpec::new("q").with_predicate(
            QueryPredicate::time_range(0.0, 1.0).and(QueryPredicate::time_range(2.0, 3.0)),
        ));
        assert!(disjoint_time.provably_empty);

        let disjoint_class = planner.plan(&QuerySpec::new("q").with_predicate(
            QueryPredicate::class(ObjectClass::Bus).and(QueryPredicate::class(ObjectClass::Dog)),
        ));
        assert!(disjoint_class.provably_empty);

        let no_videos =
            planner.plan(&QuerySpec::new("q").with_predicate(QueryPredicate::videos([])));
        assert!(no_videos.provably_empty);
    }

    #[test]
    fn fingerprint_is_stable_and_normalizes_predicates() {
        let planner = planner();
        let base = planner.plan(&QuerySpec::new("a red car"));
        assert_eq!(base.fingerprint(), base.fingerprint());

        // Syntactically different predicates that flatten to the same
        // conjunction share a fingerprint.
        let folded = planner
            .plan(&QuerySpec::new("a red car").with_predicate(
                QueryPredicate::videos([1, 2]).and(QueryPredicate::videos([2, 3])),
            ));
        let direct =
            planner.plan(&QuerySpec::new("a red car").with_predicate(QueryPredicate::videos([2])));
        assert_eq!(folded.fingerprint(), direct.fingerprint());
        assert!(folded != direct && folded.same_answer(&direct));

        // Anything result-relevant separates fingerprints.
        let other_text = planner.plan(&QuerySpec::new("a blue car"));
        let other_k = planner.plan(&QuerySpec::new("a red car").with_k(10));
        let other_pred =
            planner.plan(&QuerySpec::new("a red car").with_predicate(QueryPredicate::videos([7])));
        assert_ne!(base.fingerprint(), other_text.fingerprint());
        assert_ne!(base.fingerprint(), other_k.fingerprint());
        assert_ne!(base.fingerprint(), other_pred.fingerprint());
        assert!(!base.same_answer(&other_k) && !base.same_answer(&other_pred));
    }

    #[test]
    fn spec_k_override_wins() {
        let plan = planner().plan(&QuerySpec::new("q").with_k(33));
        assert_eq!(plan.fast_search_k, 33);
        // k = 0 passes through: the historical no-candidates baseline.
        let plan = planner().plan(&QuerySpec::new("q").with_k(0));
        assert_eq!(plan.fast_search_k, 0);
    }
}
