//! Correctness checks that run on every measured op, and the quality oracle
//! (AveP against ground truth, recall against an exact twin engine).
//!
//! The checks need the *source* footage, which the engine never hands back:
//! a returned frame is looked up in the generated videos and its camera,
//! timestamp and object classes are tested against the plan's predicate.

use crate::generator::Plan;
use lovo_baselines::RankedHit;
use lovo_core::{Lovo, LovoConfig, LovoError, RankedObject};
use lovo_eval::{average_precision, GroundTruthIndex};
use lovo_index::IndexKind;
use lovo_video::{Frame, Video, VideoCollection};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Why an op counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The call returned `Err` (engine or service error).
    Error,
    /// The service refused the submission (`ServeError::Rejected`).
    Rejected,
    /// No frames came back although the footage holds positives in scope.
    EmptyWithPositives,
    /// A returned frame violates the plan's `QueryPredicate::accepts`.
    PredicateViolated,
    /// The answer differs from the direct `Lovo::query_spec` answer.
    DiffersFromDirect,
    /// A patch acknowledged before the restart is missing after `Lovo::open`.
    RowLost,
}

/// Failed ops of one run, by kind.
#[derive(Debug, Clone, Default)]
pub struct Failures {
    by_kind: BTreeMap<Failure, u64>,
}

impl Failures {
    pub fn add(&mut self, failure: Failure, count: u64) {
        if count > 0 {
            *self.by_kind.entry(failure).or_default() += count;
        }
    }

    pub fn record(&mut self, outcome: Result<(), Failure>) {
        if let Err(failure) = outcome {
            self.add(failure, 1);
        }
    }

    pub fn total(&self) -> u64 {
        self.by_kind.values().sum()
    }

    pub fn describe(&self) -> String {
        let kinds: Vec<String> = self
            .by_kind
            .iter()
            .map(|(failure, count)| format!("{failure:?}={count}"))
            .collect();
        kinds.join(" ")
    }
}

/// Checks answers against the generated footage.
pub struct AnswerCheck<'a> {
    videos: HashMap<u32, &'a Video>,
    /// Per plan: does the footage hold a positive inside the plan's scope?
    has_positives: Vec<bool>,
}

impl<'a> AnswerCheck<'a> {
    /// `videos` is every video the engine will ever hold during the run.
    pub fn new(videos: &'a VideoCollection, plans: &[Plan]) -> Self {
        let has_positives = plans
            .iter()
            .map(|plan| {
                videos.videos.iter().any(|video| {
                    video.frames.iter().any(|frame| {
                        frame.objects.iter().any(|object| {
                            plan.query.constraints.matches(&object.attributes)
                                && plan.spec.predicate.accepts(
                                    video.id,
                                    frame.timestamp,
                                    Some(object.attributes.class),
                                )
                        })
                    })
                })
            })
            .collect();
        Self {
            videos: videos.videos.iter().map(|v| (v.id, v)).collect(),
            has_positives,
        }
    }

    fn source_frame(&self, ranked: &RankedObject) -> Option<&'a Frame> {
        self.videos
            .get(&ranked.video_id)?
            .frames
            .get(ranked.frame_index as usize)
    }

    /// Checks one answer of plan `index`: not empty when positives exist, and
    /// every frame real, correctly stamped and inside the predicate. A class
    /// predicate holds when some object of the frame has an accepted class.
    pub fn check(&self, index: usize, plan: &Plan, frames: &[RankedObject]) -> Result<(), Failure> {
        if frames.is_empty() && self.has_positives.get(index).copied().unwrap_or(false) {
            return Err(Failure::EmptyWithPositives);
        }
        for ranked in frames {
            let Some(frame) = self.source_frame(ranked) else {
                return Err(Failure::PredicateViolated);
            };
            let accepted = frame
                .objects
                .iter()
                .map(|object| Some(object.attributes.class))
                .chain([None])
                .any(|class| {
                    plan.spec
                        .predicate
                        .accepts(ranked.video_id, frame.timestamp, class)
                });
            if !accepted || ranked.timestamp != frame.timestamp {
                return Err(Failure::PredicateViolated);
            }
        }
        Ok(())
    }
}

/// Mean AveP (Fig. 6) of the answers to unfiltered plans, each against the
/// ground truth of its text over `videos`.
pub fn mean_avep<'p>(
    videos: &VideoCollection,
    answers: impl Iterator<Item = (&'p Plan, Vec<RankedObject>)>,
) -> f64 {
    let scores: Vec<f64> = answers
        .map(|(plan, frames)| {
            let hits: Vec<RankedHit> = frames
                .iter()
                .map(|f| RankedHit {
                    video_id: f.video_id,
                    frame_index: f.frame_index,
                    bbox: f.bbox,
                    score: f.score,
                })
                .collect();
            let truth = GroundTruthIndex::build(videos, &plan.query);
            f64::from(average_precision(&hits, &truth))
        })
        .collect();
    scores.iter().sum::<f64>() / scores.len().max(1) as f64
}

/// An engine over the same footage with exhaustive (`BruteForce`) segments:
/// its coarse candidates are the exact top-k. May use every core — it is the
/// oracle, not the system under test.
pub fn exact_twin(videos: &VideoCollection, config: LovoConfig) -> Result<Lovo, LovoError> {
    Lovo::build(
        videos,
        config
            .with_index_kind(IndexKind::BruteForce)
            .with_ingest_workers(0),
    )
}

/// Mean recall (Table V) of the engine's coarse candidates against the
/// twin's, over every plan whose exact candidate set is not empty.
pub fn mean_recall_vs_exact(engine: &Lovo, twin: &Lovo, plans: &[Plan]) -> Result<f64, LovoError> {
    let mut recalls = Vec::new();
    for plan in plans {
        let (exact, _) = twin.coarse_plan(&twin.plan(&plan.spec), 0)?;
        if exact.is_empty() {
            continue;
        }
        let (found, _) = engine.coarse_plan(&engine.plan(&plan.spec), 0)?;
        let found: HashSet<u64> = found.iter().map(|hit| hit.patch_id).collect();
        let kept = exact
            .iter()
            .filter(|hit| found.contains(&hit.patch_id))
            .count();
        recalls.push(kept as f64 / exact.len() as f64);
    }
    Ok(recalls.iter().sum::<f64>() / recalls.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, Workload};
    use lovo_video::{BoundingBox, QueryPredicate};

    fn ranked(video: &Video, frame: usize) -> RankedObject {
        RankedObject {
            video_id: video.id,
            frame_index: frame as u32,
            timestamp: video.frames[frame].timestamp,
            score: 0.5,
            bbox: BoundingBox::new(0.0, 0.0, 10.0, 10.0),
        }
    }

    #[test]
    fn a_wrong_predicate_answer_is_a_failed_op() {
        let run = generate(Workload::AdhocRerank, 1, 1, true);
        let (camera_0, camera_1) = (&run.corpus.videos[0], &run.corpus.videos[1]);
        let mut plan = run.plans[0].clone();
        plan.spec.predicate = QueryPredicate::videos([camera_0.id]);
        let check = AnswerCheck::new(&run.corpus, std::slice::from_ref(&plan));

        let mut failures = Failures::default();
        // In scope: accepted.
        failures.record(check.check(0, &plan, &[ranked(camera_0, 3)]));
        assert_eq!(failures.total(), 0);
        // A frame of the other camera: one failed op.
        failures.record(check.check(0, &plan, &[ranked(camera_0, 3), ranked(camera_1, 3)]));
        assert_eq!(failures.total(), 1);
        // A frame outside the time window, a frame that does not exist, and a
        // frame whose timestamp is not the footage's: each a failed op.
        plan.spec.predicate = QueryPredicate::time_range(0.0, 0.1);
        failures.record(check.check(0, &plan, &[ranked(camera_0, 30)]));
        plan.spec.predicate = QueryPredicate::Any;
        let mut ghost = ranked(camera_0, 3);
        ghost.frame_index = 1_000_000;
        failures.record(check.check(0, &plan, &[ghost]));
        let mut shifted = ranked(camera_0, 3);
        shifted.timestamp += 1.0;
        failures.record(check.check(0, &plan, &[shifted]));
        assert_eq!(failures.total(), 4);
        assert_eq!(failures.describe(), "PredicateViolated=4");
    }

    #[test]
    fn an_empty_answer_fails_only_when_positives_exist() {
        let run = generate(Workload::AdhocRerank, 1, 1, true);
        let mut nowhere = run.plans[0].clone();
        nowhere.spec.predicate = QueryPredicate::videos([999]);
        let plans = [run.plans[0].clone(), nowhere];
        let check = AnswerCheck::new(&run.corpus, &plans);
        assert_eq!(
            check.check(0, &plans[0], &[]),
            Err(Failure::EmptyWithPositives)
        );
        assert_eq!(check.check(1, &plans[1], &[]), Ok(()));
    }

    #[test]
    fn failures_count_by_kind() {
        let mut failures = Failures::default();
        failures.add(Failure::Error, 2);
        failures.record(Err(Failure::Error));
        failures.record(Ok(()));
        failures.add(Failure::RowLost, 5);
        failures.add(Failure::Rejected, 0);
        assert_eq!(failures.total(), 8);
        assert_eq!(failures.describe(), "Error=3 RowLost=5");
    }
}
