//! Key-frame extraction (§IV-A).
//!
//! The paper represents each video by a sequence of key frames chosen with a
//! combination of a temporal strategy (fixed sampling interval / scene
//! changes) and a content strategy (frames with notable motion-vector change,
//! detected by the MVmed compressed-domain tracker). This module implements
//! both strategies over the synthetic [`MotionField`]s and exposes them behind
//! a single [`KeyframeExtractor`], which is the component the ablation
//! "w/o Key frame" (Table IV) switches off by selecting [`KeyframePolicy::AllFrames`].
//!
//! The motion-adaptive policy estimates one field per frame and compares it
//! with the previous one. Its fields come from one `FieldBuilder` per video,
//! so the codec-noise terms are a window over phases that slides 7 phases per
//! consecutive frame and object coverage is rasterised per object (see
//! [`crate::motion`]); the two fields it compares are buffers swapped from
//! frame to frame. The selection equals that of the per-block estimator kept
//! as the `#[cfg(test)]` reference, and the key-frame golden in
//! `tests/keyframe_golden.rs` pins it.

// Ingest: key-frame selection runs inside every `add_videos`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::motion::{FieldBuilder, MotionEstimator, MotionField};
use crate::scene::Frame;
use serde::{Deserialize, Serialize};

/// Which strategy the extractor uses to nominate key frames.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeyframePolicy {
    /// MVmed-style: a frame is a key frame when the aggregate motion-vector
    /// change since the previous frame exceeds `motion_threshold`, or when
    /// `max_gap` frames have passed since the last key frame (temporal
    /// fallback so static stretches are still summarized).
    MotionAdaptive {
        /// Motion-change threshold that triggers a key frame.
        motion_threshold: f32,
        /// Maximum number of frames between key frames.
        max_gap: usize,
    },
    /// Plain fixed-interval sampling every `interval` frames.
    FixedInterval {
        /// Sampling period in frames.
        interval: usize,
    },
    /// Every frame is a key frame (the "w/o Key frame" ablation).
    AllFrames,
}

impl Default for KeyframePolicy {
    fn default() -> Self {
        KeyframePolicy::MotionAdaptive {
            motion_threshold: 2.0,
            max_gap: 30,
        }
    }
}

/// Extracts key frames from a sequence of frames.
#[derive(Debug, Clone, Default)]
pub struct KeyframeExtractor {
    /// Selection policy.
    pub policy: KeyframePolicy,
    /// Motion estimator used by the motion-adaptive policy.
    pub estimator: MotionEstimator,
}

impl KeyframeExtractor {
    /// Creates an extractor with the given policy and default block size.
    pub fn new(policy: KeyframePolicy) -> Self {
        Self {
            policy,
            estimator: MotionEstimator::default(),
        }
    }

    /// Returns the indices (into `frames`) of the selected key frames.
    ///
    /// The first frame of a non-empty video is always a key frame: something
    /// must summarize the opening content.
    pub fn select_indices(&self, frames: &[Frame]) -> Vec<usize> {
        if frames.is_empty() {
            return Vec::new();
        }
        match self.policy {
            KeyframePolicy::AllFrames => (0..frames.len()).collect(),
            KeyframePolicy::FixedInterval { interval } => {
                let step = interval.max(1);
                (0..frames.len()).step_by(step).collect()
            }
            KeyframePolicy::MotionAdaptive {
                motion_threshold,
                max_gap,
            } => self.select_motion_adaptive(frames, motion_threshold, max_gap.max(1)),
        }
    }

    fn select_motion_adaptive(
        &self,
        frames: &[Frame],
        threshold: f32,
        max_gap: usize,
    ) -> Vec<usize> {
        let mut selected = vec![0];
        let mut builder = FieldBuilder::new(&self.estimator);
        let mut previous = MotionField::empty();
        let mut current = MotionField::empty();
        let mut frames = frames.iter().enumerate();
        if let Some((_, first)) = frames.next() {
            builder.estimate_into(first, &mut previous);
        }
        let mut last_selected = 0usize;
        for (i, frame) in frames {
            builder.estimate_into(frame, &mut current);
            let change = self.estimator.motion_change(&previous, &current);
            let gap_exceeded = i - last_selected >= max_gap;
            if change > threshold || gap_exceeded {
                selected.push(i);
                last_selected = i;
            }
            std::mem::swap(&mut previous, &mut current);
        }
        selected
    }

    /// Convenience wrapper returning references to the key frames rather
    /// than their indices.
    pub fn select<'a>(&self, frames: &'a [Frame]) -> Vec<&'a Frame> {
        self.select_indices(frames)
            .into_iter()
            .map(|i| &frames[i])
            .collect()
    }

    /// Ratio of key frames to total frames (1.0 when every frame is kept).
    pub fn compression_ratio(&self, frames: &[Frame]) -> f32 {
        if frames.is_empty() {
            return 0.0;
        }
        self.select_indices(frames).len() as f32 / frames.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BoundingBox;
    use crate::motion::tests::{field_bits, reference_estimate};
    use crate::object::{ObjectAttributes, ObjectClass};
    use crate::scene::{SceneObject, TrackId};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The body `select_motion_adaptive` had before the field builder: a
    /// fresh per-block field for every frame, the previous one in an
    /// `Option`.
    fn reference_select(
        est: &MotionEstimator,
        frames: &[Frame],
        threshold: f32,
        max_gap: usize,
    ) -> Vec<usize> {
        if frames.is_empty() {
            return Vec::new();
        }
        let mut selected = vec![0];
        let mut previous_field: Option<MotionField> = None;
        let mut last_selected = 0usize;
        for (i, frame) in frames.iter().enumerate() {
            let field = reference_estimate(est, frame);
            if i == 0 {
                previous_field = Some(field);
                continue;
            }
            let change = previous_field
                .as_ref()
                .map(|prev| est.motion_change(prev, &field))
                .unwrap_or(0.0);
            let gap_exceeded = i - last_selected >= max_gap;
            if change > threshold || gap_exceeded {
                selected.push(i);
                last_selected = i;
            }
            previous_field = Some(field);
        }
        selected
    }

    /// A generated video for the equality property: block size 1/7/16/33 over
    /// frame sizes that are rarely multiples of it; 0–8 objects with boxes
    /// partly or wholly outside the frame, of zero area, and exact copies of
    /// another object's box under an equal or a distinct track; optional
    /// camera motion; frame indices consecutive, skipping, decreasing or
    /// jumping, offset by up to 3·10⁶ (phases past 2²⁴, where `as f32`
    /// rounds); and sometimes a resolution change mid-video.
    fn generated_video(seed: u64) -> (MotionEstimator, Vec<Frame>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = [1u32, 7, 16, 33][rng.gen_range(0..4usize)];
        let size = |rng: &mut SmallRng| {
            (
                rng.gen_range(1..block * 10 + 24),
                rng.gen_range(1..block * 7 + 18),
            )
        };
        let (mut width, mut height) = size(&mut rng);
        let (new_width, new_height) = size(&mut rng);
        let n_frames = rng.gen_range(1..10usize);
        let resize_at = if rng.gen_range(0..4u8) == 0 {
            rng.gen_range(0..n_frames)
        } else {
            usize::MAX
        };
        let coordinate = |rng: &mut SmallRng, extent: u32| {
            let extent = extent as f32;
            let v = rng.gen_range(-0.6 * extent..1.4 * extent);
            if rng.gen_range(0..2u8) == 0 {
                v.round()
            } else {
                v
            }
        };
        let mut objects: Vec<SceneObject> = Vec::new();
        for _ in 0..rng.gen_range(0..9usize) {
            let copy = rng.gen_range(0..3u8) == 0;
            let bbox = match objects.last() {
                Some(previous) if copy => previous.bbox,
                _ => {
                    let zero_area = rng.gen_range(0..6u8) == 0;
                    let w = if zero_area {
                        0.0
                    } else {
                        coordinate(&mut rng, width).abs()
                    };
                    BoundingBox::new(
                        coordinate(&mut rng, width),
                        coordinate(&mut rng, height),
                        w,
                        coordinate(&mut rng, height).abs(),
                    )
                }
            };
            objects.push(SceneObject {
                track: TrackId(rng.gen_range(0..4u64)),
                attributes: ObjectAttributes::simple(ObjectClass::Car),
                bbox,
                velocity: (rng.gen_range(-9.0..9.0f32), rng.gen_range(-9.0..9.0f32)),
            });
        }
        let camera = if rng.gen_range(0..2u8) == 0 {
            None
        } else {
            Some((rng.gen_range(-6.0..6.0f32), rng.gen_range(-6.0..6.0f32)))
        };
        let offset = [0usize, 1_000_000, 3_000_000][rng.gen_range(0..3usize)];
        let stepping = rng.gen_range(0..4u8);
        let mut index = offset + 40;
        let mut frames = Vec::with_capacity(n_frames);
        for f in 0..n_frames {
            if f == resize_at {
                (width, height) = (new_width, new_height);
            }
            let mut frame = Frame::empty(index, f as f64 / 30.0, width, height);
            if let Some(camera) = camera {
                frame.camera_motion = (camera.0 + f as f32 * 0.5, camera.1);
            }
            for object in &objects {
                if rng.gen_range(0..8u8) == 0 {
                    continue; // out of view for this frame
                }
                let mut object = object.clone();
                object.bbox = object
                    .bbox
                    .translated(object.velocity.0 * f as f32, object.velocity.1 * f as f32);
                frame.objects.push(object);
            }
            frames.push(frame);
            index = match stepping {
                0 => index + 1,
                1 => index + rng.gen_range(1..5usize),
                2 => index - rng.gen_range(1..4usize),
                _ => offset + rng.gen_range(0..10_000usize),
            };
        }
        (MotionEstimator::new(block), frames)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn selection_and_fields_equal_the_per_block_reference(
            seed in 0u64..u64::MAX,
            threshold_pick in 0u8..3,
            random_threshold in 0.0f32..6.0,
            gap_pick in 0u8..3,
            random_gap in 1usize..8,
        ) {
            let (estimator, frames) = generated_video(seed);
            let threshold = [0.0, f32::INFINITY, random_threshold][threshold_pick as usize];
            let max_gap = [1, random_gap, 1000][gap_pick as usize];
            let extractor = KeyframeExtractor {
                policy: KeyframePolicy::MotionAdaptive {
                    motion_threshold: threshold,
                    max_gap,
                },
                estimator: estimator.clone(),
            };
            prop_assert_eq!(
                extractor.select_indices(&frames),
                reference_select(&estimator, &frames, threshold, max_gap),
                "seed {}", seed
            );
            let mut builder = FieldBuilder::new(&estimator);
            let mut field = MotionField::empty();
            for (i, frame) in frames.iter().enumerate() {
                builder.estimate_into(frame, &mut field);
                prop_assert_eq!(
                    field_bits(&field),
                    field_bits(&reference_estimate(&estimator, frame)),
                    "seed {} frame {}", seed, i
                );
            }
        }
    }

    #[test]
    fn zero_block_size_selects_like_block_size_one() {
        // `block_size` is a public field: a zero reaches the estimator without
        // passing through `MotionEstimator::new`'s clamp.
        let policy = KeyframePolicy::MotionAdaptive {
            motion_threshold: 0.3,
            max_gap: 20,
        };
        let zero = KeyframeExtractor {
            policy,
            estimator: MotionEstimator {
                block_size: 0,
                noise: 0.05,
            },
        };
        let one = KeyframeExtractor {
            policy,
            estimator: MotionEstimator::new(1),
        };
        let frames: Vec<Frame> = video_with_burst(40, 12)
            .into_iter()
            .map(|mut f| {
                f.width = 160;
                f.height = 90;
                f
            })
            .collect();
        let selected = zero.select_indices(&frames);
        assert_eq!(selected, one.select_indices(&frames));
        assert_eq!(selected[0], 0);
    }

    /// Builds a video where a car enters at frame `burst_at` and accelerates.
    fn video_with_burst(n: usize, burst_at: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = Frame::empty(i, i as f64 / 30.0, 640, 360);
                if i >= burst_at {
                    f.objects.push(SceneObject {
                        track: TrackId(1),
                        attributes: ObjectAttributes::simple(ObjectClass::Car),
                        bbox: BoundingBox::new(50.0 + i as f32 * 10.0, 150.0, 200.0, 100.0),
                        velocity: (10.0, 0.0),
                    });
                }
                f
            })
            .collect()
    }

    #[test]
    fn empty_video_selects_nothing() {
        let ex = KeyframeExtractor::default();
        assert!(ex.select_indices(&[]).is_empty());
    }

    #[test]
    fn first_frame_always_selected() {
        let ex = KeyframeExtractor::default();
        let frames = video_with_burst(10, 100);
        assert_eq!(ex.select_indices(&frames)[0], 0);
    }

    #[test]
    fn all_frames_policy_keeps_everything() {
        let ex = KeyframeExtractor::new(KeyframePolicy::AllFrames);
        let frames = video_with_burst(25, 5);
        assert_eq!(ex.select_indices(&frames).len(), 25);
        assert_eq!(ex.compression_ratio(&frames), 1.0);
    }

    #[test]
    fn fixed_interval_samples_periodically() {
        let ex = KeyframeExtractor::new(KeyframePolicy::FixedInterval { interval: 10 });
        let frames = video_with_burst(35, 100);
        assert_eq!(ex.select_indices(&frames), vec![0, 10, 20, 30]);
    }

    #[test]
    fn motion_burst_triggers_keyframe() {
        let ex = KeyframeExtractor::new(KeyframePolicy::MotionAdaptive {
            motion_threshold: 0.3,
            max_gap: 1000,
        });
        let frames = video_with_burst(60, 30);
        let selected = ex.select_indices(&frames);
        // Static prefix should not generate key frames beyond frame 0, while
        // the burst at frame 30 must be picked up within a couple of frames.
        assert!(
            selected.iter().any(|&i| (30..=32).contains(&i)),
            "burst not detected: {selected:?}"
        );
        assert!(
            selected.iter().filter(|&&i| i > 0 && i < 29).count() == 0,
            "static prefix produced key frames: {selected:?}"
        );
    }

    #[test]
    fn max_gap_fallback_covers_static_video() {
        let ex = KeyframeExtractor::new(KeyframePolicy::MotionAdaptive {
            motion_threshold: 100.0,
            max_gap: 10,
        });
        let frames = video_with_burst(45, 1000);
        let selected = ex.select_indices(&frames);
        assert_eq!(selected, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn keyframes_reduce_volume_on_mostly_static_video() {
        let ex = KeyframeExtractor::default();
        let frames = video_with_burst(120, 100);
        let ratio = ex.compression_ratio(&frames);
        assert!(ratio < 0.5, "expected compression, got ratio {ratio}");
    }
}
