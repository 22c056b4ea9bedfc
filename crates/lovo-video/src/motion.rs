//! Synthetic motion-vector fields.
//!
//! MVmed (the key-frame / tracking algorithm the paper adopts in §IV-A) works
//! in the compressed domain: it reads the motion vectors the video codec
//! already computed and propagates detections along them, flagging frames with
//! large aggregate motion-vector change as scene changes or high-activity
//! moments. Real compressed bitstreams are not available here, so this module
//! synthesizes a plausible block-level motion-vector field directly from the
//! ground-truth kinematics: blocks covered by a moving object inherit its
//! velocity, all blocks inherit the camera motion, and a small deterministic
//! jitter models codec noise.
//!
//! # Each term at the level it depends on
//!
//! Block `(bx, by)` of frame `index` gets `camera + velocity of the object
//! dominating the block + noise(bx·31 + by·17 + index·7)`. A `FieldBuilder`
//! walks one video's frames in order and computes each term once per the
//! thing it depends on, instead of once per block:
//!
//! * **Noise window.** The jitter depends only on the integer phase. The
//!   builder keeps the terms of the `31·(blocks_x−1) + 17·(blocks_y−1) + 1`
//!   consecutive phases a frame uses, starting at its base `index·7`. The next
//!   frame's window starts 7 phases later and shares all but 7 terms, so a
//!   consecutive frame costs 7 `sin`/`cos` pairs instead of one per block; a
//!   jump in frame index (or a geometry whose span differs) refills the window
//!   whole. The window holds fewer entries than the frame has blocks, however
//!   long the video.
//! * **Rasterised coverage.** Each object visits only the blocks its box can
//!   touch: per axis, the first and last block whose overlap with the box —
//!   the one-axis half of [`BoundingBox::intersection_area`], evaluated at the
//!   block's own coordinates — is positive. A block outside that rectangle has
//!   zero coverage on one axis, hence zero coverage. Inside it, coverage is
//!   [`BoundingBox::coverage_by`] itself, and an object claims the block when
//!   it covers more than the current claim, or as much with a lower `track`.
//!   Objects are visited in `frame.objects` order, so equal coverage and track
//!   keep the earliest: exactly the first element of the stable sort in
//!   [`Frame::objects_in_region`].
//! * **Reused buffers.** The claims and the window live in the builder, and
//!   the key-frame extractor swaps two fields instead of allocating one per
//!   frame.
//!
//! Every value is produced by the same float expression as the per-block
//! form, summed in the same order (camera, then velocity, then noise), so the
//! fields are bit-identical to it. That form survives as the `#[cfg(test)]`
//! reference the property tests compare against.

// Ingest: motion fields feed the key-frame selection inside every
// `add_videos`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::bbox::BoundingBox;
use crate::scene::{Frame, SceneObject, TrackId};
use serde::{Deserialize, Serialize};

/// Noise phase step per block column.
const PHASE_X: usize = 31;
/// Noise phase step per block row.
const PHASE_Y: usize = 17;
/// Noise phase step per frame index.
const PHASE_T: usize = 7;

/// A block-level motion-vector field, as a codec would expose it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MotionField {
    /// Number of macro-block columns.
    pub blocks_x: usize,
    /// Number of macro-block rows.
    pub blocks_y: usize,
    /// Motion vector per block, row-major, in pixels/frame.
    pub vectors: Vec<(f32, f32)>,
}

impl MotionField {
    /// A field with no blocks (the starting state of a reused buffer).
    pub(crate) fn empty() -> Self {
        Self {
            blocks_x: 0,
            blocks_y: 0,
            vectors: Vec::new(),
        }
    }

    /// Mean motion magnitude over all blocks (pixels/frame).
    pub fn mean_magnitude(&self) -> f32 {
        if self.vectors.is_empty() {
            return 0.0;
        }
        self.vectors
            .iter()
            .map(|(dx, dy)| (dx * dx + dy * dy).sqrt())
            .sum::<f32>()
            / self.vectors.len() as f32
    }

    /// Fraction of blocks whose motion magnitude exceeds `threshold`.
    pub fn active_fraction(&self, threshold: f32) -> f32 {
        if self.vectors.is_empty() {
            return 0.0;
        }
        let active = self
            .vectors
            .iter()
            .filter(|(dx, dy)| (dx * dx + dy * dy).sqrt() > threshold)
            .count();
        active as f32 / self.vectors.len() as f32
    }
}

/// Synthesizes motion-vector fields from ground-truth frames.
#[derive(Debug, Clone)]
pub struct MotionEstimator {
    /// Macro-block size in pixels (16 matches H.264/H.265 defaults). Zero is
    /// treated as 1, as in [`MotionEstimator::new`].
    pub block_size: u32,
    /// Amplitude of the deterministic codec-noise jitter in pixels/frame.
    pub noise: f32,
}

impl Default for MotionEstimator {
    fn default() -> Self {
        Self {
            block_size: 16,
            noise: 0.05,
        }
    }
}

impl MotionEstimator {
    /// Creates an estimator with the given macro-block size.
    pub fn new(block_size: u32) -> Self {
        Self {
            block_size: block_size.max(1),
            noise: 0.05,
        }
    }

    /// Computes the motion field of a frame from its camera motion and the
    /// velocities of the objects covering each block.
    ///
    /// This is one frame through a fresh field builder; the key-frame
    /// extractor keeps one builder per video, reusing its noise window and
    /// buffers from frame to frame (see the module docs).
    pub fn estimate(&self, frame: &Frame) -> MotionField {
        let mut field = MotionField::empty();
        FieldBuilder::new(self).estimate_into(frame, &mut field);
        field
    }

    /// Aggregate motion change between two consecutive frames: the mean
    /// per-block motion-vector delta over the blocks that are moving in either
    /// frame, after compensating each field for global (camera) motion. This
    /// is the statistic the key-frame extractor thresholds.
    ///
    /// Comparing *per-block* vectors rather than whole-field summary numbers
    /// is what lets the extractor see scene events: an object entering,
    /// leaving, or changing speed flips the vectors of the blocks it covers,
    /// which a difference of mean magnitudes cancels out in steady traffic.
    /// Global-motion compensation keeps a panning camera from counting every
    /// block as an event.
    pub fn motion_change(&self, previous: &MotionField, current: &MotionField) -> f32 {
        const ACTIVE_MAGNITUDE: f32 = 1.0;
        if previous.vectors.len() != current.vectors.len() {
            // Differently-sized fields (e.g. a resolution change) are by
            // definition a scene change.
            return f32::MAX;
        }
        let prev_mean = mean_vector(&previous.vectors);
        let cur_mean = mean_vector(&current.vectors);
        let mut delta_sum = 0.0f32;
        let mut active_either = 0usize;
        for (&(px, py), &(cx, cy)) in previous.vectors.iter().zip(&current.vectors) {
            let (px, py) = (px - prev_mean.0, py - prev_mean.1);
            let (cx, cy) = (cx - cur_mean.0, cy - cur_mean.1);
            let prev_active = px * px + py * py > ACTIVE_MAGNITUDE * ACTIVE_MAGNITUDE;
            let cur_active = cx * cx + cy * cy > ACTIVE_MAGNITUDE * ACTIVE_MAGNITUDE;
            if prev_active || cur_active {
                active_either += 1;
                let (dx, dy) = (cx - px, cy - py);
                delta_sum += (dx * dx + dy * dy).sqrt();
            }
        }
        if active_either == 0 {
            0.0
        } else {
            delta_sum / active_either as f32
        }
    }
}

/// Builds the motion fields of one video's frames in sequence, carrying the
/// noise window and the coverage raster from frame to frame (see the module
/// docs). It lives for one pass over one video; nothing outlives it.
#[derive(Debug)]
pub(crate) struct FieldBuilder<'a> {
    estimator: &'a MotionEstimator,
    noise: NoiseWindow,
    /// Per block, row-major: the object dominating it so far.
    claims: Vec<Option<Claim>>,
}

/// The object currently dominating a block, with what decides a contest.
#[derive(Debug, Clone, Copy)]
struct Claim {
    coverage: f32,
    track: TrackId,
    velocity: (f32, f32),
}

impl<'a> FieldBuilder<'a> {
    /// A builder with an empty window.
    pub(crate) fn new(estimator: &'a MotionEstimator) -> Self {
        Self {
            estimator,
            noise: NoiseWindow::default(),
            claims: Vec::new(),
        }
    }

    /// Overwrites `field` with the motion field of `frame` — bit-identical to
    /// [`MotionEstimator::estimate`], whatever frames came before.
    pub(crate) fn estimate_into(&mut self, frame: &Frame, field: &mut MotionField) {
        let block = self.estimator.block_size.max(1);
        let bs = block as f32;
        let blocks_x = (frame.width as usize).div_ceil(block as usize);
        let blocks_y = (frame.height as usize).div_ceil(block as usize);
        field.blocks_x = blocks_x;
        field.blocks_y = blocks_y;
        field.vectors.clear();
        if blocks_x == 0 || blocks_y == 0 {
            return;
        }

        self.claims.clear();
        self.claims.resize(blocks_x * blocks_y, None);
        for object in &frame.objects {
            claim_blocks(&mut self.claims, object, bs, blocks_x, blocks_y);
        }

        let span = PHASE_X * (blocks_x - 1) + PHASE_Y * (blocks_y - 1) + 1;
        let base = frame.index.wrapping_mul(PHASE_T);
        let noise = self.noise.slide(self.estimator.noise, base, span);
        field.vectors.reserve(blocks_x * blocks_y);
        for (by, row) in self.claims.chunks_exact(blocks_x).enumerate() {
            // Block (bx, by) reads window entry by·17 + bx·31.
            let row_noise = noise.get(by * PHASE_Y..).unwrap_or_default();
            let row_noise = row_noise.iter().step_by(PHASE_X);
            field
                .vectors
                .extend(row.iter().zip(row_noise).map(|(claim, &(nx, ny))| {
                    let mut v = frame.camera_motion;
                    if let Some(claim) = claim {
                        v.0 += claim.velocity.0;
                        v.1 += claim.velocity.1;
                    }
                    v.0 += nx;
                    v.1 += ny;
                    v
                }));
        }
        debug_assert_eq!(field.vectors.len(), blocks_x * blocks_y);
    }
}

/// Offers `object` every block its box can touch, claiming those where it
/// beats the current claim.
fn claim_blocks(
    claims: &mut [Option<Claim>],
    object: &SceneObject,
    bs: f32,
    blocks_x: usize,
    blocks_y: usize,
) {
    let bbox = &object.bbox;
    let Some((x0, x1)) = touched_blocks(bbox.x, bbox.right(), bs, blocks_x) else {
        return;
    };
    let Some((y0, y1)) = touched_blocks(bbox.y, bbox.bottom(), bs, blocks_y) else {
        return;
    };
    let rows = claims.chunks_exact_mut(blocks_x).enumerate();
    for (by, row) in rows.take(y1 + 1).skip(y0) {
        for (bx, slot) in row.iter_mut().enumerate().take(x1 + 1).skip(x0) {
            let region = BoundingBox::new(bx as f32 * bs, by as f32 * bs, bs, bs);
            let coverage = region.coverage_by(bbox);
            let wins = coverage > 0.0
                && slot.map_or(true, |current| {
                    coverage > current.coverage
                        || (coverage == current.coverage && object.track < current.track)
                });
            if wins {
                *slot = Some(Claim {
                    coverage,
                    track: object.track,
                    velocity: object.velocity,
                });
            }
        }
    }
}

/// First and last of `blocks` blocks of size `bs` along one axis that the
/// interval `[start, end)` overlaps by a positive length, if any, with the
/// one-axis expression of [`BoundingBox::intersection_area`]. A block outside
/// the returned range has zero overlap on this axis and so zero coverage.
fn touched_blocks(start: f32, end: f32, bs: f32, blocks: usize) -> Option<(usize, usize)> {
    let overlaps = |i: usize| {
        let lo = i as f32 * bs;
        (lo + bs).min(end) - lo.max(start) > 0.0
    };
    let first = (0..blocks).find(|&i| overlaps(i))?;
    let last = (first..blocks).rev().find(|&i| overlaps(i))?;
    Some((first, last))
}

/// The noise terms of a run of consecutive phases, starting at the current
/// frame's base phase.
#[derive(Debug, Default)]
struct NoiseWindow {
    /// Phase of `terms[0]`.
    base: usize,
    /// Terms of phases `base..base + terms.len()`.
    terms: Vec<(f32, f32)>,
}

impl NoiseWindow {
    /// Moves the window to phases `base..base + len` and returns their terms.
    /// Terms already in the window are kept; only the new phases are
    /// evaluated, unless the window moved backwards or by its whole length.
    fn slide(&mut self, amplitude: f32, base: usize, len: usize) -> &[(f32, f32)] {
        let shift = base.wrapping_sub(self.base);
        if self.terms.len() == len && shift < len {
            self.terms.copy_within(shift.., 0);
            for (j, term) in self.terms.iter_mut().enumerate().skip(len - shift) {
                *term = noise_term(amplitude, base.wrapping_add(j));
            }
        } else {
            self.terms.clear();
            self.terms
                .extend((0..len).map(|j| noise_term(amplitude, base.wrapping_add(j))));
        }
        self.base = base;
        &self.terms
    }
}

/// Deterministic pseudo-noise of one phase, so fields are reproducible
/// without threading an RNG through.
fn noise_term(amplitude: f32, phase: usize) -> (f32, f32) {
    let phase = phase as f32;
    (
        amplitude * (phase * 0.7).sin(),
        amplitude * (phase * 1.3).cos(),
    )
}

/// Mean motion vector of a field (the global / camera component).
fn mean_vector(vectors: &[(f32, f32)]) -> (f32, f32) {
    if vectors.is_empty() {
        return (0.0, 0.0);
    }
    let (sx, sy) = vectors
        .iter()
        .fold((0.0f32, 0.0f32), |(sx, sy), &(x, y)| (sx + x, sy + y));
    (sx / vectors.len() as f32, sy / vectors.len() as f32)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::object::{ObjectAttributes, ObjectClass};
    use crate::scene::{SceneObject, TrackId};

    /// The per-block body `estimate` had before the noise window and the
    /// coverage raster: every block builds its region, sorts the objects
    /// overlapping it through [`Frame::objects_in_region`] and evaluates its
    /// own `sin`/`cos`. The builder must match it bit for bit.
    pub(crate) fn reference_estimate(est: &MotionEstimator, frame: &Frame) -> MotionField {
        let bs = est.block_size as f32;
        let blocks_x = (frame.width as usize).div_ceil(est.block_size as usize);
        let blocks_y = (frame.height as usize).div_ceil(est.block_size as usize);
        let mut vectors = Vec::with_capacity(blocks_x * blocks_y);
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let region = BoundingBox::new(bx as f32 * bs, by as f32 * bs, bs, bs);
                let mut v = frame.camera_motion;
                if let Some((obj, _)) = frame.objects_in_region(&region).first() {
                    v.0 += obj.velocity.0;
                    v.1 += obj.velocity.1;
                }
                let phase = (bx * 31 + by * 17 + frame.index * 7) as f32;
                v.0 += est.noise * (phase * 0.7).sin();
                v.1 += est.noise * (phase * 1.3).cos();
                vectors.push(v);
            }
        }
        MotionField {
            blocks_x,
            blocks_y,
            vectors,
        }
    }

    /// Field equality on the bits of every component (`==` would let
    /// `0.0 == -0.0` through).
    pub(crate) fn field_bits(field: &MotionField) -> (usize, usize, Vec<(u32, u32)>) {
        (
            field.blocks_x,
            field.blocks_y,
            field
                .vectors
                .iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect(),
        )
    }

    fn frame_with_moving_object(index: usize, speed: f32) -> Frame {
        let mut f = Frame::empty(index, index as f64 / 30.0, 640, 360);
        f.objects.push(SceneObject {
            track: TrackId(0),
            attributes: ObjectAttributes::simple(ObjectClass::Car),
            bbox: BoundingBox::new(100.0, 100.0, 200.0, 120.0),
            velocity: (speed, 0.0),
        });
        f
    }

    #[test]
    fn field_dimensions_cover_frame() {
        let est = MotionEstimator::new(16);
        let field = est.estimate(&Frame::empty(0, 0.0, 640, 360));
        assert_eq!(field.blocks_x, 40);
        assert_eq!(field.blocks_y, 23); // ceil(360/16)
        assert_eq!(field.vectors.len(), 40 * 23);
    }

    #[test]
    fn static_frame_has_near_zero_motion() {
        let est = MotionEstimator::new(16);
        let field = est.estimate(&Frame::empty(0, 0.0, 640, 360));
        assert!(field.mean_magnitude() < 0.2);
        assert_eq!(field.active_fraction(1.0), 0.0);
    }

    #[test]
    fn moving_object_raises_motion() {
        let est = MotionEstimator::new(16);
        let still = est.estimate(&frame_with_moving_object(0, 0.0));
        let moving = est.estimate(&frame_with_moving_object(0, 12.0));
        assert!(moving.mean_magnitude() > still.mean_magnitude());
        assert!(moving.active_fraction(1.0) > 0.0);
    }

    #[test]
    fn camera_motion_affects_all_blocks() {
        let est = MotionEstimator::new(16);
        let mut f = Frame::empty(0, 0.0, 320, 160);
        f.camera_motion = (8.0, 0.0);
        let field = est.estimate(&f);
        assert!(field.active_fraction(1.0) > 0.99);
    }

    #[test]
    fn motion_change_detects_speed_jump() {
        let est = MotionEstimator::new(16);
        let a = est.estimate(&frame_with_moving_object(0, 2.0));
        let b = est.estimate(&frame_with_moving_object(1, 2.0));
        let c = est.estimate(&frame_with_moving_object(2, 20.0));
        assert!(est.motion_change(&a, &b) < est.motion_change(&b, &c));
    }

    #[test]
    fn estimator_is_deterministic() {
        let est = MotionEstimator::default();
        let f = frame_with_moving_object(3, 6.0);
        assert_eq!(est.estimate(&f), est.estimate(&f));
    }

    #[test]
    fn zero_block_size_is_treated_as_one() {
        let zero = MotionEstimator {
            block_size: 0,
            noise: 0.05,
        };
        let f = frame_with_moving_object(2, 5.0);
        let field = zero.estimate(&f);
        assert_eq!((field.blocks_x, field.blocks_y), (640, 360));
        assert_eq!(field, MotionEstimator::new(1).estimate(&f));
    }

    #[test]
    fn zero_sized_frame_has_an_empty_field() {
        let est = MotionEstimator::default();
        for (w, h) in [(0, 0), (0, 360), (640, 0)] {
            let field = est.estimate(&Frame::empty(5, 0.0, w, h));
            assert_eq!(field, reference_estimate(&est, &Frame::empty(5, 0.0, w, h)));
            assert!(field.vectors.is_empty());
        }
    }

    #[test]
    fn coverage_ties_go_to_the_lower_track_then_the_earlier_object() {
        let est = MotionEstimator::new(16);
        let mut f = Frame::empty(0, 0.0, 64, 64);
        let object = |track: u64, vx: f32| SceneObject {
            track: TrackId(track),
            attributes: ObjectAttributes::simple(ObjectClass::Car),
            bbox: BoundingBox::new(0.0, 0.0, 32.0, 32.0),
            velocity: (vx, 0.0),
        };
        // Same box: track 2 first, then track 1 (wins), then a second track 1
        // (loses to the earlier one).
        f.objects = vec![object(2, 10.0), object(1, 20.0), object(1, 30.0)];
        let field = est.estimate(&f);
        assert_eq!(
            field_bits(&field),
            field_bits(&reference_estimate(&est, &f))
        );
        let (vx, _) = field.vectors[0];
        assert!((vx - 20.0).abs() < 0.1, "block 0 took vx {vx}");
    }
}
