//! Frames, tracked objects, and video-level ground truth.
//!
//! A [`Frame`] is a light-weight description of what a real decoded frame
//! would contain: its dimensions, a timestamp, the camera motion since the
//! previous frame, and the set of [`SceneObject`]s visible in it with their
//! ground-truth bounding boxes and attributes. The visual encoder consumes
//! frames through this interface exactly as it would consume pixel data — by
//! dividing the frame into patches and looking at what each patch covers — so
//! the downstream pipeline (embedding, indexing, search, rerank) is identical
//! to the real system's.

use crate::bbox::BoundingBox;
use crate::object::ObjectAttributes;
use serde::{Deserialize, Serialize};

/// Identifier of an object track within a video (stable across frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TrackId(pub u64);

/// A single object instance visible in one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneObject {
    /// Track the object belongs to; the same physical object keeps its id
    /// across frames, which is what MIRIS-style track queries rely on.
    pub track: TrackId,
    /// Ground-truth semantic attributes.
    pub attributes: ObjectAttributes,
    /// Ground-truth bounding box in pixels.
    pub bbox: BoundingBox,
    /// Per-frame velocity in pixels/frame `(vx, vy)`; drives motion vectors.
    pub velocity: (f32, f32),
}

impl SceneObject {
    /// Speed in pixels/frame.
    pub fn speed(&self) -> f32 {
        (self.velocity.0 * self.velocity.0 + self.velocity.1 * self.velocity.1).sqrt()
    }
}

/// One video frame with ground-truth contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Index of the frame within its video (0-based).
    pub index: usize,
    /// Timestamp in seconds from the start of the video.
    pub timestamp: f64,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Camera translation since the previous frame, in pixels `(dx, dy)`.
    /// Zero for fixed surveillance cameras (Bellevue, Beach); non-zero for
    /// dashcam / handheld footage (Cityscapes, QVHighlights).
    pub camera_motion: (f32, f32),
    /// Objects visible in the frame.
    pub objects: Vec<SceneObject>,
}

impl Frame {
    /// Creates an empty frame of the given dimensions.
    pub fn empty(index: usize, timestamp: f64, width: u32, height: u32) -> Self {
        Self {
            index,
            timestamp,
            width,
            height,
            camera_motion: (0.0, 0.0),
            objects: Vec::new(),
        }
    }

    /// Number of objects visible in the frame.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Returns the objects whose bounding boxes overlap the given patch region
    /// together with the fraction of the patch each covers, sorted by
    /// decreasing coverage.
    pub fn objects_in_region(&self, region: &BoundingBox) -> Vec<(&SceneObject, f32)> {
        let mut hits: Vec<(&SceneObject, f32)> = self
            .objects
            .iter()
            .filter_map(|o| {
                let coverage = region.coverage_by(&o.bbox);
                if coverage > 0.0 {
                    Some((o, coverage))
                } else {
                    None
                }
            })
            .collect();
        hits.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.track.cmp(&b.0.track))
        });
        hits
    }
}

/// A globally unique frame identifier: `(video id, frame index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FrameId {
    /// Index of the video within the collection.
    pub video: u32,
    /// Frame index within the video.
    pub frame: u32,
}

impl FrameId {
    /// Creates a frame id.
    pub fn new(video: u32, frame: u32) -> Self {
        Self { video, frame }
    }

    /// Packs the id into a single `u64` key (video in the high 32 bits).
    pub fn as_u64(&self) -> u64 {
        (u64::from(self.video) << 32) | u64::from(self.frame)
    }

    /// Unpacks a `u64` key produced by [`FrameId::as_u64`].
    pub fn from_u64(key: u64) -> Self {
        Self {
            video: (key >> 32) as u32,
            frame: (key & 0xffff_ffff) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectClass;

    fn object_at(x: f32, y: f32, w: f32, h: f32, speed: f32) -> SceneObject {
        SceneObject {
            track: TrackId(1),
            attributes: ObjectAttributes::simple(ObjectClass::Car),
            bbox: BoundingBox::new(x, y, w, h),
            velocity: (speed, 0.0),
        }
    }

    #[test]
    fn empty_frame_has_no_objects() {
        let f = Frame::empty(0, 0.0, 1280, 720);
        assert_eq!(f.object_count(), 0);
        assert_eq!(f.camera_motion, (0.0, 0.0));
    }

    #[test]
    fn objects_in_region_sorted_by_coverage() {
        let mut f = Frame::empty(0, 0.0, 1000, 1000);
        f.objects.push(object_at(0.0, 0.0, 50.0, 50.0, 0.0)); // covers 25% of region
        f.objects.push(object_at(0.0, 0.0, 100.0, 100.0, 0.0)); // covers 100%
        let region = BoundingBox::new(0.0, 0.0, 100.0, 100.0);
        let hits = f.objects_in_region(&region);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].1 > hits[1].1);
        assert!((hits[0].1 - 1.0).abs() < 1e-6);
        assert_eq!(hits[0].0.bbox.w, 100.0);
    }

    #[test]
    fn region_without_objects_is_empty() {
        let mut f = Frame::empty(0, 0.0, 1000, 1000);
        f.objects.push(object_at(0.0, 0.0, 50.0, 50.0, 0.0));
        let region = BoundingBox::new(500.0, 500.0, 100.0, 100.0);
        assert!(f.objects_in_region(&region).is_empty());
    }

    #[test]
    fn frame_id_u64_round_trip() {
        let id = FrameId::new(7, 123_456);
        assert_eq!(FrameId::from_u64(id.as_u64()), id);
        let id2 = FrameId::new(u32::MAX, u32::MAX);
        assert_eq!(FrameId::from_u64(id2.as_u64()), id2);
    }

    #[test]
    fn object_speed() {
        let o = object_at(0.0, 0.0, 10.0, 10.0, 3.0);
        assert!((o.speed() - 3.0).abs() < 1e-6);
    }
}
