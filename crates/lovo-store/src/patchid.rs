//! The packed *patch id*: the join key shared by the vector collection and
//! the relational metadata table (§V-B).
//!
//! Every stored embedding is addressed by a single `u64` that packs the video
//! id (bits 44..63), the key-frame index (bits 12..43) and the patch position
//! within the frame (bits 0..11). The packing lives in the storage crate —
//! rather than in the engine that assigns the ids — because the storage layer
//! itself exploits it: a video-id predicate compiles to a bit test on the id
//! (no metadata lookup), and segment zone maps prune on packed-id ranges
//! because ingestion appends videos in order, making segments video-contiguous.

use lovo_index::VectorId;

/// Largest video id that fits the patch-id packing (20 bits). Ingesting a
/// video with a larger id must be rejected upstream: the id would wrap and
/// silently collide with another video's patches.
pub const MAX_VIDEO_ID: u32 = (1 << 20) - 1;

/// Largest per-frame patch index that fits the patch-id packing (12 bits).
pub const MAX_PATCH_INDEX: u32 = (1 << 12) - 1;

/// Bit position of the video id within a packed patch id.
pub const VIDEO_ID_SHIFT: u32 = 44;

/// Globally unique patch id: video (bits 44..63), frame (bits 12..43), patch
/// position (bits 0..11).
pub fn patch_id(video_id: u32, frame_index: u32, patch_index: u32) -> VectorId {
    debug_assert!(video_id <= MAX_VIDEO_ID, "video id overflows patch id");
    debug_assert!(
        patch_index <= MAX_PATCH_INDEX,
        "patch index overflows patch id"
    );
    (u64::from(video_id) << VIDEO_ID_SHIFT)
        | (u64::from(frame_index) << 12)
        | u64::from(patch_index & 0xfff)
}

/// Inverse of [`patch_id`]: `(video_id, frame_index, patch_index)`.
pub fn split_patch_id(id: VectorId) -> (u32, u32, u32) {
    (
        (id >> VIDEO_ID_SHIFT) as u32,
        ((id >> 12) & 0xffff_ffff) as u32,
        (id & 0xfff) as u32,
    )
}

/// Video id of a packed patch id (the cheap bit test pushed-down video
/// filters use).
#[inline]
pub fn video_of(id: VectorId) -> u32 {
    (id >> VIDEO_ID_SHIFT) as u32
}

/// Key frame of a packed patch id: the id without its patch bits, which
/// packs `(video_id, frame_index)` into one `u64` ordered like the pair.
/// Every patch of a key frame shares it, so it is the key a query's hits
/// are grouped into frames by.
#[inline]
pub fn frame_of(id: VectorId) -> u64 {
    id >> 12
}

/// Inclusive range of every patch id a video can own. Because videos are
/// ingested in order, sealed segments cover contiguous runs of these ranges,
/// which is what makes zone-map pruning effective for video predicates.
pub fn video_id_range(video_id: u32) -> (VectorId, VectorId) {
    let start = u64::from(video_id) << VIDEO_ID_SHIFT;
    let end = start | ((1u64 << VIDEO_ID_SHIFT) - 1);
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_video_extraction() {
        let id = patch_id(3, 70_000, 39);
        assert_eq!(split_patch_id(id), (3, 70_000, 39));
        assert_eq!(video_of(id), 3);
        assert_eq!(frame_of(id), frame_of(patch_id(3, 70_000, 0)));
        assert!(frame_of(patch_id(3, 70_000, MAX_PATCH_INDEX)) < frame_of(patch_id(3, 70_001, 0)));
        assert!(frame_of(patch_id(3, u32::MAX, 0)) < frame_of(patch_id(4, 0, 0)));
        let boundary = patch_id(MAX_VIDEO_ID, u32::MAX, MAX_PATCH_INDEX);
        assert_eq!(
            split_patch_id(boundary),
            (MAX_VIDEO_ID, u32::MAX, MAX_PATCH_INDEX)
        );
    }

    #[test]
    fn video_range_covers_exactly_the_videos_ids() {
        let (start, end) = video_id_range(7);
        assert_eq!(start, patch_id(7, 0, 0));
        assert!(end >= patch_id(7, u32::MAX, MAX_PATCH_INDEX));
        assert!(end < patch_id(8, 0, 0));
        assert_eq!(video_of(start), 7);
        assert_eq!(video_of(end), 7);
    }
}
