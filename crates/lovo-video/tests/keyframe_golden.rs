//! Key-frame golden: the indices the default motion-adaptive extractor picks
//! on every dataset kind, captured at the commit before the motion field was
//! rebuilt over a noise window and rasterised coverage (9e1dad0). The rewrite
//! claims bit-identical fields, so the selection must not move by one frame.
//!
//! Each video is recorded as its key-frame count and an FNV-1a hash of the
//! selected indices (as little-endian `u64`s), in collection order.

use lovo_video::{DatasetConfig, DatasetKind, KeyframeExtractor, VideoCollection};

const SEEDS: [u64; 3] = [1, 29, 77];

/// `(key frames, FNV of their indices)` per video, in collection order.
type Videos = &'static [(usize, u64)];

/// `(kind, seed, videos)`.
const GOLDEN: &[(DatasetKind, u64, Videos)] = &[
    (
        DatasetKind::Cityscapes,
        1,
        &[
            (21, 0x8c26bc3a5c8c6b05),
            (25, 0xf7cde4eddf8f01c4),
            (22, 0xd12d6fceef3f70be),
        ],
    ),
    (
        DatasetKind::Cityscapes,
        29,
        &[
            (21, 0x6bda5750755e1c13),
            (24, 0x8e53dd50a58e5d62),
            (22, 0x39129911d7f1b7df),
        ],
    ),
    (
        DatasetKind::Cityscapes,
        77,
        &[
            (24, 0xd1e663b9df601aa6),
            (23, 0xeb16ea82303f89eb),
            (23, 0x937c0d4036dbf8f5),
        ],
    ),
    (DatasetKind::Bellevue, 1, &[(142, 0x4954e0b7a3ea205e)]),
    (DatasetKind::Bellevue, 29, &[(185, 0x08d334ece51eb0e1)]),
    (DatasetKind::Bellevue, 77, &[(146, 0x88eeb8ae9bd23187)]),
    (
        DatasetKind::Qvhighlights,
        1,
        &[
            (6, 0x76017f3f6c2ea6bb),
            (6, 0x645714f36d437dc0),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (6, 0xd30acd1f5f53879f),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (6, 0x4553b92a96a3192f),
            (6, 0x6b6185fa1ae49c21),
            (5, 0x1fdc80eef2ce19c5),
        ],
    ),
    (
        DatasetKind::Qvhighlights,
        29,
        &[
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (6, 0x633e27dfe43f151f),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (6, 0x0c1c0169183f5fab),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (7, 0x736ceadef6c0f85b),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (7, 0xe9292f1ae1875603),
        ],
    ),
    (
        DatasetKind::Qvhighlights,
        77,
        &[
            (5, 0x1fdc80eef2ce19c5),
            (6, 0xaa6dd5fd5ff6a68a),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (7, 0x127288a1ee5cee17),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (6, 0x9ff232799ecd53df),
            (5, 0x1fdc80eef2ce19c5),
            (6, 0xab083a1619b9f83c),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (5, 0x1fdc80eef2ce19c5),
            (6, 0x208459dfc5057e29),
            (5, 0x1fdc80eef2ce19c5),
        ],
    ),
    (DatasetKind::Beach, 1, &[(85, 0x5bbe5241f4a2e95d)]),
    (DatasetKind::Beach, 29, &[(84, 0x3c897982e4d04e73)]),
    (DatasetKind::Beach, 77, &[(84, 0x3ae0c02d95d60c0c)]),
    (
        DatasetKind::ActivityNetQa,
        1,
        &[
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (7, 0xd41fbf900e0d4007),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (8, 0x2879e5110faf4051),
            (7, 0xf329fae943ab7e43),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
        ],
    ),
    (
        DatasetKind::ActivityNetQa,
        29,
        &[
            (7, 0x1144622fc7bacebb),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (7, 0x9274b28392d7f1d7),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
        ],
    ),
    (
        DatasetKind::ActivityNetQa,
        77,
        &[
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
            (6, 0xc13ed54ec26041b3),
        ],
    ),
];

fn fnv(indices: &[usize]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &i in indices {
        for byte in (i as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn observed(kind: DatasetKind, seed: u64) -> Vec<(usize, u64)> {
    let collection = VideoCollection::generate(DatasetConfig::for_kind(kind).with_seed(seed));
    let extractor = KeyframeExtractor::default();
    collection
        .videos
        .iter()
        .map(|video| {
            let indices = extractor.select_indices(&video.frames);
            (indices.len(), fnv(&indices))
        })
        .collect()
}

#[test]
fn default_extractor_matches_the_golden_on_every_kind() {
    assert_eq!(GOLDEN.len(), DatasetKind::ALL.len() * SEEDS.len());
    for kind in DatasetKind::ALL {
        for seed in SEEDS {
            let expected = GOLDEN
                .iter()
                .find(|(k, s, _)| *k == kind && *s == seed)
                .map(|(_, _, videos)| *videos)
                .unwrap_or_else(|| panic!("no golden for {kind:?} seed {seed}"));
            assert_eq!(observed(kind, seed), expected, "{kind:?} seed {seed}");
        }
    }
}
