//! The cross-modality rerank transformer (§VI-B, Algorithm 2).
//!
//! Takes the query text (as parsed constraints plus raw text) and the top-k
//! candidate key frames from the fast search, re-extracts fine-grained
//! features from each frame, fuses the two modalities with bidirectional
//! cross-attention (the *feature enhancer*), scores every frame against the
//! query, and emits the frames re-ranked with the bounding box of the object
//! that best grounds the query (the *decoder* role).
//!
//! Scoring follows the grounding-style alignment used by the paper's
//! references (GLIP / Grounding-DINO): each query constraint token looks for
//! its best-matching image token; the frame's score is the average of those
//! per-constraint maxima, so a frame only scores highly when *every* aspect of
//! the query (class, colour, relation, accessory, …) is grounded somewhere in
//! the frame. This is precisely the fine-grained evidence the fast-search
//! embedding deliberately discards, which is why the rerank stage recovers
//! accuracy on complex queries (Table IV).
//!
//! # Computing each value at the level it depends on
//!
//! Every output row of a [`Linear`] layer depends on its own input row only,
//! and every output row of an attention depends on its own query row plus
//! the whole context. Rows can therefore be computed alone, or once and
//! reused, and come out bit-identical to computing them inside a per-frame
//! matrix. The scorer uses that to compute nothing twice:
//!
//! * **per engine** ([`CrossModalityTransformer::new`]) — image tokens come
//!   from a closed codebook ([`FineToken::codebook`]), so each token's raw
//!   direction, its image projection and that projection's three first-layer
//!   attention projections are tabulated once;
//! * **per query** — the text tokens, their projection, the first layer's
//!   text-side `Q` / `(K, V)`, and the raw alignment of every image token
//!   among the candidates with every text token;
//! * **per (image token among the candidates, query)** — the whole image
//!   side of the first layer: its context is the projected text, which no
//!   frame changes, so a token's enhanced features (and their second-layer
//!   projections) are the same in whichever frame the token sits;
//! * **per distinct frame token sequence** — what is left: the text side of
//!   every layer (its context is the frame's own token list, duplicates
//!   included), the image side of the layers after the first over the
//!   frame's *distinct* tokens, the normalised alignment and the per-object
//!   max/mean. All of it reads the frame only through its token rows and
//!   object boundaries, so candidates that carry the same tokens object by
//!   object (runs of identical key frames from a static camera, copies of a
//!   video) share one `(score, best object)`. The same tokens in another
//!   order are another sequence: the order of the sums decides the bits;
//! * **per candidate frame** — the box of its own best object (or the
//!   fallback box), and its ids.
//!
//! The codebook is a property of the simulated attribute space, where an
//! object's appearance *is* a handful of discrete facet values. A real
//! backbone has no such table; it would cache per-frame image features
//! instead (a VQPy-style property, computed once per object), and the
//! levels from the query down would stay as they are.

// The rerank scorer runs where the executor runs: on `QueryService` workers
// and submitting threads.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::space::{AttributeSpace, FineToken};
use crate::{EncoderError, Result};
use lovo_tensor::ops::{dot, l2_normalize};
use lovo_tensor::{Linear, Matrix, MultiHeadAttention};
use lovo_video::bbox::BoundingBox;
use lovo_video::query::QueryConstraints;
use lovo_video::scene::Frame;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Configuration of the cross-modality transformer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossModalityConfig {
    /// Shared attribute-space dimension (must equal the encoders' `class_dim`).
    pub class_dim: usize,
    /// Internal model dimension of the enhancer/decoder layers.
    pub model_dim: usize,
    /// Number of feature-enhancer layers.
    pub enhancer_layers: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Weight of the cross-attention context added to each token per layer.
    pub fusion_strength: f32,
    /// Seed shared with the encoders.
    pub seed: u64,
}

impl Default for CrossModalityConfig {
    fn default() -> Self {
        Self {
            class_dim: 32,
            model_dim: 64,
            enhancer_layers: 2,
            heads: 4,
            fusion_strength: 0.15,
            seed: 0x0715,
        }
    }
}

impl CrossModalityConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.class_dim == 0 || self.model_dim == 0 {
            return Err(EncoderError::InvalidConfig(
                "class_dim and model_dim must be positive".into(),
            ));
        }
        if self.model_dim % self.heads != 0 {
            return Err(EncoderError::InvalidConfig(format!(
                "model_dim {} not divisible by heads {}",
                self.model_dim, self.heads
            )));
        }
        if !(0.0..=1.0).contains(&self.fusion_strength) {
            return Err(EncoderError::InvalidConfig(
                "fusion_strength must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// A candidate key frame handed to the rerank stage.
#[derive(Debug, Clone)]
pub struct CandidateFrame<'a> {
    /// Video the frame belongs to.
    pub video_id: u32,
    /// The key frame (the rerank stage re-reads its content, exactly as the
    /// real system decodes the stored key frame image).
    pub frame: &'a Frame,
    /// The box suggested by the fast-search hit, if any; used as a fallback
    /// output when the frame contains no object grounding the query.
    pub seed_box: Option<BoundingBox>,
}

/// One reranked output frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RerankedFrame {
    /// Video the frame belongs to.
    pub video_id: u32,
    /// Frame index within the video.
    pub frame_index: usize,
    /// Timestamp of the frame in seconds.
    pub timestamp: f64,
    /// Cross-modality alignment score (higher is better).
    pub score: f32,
    /// Bounding box of the object that best grounds the query.
    pub bbox: BoundingBox,
}

/// Image-token features at the input of one enhancer layer, one row per
/// token, with the three projections that layer takes of them.
#[derive(Default)]
struct ImageSide {
    /// The features themselves (`tokens x model_dim`).
    x: Matrix,
    /// Image-to-text queries of `x`.
    q: Matrix,
    /// Text-to-image keys of `x`.
    k: Matrix,
    /// Text-to-image values of `x`.
    v: Matrix,
}

impl ImageSide {
    fn gather(&self, rows: &[usize]) -> ImageSide {
        ImageSide {
            x: self.x.gather_rows(rows),
            q: self.q.gather_rows(rows),
            k: self.k.gather_rows(rows),
            v: self.v.gather_rows(rows),
        }
    }
}

/// The engine-level table: every token of [`FineToken::codebook`] with its
/// raw direction and its first-layer image side.
#[derive(Default)]
struct Codebook {
    slots: HashMap<FineToken, usize>,
    /// Raw unit directions (`tokens x class_dim`).
    raw: Matrix,
    side: ImageSide,
}

/// The image tokens of one candidate frame, as rows of the query's token
/// table: `rows[object_starts[o]..object_starts[o + 1]]` are object `o`'s.
/// Equal values ground to the same `(score, best object)`; the same tokens
/// in another order are another value, since the order of the sums decides
/// the bits.
#[derive(PartialEq, Eq, Hash)]
struct FrameTokens {
    rows: Vec<usize>,
    object_starts: Vec<usize>,
}

/// Everything the scorer computes once per query (see the module docs):
/// the text side, and one row per distinct image token among the candidates.
struct QueryTables {
    /// Projected text tokens (`text tokens x model_dim`).
    xt: Matrix,
    /// Raw alignment of each image token with each text token.
    raw_alignment: Matrix,
    /// Image side at the input of the first layer.
    first: ImageSide,
    /// First-layer text-to-image queries of `xt`.
    text_q: Matrix,
    /// Image side at the input of the second layer.
    second: ImageSide,
}

/// The cross-modality transformer.
pub struct CrossModalityTransformer {
    config: CrossModalityConfig,
    space: AttributeSpace,
    image_proj: Linear,
    text_proj: Linear,
    /// Per layer: image-to-text attention and text-to-image attention.
    layers: Vec<(MultiHeadAttention, MultiHeadAttention)>,
    codebook: Codebook,
}

impl CrossModalityTransformer {
    /// Creates the transformer with deterministic weights.
    pub fn new(config: CrossModalityConfig) -> Result<Self> {
        config.validate()?;
        let layers = (0..config.enhancer_layers)
            .map(|i| {
                Ok((
                    MultiHeadAttention::new(
                        config.model_dim,
                        config.heads,
                        config.seed,
                        &format!("xmod.layer{i}.i2t"),
                    )?,
                    MultiHeadAttention::new(
                        config.model_dim,
                        config.heads,
                        config.seed,
                        &format!("xmod.layer{i}.t2i"),
                    )?,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut transformer = Self {
            space: AttributeSpace::new(config.class_dim, config.seed),
            image_proj: Linear::new(config.class_dim, config.model_dim, config.seed, "xmod.img"),
            text_proj: Linear::new(config.class_dim, config.model_dim, config.seed, "xmod.txt"),
            layers,
            codebook: Codebook::default(),
            config,
        };
        // With the table still empty every token takes the compute path, so
        // the table holds exactly what a lookup miss would compute.
        let tokens = FineToken::codebook();
        let (raw, side) = transformer.first_image_side(&tokens)?;
        transformer.codebook = Codebook {
            slots: tokens.into_iter().zip(0..).collect(),
            raw,
            side,
        };
        Ok(transformer)
    }

    /// The transformer configuration.
    pub fn config(&self) -> &CrossModalityConfig {
        &self.config
    }

    /// Scores one frame against the query constraints and returns the score
    /// together with the grounded bounding box.
    pub fn score_frame(
        &self,
        constraints: &QueryConstraints,
        frame: &Frame,
        seed_box: Option<BoundingBox>,
    ) -> Result<(f32, BoundingBox)> {
        let candidate = CandidateFrame {
            video_id: 0,
            frame,
            seed_box,
        };
        Ok(self
            .rerank_with_constraints(constraints, std::slice::from_ref(&candidate))?
            .first()
            .map_or((0.0, fallback_box(&candidate)), |r| (r.score, r.bbox)))
    }

    /// Reranks candidate frames against a query's parsed constraints, best
    /// first (Algorithm 2).
    pub fn rerank_with_constraints(
        &self,
        constraints: &QueryConstraints,
        candidates: &[CandidateFrame<'_>],
    ) -> Result<Vec<RerankedFrame>> {
        let text_tokens: Vec<FineToken> = FineToken::of_constraints(constraints).collect();

        // Name every candidate's image tokens as rows of one table of the
        // distinct tokens among them. A frame with nothing to ground (no
        // object, or no constraint to ground it against) gets no row list
        // and falls back to the fast-search box with a weak score.
        let mut tokens: Vec<FineToken> = Vec::new();
        let mut token_rows: HashMap<FineToken, usize> = HashMap::new();
        let frames: Vec<Option<FrameTokens>> = candidates
            .iter()
            .map(|candidate| {
                let objects = &candidate.frame.objects;
                if text_tokens.is_empty() || objects.is_empty() {
                    return None;
                }
                let mut rows = Vec::new();
                let mut object_starts = vec![0];
                for object in objects {
                    for token in FineToken::of_attributes(&object.attributes) {
                        rows.push(*token_rows.entry(token).or_insert_with(|| {
                            tokens.push(token);
                            tokens.len() - 1
                        }));
                    }
                    object_starts.push(rows.len());
                }
                Some(FrameTokens {
                    rows,
                    object_starts,
                })
            })
            .collect();

        let tables = if tokens.is_empty() {
            None
        } else {
            Some(self.query_tables(&text_tokens, &tokens)?)
        };
        // Grounding is a function of the frame's token sequence alone, so
        // frames that repeat one (a static camera, a copied video) are
        // grounded once; each still takes the box of its own object.
        let mut grounded: HashMap<&FrameTokens, (f32, Option<usize>)> = HashMap::new();
        let mut out = Vec::with_capacity(candidates.len());
        for (candidate, frame_tokens) in candidates.iter().zip(&frames) {
            let mut score = 0.0;
            let mut bbox = fallback_box(candidate);
            if let (Some(tables), Some(frame_tokens)) = (&tables, frame_tokens) {
                let (best_score, best_object) = match grounded.entry(frame_tokens) {
                    Entry::Occupied(hit) => *hit.get(),
                    Entry::Vacant(slot) => *slot.insert(self.ground(tables, frame_tokens)?),
                };
                score = best_score;
                if let Some(object) = best_object.and_then(|o| candidate.frame.objects.get(o)) {
                    bbox = object.bbox;
                }
            }
            out.push(RerankedFrame {
                video_id: candidate.video_id,
                frame_index: candidate.frame.index,
                timestamp: candidate.frame.timestamp,
                score,
                bbox,
            });
        }
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.frame_index.cmp(&b.frame_index))
                .then(a.video_id.cmp(&b.video_id))
        });
        Ok(out)
    }

    /// The image side at the input of enhancer layer `layer` for features
    /// `x`. Past the last layer there is nothing to project and only `x` is
    /// ever read.
    fn image_side(&self, layer: usize, x: Matrix) -> Result<ImageSide> {
        let (q, (k, v)) = match self.layers.get(layer) {
            Some((i2t, t2i)) => (i2t.project_queries(&x)?, t2i.project_context(&x)?),
            None => {
                let none = || Matrix::zeros(x.rows(), 0);
                (none(), (none(), none()))
            }
        };
        Ok(ImageSide { x, q, k, v })
    }

    /// Raw directions and first-layer image side of `tokens`, one row each:
    /// copied from the codebook when every token is in it, computed on the
    /// spot otherwise.
    fn first_image_side(&self, tokens: &[FineToken]) -> Result<(Matrix, ImageSide)> {
        let slots: Option<Vec<usize>> = tokens
            .iter()
            .map(|token| self.codebook.slots.get(token).copied())
            .collect();
        if let Some(slots) = slots {
            return Ok((
                self.codebook.raw.gather_rows(&slots),
                self.codebook.side.gather(&slots),
            ));
        }
        let directions: Vec<Vec<f32>> = tokens
            .iter()
            .map(|&token| self.space.token_direction(token))
            .collect();
        let raw = Matrix::from_rows(&directions)?;
        let side = self.image_side(0, self.image_proj.forward(&raw)?)?;
        Ok((raw, side))
    }

    /// The per-query level: the text side, and the first layer's image side
    /// for each of `image_tokens` (the distinct tokens among the candidates).
    fn query_tables(
        &self,
        text_tokens: &[FineToken],
        image_tokens: &[FineToken],
    ) -> Result<QueryTables> {
        let text_directions: Vec<Vec<f32>> = text_tokens
            .iter()
            .map(|&token| self.space.token_direction(token))
            .collect();
        let text_raw = Matrix::from_rows(&text_directions)?;
        let xt = self.text_proj.forward(&text_raw)?;
        let (raw, first) = self.first_image_side(image_tokens)?;

        let mut raw_alignment = Matrix::zeros(raw.rows(), text_raw.rows());
        for (i, image) in raw.iter_rows().enumerate() {
            for (slot, text) in raw_alignment
                .row_mut(i)
                .iter_mut()
                .zip(text_raw.iter_rows())
            {
                *slot = dot(image, text);
            }
        }

        // First layer, image side: its context is the projected text alone,
        // so it is computed here for every token rather than in each frame.
        let (text_q, second) = match self.layers.first() {
            Some((i2t, t2i)) => {
                let (k, v) = i2t.project_context(&xt)?;
                let enhanced = self.residual(&first.x, i2t.attend(&first.q, &k, &v)?)?;
                (t2i.project_queries(&xt)?, self.image_side(1, enhanced)?)
            }
            None => Default::default(),
        };
        Ok(QueryTables {
            xt,
            raw_alignment,
            first,
            text_q,
            second,
        })
    }

    /// `x + fusion_strength * context`, the enhancer's residual update.
    fn residual(&self, x: &Matrix, context: Matrix) -> Result<Matrix> {
        Ok(x.add(&context.scale(self.config.fusion_strength))?)
    }

    /// The per-frame level: enhances the frame's tokens against the query
    /// and returns the best object's score and index (no index when no
    /// object's score compares above negative infinity).
    fn ground(&self, tables: &QueryTables, frame: &FrameTokens) -> Result<(f32, Option<usize>)> {
        // The frame's distinct tokens (rows of the query tables), and for
        // each image row of the frame its position among them. Image rows
        // carrying one token are identical through every layer, so the image
        // side is enhanced once per distinct token; the text side attends
        // over all the frame's rows, duplicates included.
        let mut distinct: Vec<usize> = Vec::new();
        let mut positions: Vec<usize> = Vec::with_capacity(frame.rows.len());
        for &row in &frame.rows {
            let position = distinct.iter().position(|&d| d == row).unwrap_or_else(|| {
                distinct.push(row);
                distinct.len() - 1
            });
            positions.push(position);
        }

        let (mut xi, mut xt) = match self.layers.first() {
            None => (tables.first.x.gather_rows(&distinct), tables.xt.clone()),
            Some((_, t2i)) => {
                let k = tables.first.k.gather_rows(&frame.rows);
                let v = tables.first.v.gather_rows(&frame.rows);
                let mut xt = self.residual(&tables.xt, t2i.attend(&tables.text_q, &k, &v)?)?;
                let mut side = tables.second.gather(&distinct);
                for (layer, (i2t, t2i)) in self.layers.iter().enumerate().skip(1) {
                    let (text_k, text_v) = i2t.project_context(&xt)?;
                    let enhanced =
                        self.residual(&side.x, i2t.attend(&side.q, &text_k, &text_v)?)?;
                    let k = side.k.gather_rows(&positions);
                    let v = side.v.gather_rows(&positions);
                    xt = self.residual(&xt, t2i.attend(&t2i.project_queries(&xt)?, &k, &v)?)?;
                    side = self.image_side(layer + 1, enhanced)?;
                }
                (side.x, xt)
            }
        };

        // Alignment on the *raw* shared-space tokens carries the semantic
        // match; the enhanced features modulate it. Blend the two so random
        // fusion weights cannot erase the grounding signal.
        let text_count = xt.rows();
        for m in [&mut xi, &mut xt] {
            for r in 0..m.rows() {
                l2_normalize(m.row_mut(r));
            }
        }
        let mut alignment = Matrix::zeros(distinct.len(), text_count);
        for ((combined, image), &row) in alignment
            .as_mut_slice()
            .chunks_exact_mut(text_count)
            .zip(xi.iter_rows())
            .zip(&distinct)
        {
            for ((slot, text), raw) in combined
                .iter_mut()
                .zip(xt.iter_rows())
                .zip(tables.raw_alignment.row(row))
            {
                *slot = 0.8 * raw + 0.2 * dot(image, text);
            }
        }

        let mut best_score = f32::NEG_INFINITY;
        let mut best_object = None;
        let mut per_text_max = vec![f32::NEG_INFINITY; text_count];
        for (object, range) in frame.object_starts.windows(2).enumerate() {
            // For every query constraint token, the best-matching token of
            // this object; the object's score averages those maxima.
            per_text_max.fill(f32::NEG_INFINITY);
            for &position in positions.get(range[0]..range[1]).unwrap_or_default() {
                for (slot, &combined) in per_text_max.iter_mut().zip(alignment.row(position)) {
                    if combined > *slot {
                        *slot = combined;
                    }
                }
            }
            let score: f32 = per_text_max.iter().sum::<f32>() / per_text_max.len() as f32;
            if score > best_score {
                best_score = score;
                best_object = Some(object);
            }
        }
        Ok((best_score, best_object))
    }
}

/// The box a frame is reported with when nothing in it grounds the query:
/// the fast-search box, or the whole frame.
fn fallback_box(candidate: &CandidateFrame<'_>) -> BoundingBox {
    candidate.seed_box.unwrap_or_else(|| {
        BoundingBox::new(
            0.0,
            0.0,
            candidate.frame.width as f32,
            candidate.frame.height as f32,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AttributeFacet;
    use crate::text::TextEncoder;
    use lovo_video::object::{
        Accessory, Activity, Color, Gender, Location, ObjectAttributes, ObjectClass, Relation,
        SizeClass,
    };
    use lovo_video::scene::{SceneObject, TrackId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The scorer this module had before values were hoisted to the level
    /// they depend on, kept as the reference the new one must equal bit for
    /// bit: every frame on its own, every token vector rebuilt from its
    /// attributes, whole-matrix projections and attention.
    fn reference_score_frame(
        t: &CrossModalityTransformer,
        constraints: &QueryConstraints,
        frame: &Frame,
        seed_box: Option<BoundingBox>,
    ) -> (f32, BoundingBox) {
        let fallback = seed_box
            .unwrap_or_else(|| BoundingBox::new(0.0, 0.0, frame.width as f32, frame.height as f32));
        let text_tokens = t.space.fine_tokens_of_constraints(constraints);
        if text_tokens.is_empty() || frame.objects.is_empty() {
            return (0.0, fallback);
        }

        let mut image_rows: Vec<Vec<f32>> = Vec::new();
        let mut object_ranges: Vec<(usize, usize)> = Vec::new();
        for obj in &frame.objects {
            let start = image_rows.len();
            image_rows.extend(t.space.fine_tokens_of_attributes(&obj.attributes));
            object_ranges.push((start, image_rows.len()));
        }

        let mut xi = t
            .image_proj
            .forward(&Matrix::from_rows(&image_rows).unwrap())
            .unwrap();
        let mut xt = t
            .text_proj
            .forward(&Matrix::from_rows(&text_tokens).unwrap())
            .unwrap();
        let alpha = t.config.fusion_strength;
        for (i2t, t2i) in &t.layers {
            let image_ctx = i2t.cross_attention(&xi, &xt).unwrap().scale(alpha);
            let text_ctx = t2i.cross_attention(&xt, &xi).unwrap().scale(alpha);
            xi = xi.add(&image_ctx).unwrap();
            xt = xt.add(&text_ctx).unwrap();
        }

        let raw_alignment = alignment_matrix(&image_rows, &text_tokens);
        let fused_alignment = normalized_alignment(&xi, &xt);

        let mut best_score = f32::NEG_INFINITY;
        let mut best_box = fallback;
        for (obj_idx, &(start, end)) in object_ranges.iter().enumerate() {
            let mut per_text_max = vec![f32::NEG_INFINITY; text_tokens.len()];
            for img_token in start..end {
                for (t, slot) in per_text_max.iter_mut().enumerate() {
                    let combined =
                        0.8 * raw_alignment[img_token][t] + 0.2 * fused_alignment[img_token][t];
                    if combined > *slot {
                        *slot = combined;
                    }
                }
            }
            let score: f32 = per_text_max.iter().sum::<f32>() / per_text_max.len() as f32;
            if score > best_score {
                best_score = score;
                best_box = frame.objects[obj_idx].bbox;
            }
        }
        (best_score, best_box)
    }

    /// Cosine alignment matrix between raw (unit) token sets.
    fn alignment_matrix(image_rows: &[Vec<f32>], text_rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
        image_rows
            .iter()
            .map(|img| text_rows.iter().map(|txt| dot(img, txt)).collect())
            .collect()
    }

    /// Cosine alignment matrix between fused features (rows normalized first).
    fn normalized_alignment(xi: &Matrix, xt: &Matrix) -> Vec<Vec<f32>> {
        let norm_rows = |m: &Matrix| -> Vec<Vec<f32>> {
            m.iter_rows()
                .map(|row| {
                    let mut row = row.to_vec();
                    l2_normalize(&mut row);
                    row
                })
                .collect()
        };
        alignment_matrix(&norm_rows(xi), &norm_rows(xt))
    }

    /// The reference `rerank_with_constraints`: one `reference_score_frame`
    /// per candidate, then the same sort.
    fn reference_rerank(
        t: &CrossModalityTransformer,
        constraints: &QueryConstraints,
        candidates: &[CandidateFrame<'_>],
    ) -> Vec<RerankedFrame> {
        let mut out: Vec<RerankedFrame> = candidates
            .iter()
            .map(|c| {
                let (score, bbox) = reference_score_frame(t, constraints, c.frame, c.seed_box);
                RerankedFrame {
                    video_id: c.video_id,
                    frame_index: c.frame.index,
                    timestamp: c.frame.timestamp,
                    score,
                    bbox,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.frame_index.cmp(&b.frame_index))
                .then(a.video_id.cmp(&b.video_id))
        });
        out
    }

    fn pick<T: Copy>(rng: &mut SmallRng, values: &[T]) -> T {
        values[rng.gen_range(0..values.len())]
    }

    fn random_relation(rng: &mut SmallRng) -> Relation {
        let peer = pick(rng, &ObjectClass::ALL);
        match rng.gen_range(0..3u8) {
            0 => Relation::None,
            1 => Relation::SideBySideWith(peer),
            _ => Relation::NextTo(peer),
        }
    }

    fn random_accessories(rng: &mut SmallRng) -> Vec<Accessory> {
        // Sampled with replacement: the field is public, so a repeated
        // accessory is a legal (if odd) object.
        (0..rng.gen_range(0..4usize))
            .map(|_| pick(rng, &Accessory::ALL))
            .collect()
    }

    fn random_attributes(rng: &mut SmallRng) -> ObjectAttributes {
        ObjectAttributes {
            class: pick(rng, &ObjectClass::ALL),
            color: pick(rng, &Color::ALL),
            size: pick(rng, &SizeClass::ALL),
            activity: pick(rng, &Activity::ALL),
            location: pick(rng, &Location::ALL),
            relation: random_relation(rng),
            accessories: random_accessories(rng),
            gender: pick(rng, &[Gender::Unspecified, Gender::Woman, Gender::Man]),
        }
    }

    /// A frame of 0–8 objects; each object after the first repeats an earlier
    /// one (attributes and all) one time in four.
    fn random_frame(rng: &mut SmallRng, index: usize) -> Frame {
        let mut frame = Frame::empty(index, index as f64 / 30.0, 1280, 720);
        for o in 0..rng.gen_range(0..9usize) {
            let attributes = if o > 0 && rng.gen_range(0..4u8) == 0 {
                frame.objects[rng.gen_range(0..o)].attributes.clone()
            } else {
                random_attributes(rng)
            };
            frame.objects.push(SceneObject {
                track: TrackId(o as u64),
                attributes,
                bbox: random_box(rng),
                velocity: (0.0, 0.0),
            });
        }
        frame
    }

    fn random_box(rng: &mut SmallRng) -> BoundingBox {
        BoundingBox::new(
            rng.gen_range(0.0f32..1000.0),
            rng.gen_range(0.0f32..600.0),
            rng.gen_range(10.0f32..200.0),
            rng.gen_range(10.0f32..100.0),
        )
    }

    /// A copy of `frame` at `index`: the same objects under fresh boxes,
    /// one time in two rotated into another order.
    fn repeat_frame(rng: &mut SmallRng, frame: &Frame, index: usize) -> Frame {
        let mut copy = frame.clone();
        copy.index = index;
        copy.timestamp = index as f64 / 30.0;
        for object in &mut copy.objects {
            object.bbox = random_box(rng);
        }
        if copy.objects.len() > 1 && rng.gen_range(0..2u8) == 0 {
            let by = rng.gen_range(1..copy.objects.len());
            copy.objects.rotate_left(by);
        }
        copy
    }

    /// Constraints of 0–8 tokens: each facet constrained one time in two,
    /// and never anything one time in eight.
    fn random_constraints(rng: &mut SmallRng) -> QueryConstraints {
        if rng.gen_range(0..8u8) == 0 {
            return QueryConstraints::default();
        }
        let coin = |rng: &mut SmallRng| rng.gen_range(0..2u8) == 0;
        QueryConstraints {
            class: coin(rng).then(|| pick(rng, &ObjectClass::ALL)),
            color: coin(rng).then(|| pick(rng, &Color::ALL)),
            size: coin(rng).then(|| pick(rng, &SizeClass::ALL)),
            activity: coin(rng).then(|| pick(rng, &Activity::ALL)),
            location: coin(rng).then(|| pick(rng, &Location::ALL)),
            relation: coin(rng).then(|| random_relation(rng)),
            accessories: random_accessories(rng),
            gender: coin(rng)
                .then(|| pick(rng, &[Gender::Unspecified, Gender::Woman, Gender::Man])),
        }
    }

    fn bits(ranked: &[RerankedFrame]) -> Vec<(u32, usize, u32, BoundingBox)> {
        ranked
            .iter()
            .map(|r| (r.video_id, r.frame_index, r.score.to_bits(), r.bbox))
            .collect()
    }

    /// Asserts, over generated candidate sets, that `t` reranks exactly as
    /// the reference scorer does: same order, same score bits, same boxes.
    /// The sets repeat frames (see [`repeat_frame`]), so frames sharing a
    /// token sequence, and frames sharing objects in another order, meet in
    /// one rerank; each must report a box of its own objects.
    fn assert_matches_reference(t: &CrossModalityTransformer, seed: u64, cases: usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..cases {
            let mut frames: Vec<Frame> = (0..rng.gen_range(0..7usize))
                .map(|i| random_frame(&mut rng, i))
                .collect();
            for _ in 0..rng.gen_range(0..=frames.len()) {
                let source = rng.gen_range(0..frames.len());
                let copy = repeat_frame(&mut rng, &frames[source], frames.len());
                frames.push(copy);
            }
            let candidates: Vec<CandidateFrame<'_>> = frames
                .iter()
                .map(|frame| CandidateFrame {
                    video_id: rng.gen_range(0..3u32),
                    frame,
                    seed_box: (rng.gen_range(0..2u8) == 0)
                        .then(|| BoundingBox::new(5.0, 6.0, 50.0, 40.0)),
                })
                .collect();
            let constraints = random_constraints(&mut rng);
            let expected = reference_rerank(t, &constraints, &candidates);
            let actual = t
                .rerank_with_constraints(&constraints, &candidates)
                .unwrap();
            assert_eq!(
                bits(&actual),
                bits(&expected),
                "case {case}: {constraints:?}"
            );
            // Frame indices are unique within a case, so each result names
            // its candidate; a repeat's fresh boxes tell its own from its
            // source's.
            for r in &actual {
                let c = &candidates[r.frame_index];
                assert!(
                    r.bbox == fallback_box(c) || c.frame.objects.iter().any(|o| o.bbox == r.bbox),
                    "case {case}: frame {} reported a box not of its own objects",
                    r.frame_index
                );
            }
            for c in &candidates {
                let (score, bbox) = t.score_frame(&constraints, c.frame, c.seed_box).unwrap();
                let reference = reference_score_frame(t, &constraints, c.frame, c.seed_box);
                assert_eq!(
                    (score.to_bits(), bbox),
                    (reference.0.to_bits(), reference.1)
                );
            }
        }
    }

    #[test]
    fn scorer_is_bit_identical_to_the_reference() {
        assert_matches_reference(&transformer(), 0x5c02e, 64);
    }

    #[test]
    fn scorer_is_bit_identical_for_any_layer_count() {
        for enhancer_layers in [0, 1, 3] {
            let t = CrossModalityTransformer::new(CrossModalityConfig {
                enhancer_layers,
                ..CrossModalityConfig::default()
            })
            .unwrap();
            assert_matches_reference(&t, 0x1a7e5 + enhancer_layers as u64, 16);
        }
    }

    #[test]
    fn tokens_outside_the_codebook_are_computed_not_looked_up() {
        // With an empty table every token misses and is computed on the spot;
        // the scores cannot tell.
        let mut t = transformer();
        t.codebook = Codebook::default();
        assert_matches_reference(&t, 0x5c02e, 16);

        // A code no enum value carries: no slot, no panic, the plain direction.
        let t = transformer();
        let unknown = FineToken::new(AttributeFacet::Gender, 7);
        assert!(!t.codebook.slots.contains_key(&unknown));
        let known = FineToken::new(AttributeFacet::Class, 0);
        let (raw, side) = t.first_image_side(&[known, unknown]).unwrap();
        assert_eq!(raw.row(1), t.space.direction(AttributeFacet::Gender, 7));
        let (_, looked_up) = t.first_image_side(&[known]).unwrap();
        assert_eq!(side.x.row(0), looked_up.x.row(0));
        assert_eq!(side.q.row(0), looked_up.q.row(0));
        assert_eq!(side.k.row(0), looked_up.k.row(0));
        assert_eq!(side.v.row(0), looked_up.v.row(0));
    }

    #[test]
    fn codebook_holds_every_reachable_token_bit_for_bit() {
        let t = transformer();
        let raw_of = |token: FineToken| -> Vec<u32> {
            let slot = *t
                .codebook
                .slots
                .get(&token)
                .unwrap_or_else(|| panic!("{token:?} missing from the codebook"));
            t.codebook
                .raw
                .row(slot)
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let bits_of = |v: Vec<f32>| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let direction = |facet, code| bits_of(t.space.direction(facet, code));

        // Reached the way a frame reaches them: through an object's tokens.
        let mut reached = std::collections::HashSet::new();
        let mut reach = |attrs: &ObjectAttributes| {
            reached.extend(FineToken::of_attributes(attrs));
        };
        let base = ObjectAttributes::simple(ObjectClass::Car);
        for class in ObjectClass::ALL {
            reach(&ObjectAttributes::simple(class));
            reach(&base.clone().with_relation(Relation::SideBySideWith(class)));
            reach(&base.clone().with_relation(Relation::NextTo(class)));
            assert_eq!(
                raw_of(FineToken::new(AttributeFacet::Class, class.code())),
                direction(AttributeFacet::Class, class.code())
            );
            assert_eq!(
                raw_of(FineToken::new(AttributeFacet::RelationPeer, class.code())),
                direction(AttributeFacet::RelationPeer, class.code())
            );
        }
        for color in Color::ALL {
            reach(&base.clone().with_color(color));
            assert_eq!(
                raw_of(FineToken::new(AttributeFacet::Color, color.code())),
                bits_of(t.space.color_direction(color))
            );
        }
        for size in SizeClass::ALL {
            reach(&base.clone().with_size(size));
            assert_eq!(
                raw_of(FineToken::new(AttributeFacet::Size, size.code())),
                direction(AttributeFacet::Size, size.code())
            );
        }
        for activity in Activity::ALL {
            reach(&base.clone().with_activity(activity));
            assert_eq!(
                raw_of(FineToken::new(AttributeFacet::Activity, activity.code())),
                direction(AttributeFacet::Activity, activity.code())
            );
        }
        for location in Location::ALL {
            reach(&base.clone().with_location(location));
            assert_eq!(
                raw_of(FineToken::new(AttributeFacet::Location, location.code())),
                direction(AttributeFacet::Location, location.code())
            );
        }
        for accessory in Accessory::ALL {
            reach(&base.clone().with_accessory(accessory));
            assert_eq!(
                raw_of(FineToken::new(AttributeFacet::Accessory, accessory.code())),
                direction(AttributeFacet::Accessory, accessory.code())
            );
        }
        for gender in [Gender::Woman, Gender::Man] {
            reach(&base.clone().with_gender(gender));
            assert_eq!(
                raw_of(FineToken::new(AttributeFacet::Gender, gender.code())),
                direction(AttributeFacet::Gender, gender.code())
            );
        }
        for kind in [1, 2] {
            assert_eq!(
                raw_of(FineToken::new(AttributeFacet::RelationKind, kind)),
                direction(AttributeFacet::RelationKind, kind)
            );
        }
        // Exactly the reachable set, 59 tokens today, nothing else.
        assert_eq!(reached.len(), 59);
        assert_eq!(t.codebook.slots.len(), reached.len());
        assert!(reached
            .iter()
            .all(|token| t.codebook.slots.contains_key(token)));
        assert_eq!(t.codebook.side.x.rows(), reached.len());
    }

    fn transformer() -> CrossModalityTransformer {
        CrossModalityTransformer::new(CrossModalityConfig::default()).unwrap()
    }

    fn frame_with(attrs: ObjectAttributes, index: usize) -> Frame {
        let mut f = Frame::empty(index, index as f64 / 30.0, 1280, 720);
        f.objects.push(SceneObject {
            track: TrackId(index as u64),
            attributes: attrs,
            bbox: BoundingBox::new(100.0, 100.0, 200.0, 120.0),
            velocity: (0.0, 0.0),
        });
        f
    }

    #[test]
    fn config_validation() {
        assert!(CrossModalityConfig::default().validate().is_ok());
        let c = CrossModalityConfig {
            heads: 5,
            ..CrossModalityConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CrossModalityConfig {
            fusion_strength: 2.0,
            ..CrossModalityConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn matching_frame_outranks_near_miss() {
        let t = transformer();
        let query = "a green bus with the white roof driving on the road";
        let target = frame_with(
            ObjectAttributes::simple(ObjectClass::Bus)
                .with_color(Color::Green)
                .with_accessory(Accessory::WhiteRoof),
            0,
        );
        let wrong_color = frame_with(
            ObjectAttributes::simple(ObjectClass::Bus).with_color(Color::White),
            1,
        );
        let wrong_class = frame_with(
            ObjectAttributes::simple(ObjectClass::Truck).with_color(Color::Green),
            2,
        );
        let candidates = vec![
            CandidateFrame {
                video_id: 0,
                frame: &wrong_color,
                seed_box: None,
            },
            CandidateFrame {
                video_id: 0,
                frame: &target,
                seed_box: None,
            },
            CandidateFrame {
                video_id: 0,
                frame: &wrong_class,
                seed_box: None,
            },
        ];
        let ranked = t
            .rerank_with_constraints(&TextEncoder::parse(query), &candidates)
            .unwrap();
        assert_eq!(ranked[0].frame_index, 0, "target frame should rank first");
        assert!(ranked[0].score > ranked[1].score);
    }

    #[test]
    fn relation_queries_distinguish_frames() {
        let t = transformer();
        let query = "a red car side by side with another car in the center of the road";
        let with_rel = frame_with(
            ObjectAttributes::simple(ObjectClass::Car)
                .with_color(Color::Red)
                .with_location(lovo_video::object::Location::RoadCenter)
                .with_relation(Relation::SideBySideWith(ObjectClass::Car)),
            0,
        );
        let without_rel = frame_with(
            ObjectAttributes::simple(ObjectClass::Car)
                .with_color(Color::Red)
                .with_location(lovo_video::object::Location::RoadCenter),
            1,
        );
        let candidates = vec![
            CandidateFrame {
                video_id: 0,
                frame: &without_rel,
                seed_box: None,
            },
            CandidateFrame {
                video_id: 0,
                frame: &with_rel,
                seed_box: None,
            },
        ];
        let ranked = t
            .rerank_with_constraints(&TextEncoder::parse(query), &candidates)
            .unwrap();
        assert_eq!(ranked[0].frame_index, 0);
    }

    #[test]
    fn grounded_box_is_the_matching_objects_box() {
        let t = transformer();
        let mut frame = Frame::empty(0, 0.0, 1280, 720);
        frame.objects.push(SceneObject {
            track: TrackId(1),
            attributes: ObjectAttributes::simple(ObjectClass::Person),
            bbox: BoundingBox::new(10.0, 10.0, 40.0, 100.0),
            velocity: (0.0, 0.0),
        });
        frame.objects.push(SceneObject {
            track: TrackId(2),
            attributes: ObjectAttributes::simple(ObjectClass::Bus).with_color(Color::Green),
            bbox: BoundingBox::new(600.0, 300.0, 260.0, 110.0),
            velocity: (0.0, 0.0),
        });
        let constraints = TextEncoder::parse("a green bus on the road");
        let (_, bbox) = t.score_frame(&constraints, &frame, None).unwrap();
        assert!(bbox.iou(&frame.objects[1].bbox) > 0.99);
    }

    #[test]
    fn repeated_frames_share_a_score_and_keep_their_own_boxes() {
        let t = transformer();
        let bus = ObjectAttributes::simple(ObjectClass::Bus).with_color(Color::Green);
        let person = ObjectAttributes::simple(ObjectClass::Person);
        let frame = |index: usize, objects: [(&ObjectAttributes, f32); 2]| {
            let mut f = Frame::empty(index, index as f64, 1280, 720);
            for (o, (attributes, x)) in objects.into_iter().enumerate() {
                f.objects.push(SceneObject {
                    track: TrackId(o as u64),
                    attributes: attributes.clone(),
                    bbox: BoundingBox::new(x, 50.0, 100.0, 80.0),
                    velocity: (0.0, 0.0),
                });
            }
            f
        };
        // The same tokens under other boxes, then the same objects reversed.
        let first = frame(0, [(&person, 10.0), (&bus, 300.0)]);
        let repeat = frame(1, [(&person, 20.0), (&bus, 400.0)]);
        let reversed = frame(2, [(&bus, 500.0), (&person, 30.0)]);
        let candidates: Vec<CandidateFrame<'_>> = [&first, &repeat, &reversed]
            .into_iter()
            .zip(0..)
            .map(|(frame, video_id)| CandidateFrame {
                video_id,
                frame,
                seed_box: None,
            })
            .collect();
        let constraints = TextEncoder::parse("a green bus on the road");
        let mut ranked = t
            .rerank_with_constraints(&constraints, &candidates)
            .unwrap();
        ranked.sort_by_key(|r| r.frame_index);
        assert_eq!(ranked[0].score.to_bits(), ranked[1].score.to_bits());
        let boxes: Vec<f32> = ranked.iter().map(|r| r.bbox.x).collect();
        assert_eq!(boxes, [300.0, 400.0, 500.0]);
        for (r, c) in ranked.iter().zip(&candidates) {
            let (score, bbox) = reference_score_frame(&t, &constraints, c.frame, None);
            assert_eq!((r.score.to_bits(), r.bbox), (score.to_bits(), bbox));
        }
    }

    #[test]
    fn empty_frame_or_query_falls_back_gracefully() {
        let t = transformer();
        let empty = Frame::empty(0, 0.0, 640, 360);
        let constraints = TextEncoder::parse("a red car");
        let seed = BoundingBox::new(5.0, 5.0, 50.0, 50.0);
        let (score, bbox) = t.score_frame(&constraints, &empty, Some(seed)).unwrap();
        assert_eq!(score, 0.0);
        assert_eq!(bbox, seed);

        let frame = frame_with(ObjectAttributes::simple(ObjectClass::Car), 0);
        let (score2, _) = t
            .score_frame(&QueryConstraints::default(), &frame, None)
            .unwrap();
        assert_eq!(score2, 0.0);
    }

    #[test]
    fn rerank_is_deterministic_and_sorted() {
        let t = transformer();
        let frames: Vec<Frame> = (0..5)
            .map(|i| {
                frame_with(
                    ObjectAttributes::simple(ObjectClass::Car).with_color(if i % 2 == 0 {
                        Color::Red
                    } else {
                        Color::Blue
                    }),
                    i,
                )
            })
            .collect();
        let candidates: Vec<CandidateFrame> = frames
            .iter()
            .map(|f| CandidateFrame {
                video_id: 0,
                frame: f,
                seed_box: None,
            })
            .collect();
        let constraints = TextEncoder::parse("a red car on the road");
        let a = t
            .rerank_with_constraints(&constraints, &candidates)
            .unwrap();
        let b = t
            .rerank_with_constraints(&constraints, &candidates)
            .unwrap();
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        // Red frames (even indices) must outrank blue ones.
        assert!(a[0].frame_index % 2 == 0);
        assert!(a[1].frame_index % 2 == 0);
    }
}
