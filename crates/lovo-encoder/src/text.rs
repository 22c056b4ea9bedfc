//! The text encoder and query parser (§VI-A).
//!
//! A user query arrives as a natural-language sentence. The encoder
//! tokenizes it, extracts the attribute phrases it can recognize (class,
//! colour, size, activity, location, relations, accessories, gender), and
//! produces a single sentence-level embedding in the shared attribute space.
//! Exactly as the paper describes, the **fast-search embedding keeps only the
//! key phrases and drops cross-word relationships** ("side by side with…",
//! "next to…") and other fine-grained details; those are preserved in the
//! parsed constraints and consumed later by the cross-modality rerank.
//!
//! The parsed [`QueryConstraints`] double as the structured form the rerank
//! transformer tokenizes; ground truth in the evaluation harness is defined by
//! constraints constructed independently, so parser mistakes show up as
//! accuracy loss rather than being hidden.

use crate::space::{AttributeSpace, DetailLevel};
use crate::{EncoderError, Result};
use lovo_tensor::init::rng_for;
use lovo_tensor::ops::l2_normalize;
use lovo_tensor::{Linear, Matrix, MultiHeadAttention};
use lovo_video::object::{
    Accessory, Activity, Color, Gender, Location, ObjectClass, Relation, SizeClass,
};
use lovo_video::query::QueryConstraints;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the text encoder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TextEncoderConfig {
    /// Embedding dimension; must equal the visual encoder's `class_dim`.
    pub class_dim: usize,
    /// Internal token dimension of the sentence transformer.
    pub token_dim: usize,
    /// Attention heads of the sentence transformer.
    pub heads: usize,
    /// Fraction of the final embedding contributed by the transformer context.
    pub context_mix: f32,
    /// Observation noise amplitude.
    pub noise: f32,
    /// Weight-initialization seed; must equal the visual encoder's seed so
    /// both share one attribute space.
    pub seed: u64,
}

impl Default for TextEncoderConfig {
    fn default() -> Self {
        Self {
            class_dim: 32,
            token_dim: 64,
            heads: 4,
            context_mix: 0.1,
            noise: 0.02,
            seed: 0x0715,
        }
    }
}

impl TextEncoderConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.class_dim == 0 || self.token_dim == 0 {
            return Err(EncoderError::InvalidConfig(
                "class_dim and token_dim must be positive".into(),
            ));
        }
        if self.token_dim % self.heads != 0 {
            return Err(EncoderError::InvalidConfig(format!(
                "token_dim {} not divisible by heads {}",
                self.token_dim, self.heads
            )));
        }
        Ok(())
    }
}

/// Output of encoding a query: the fast-search embedding plus the parsed
/// constraints (used by the rerank stage and by diagnostics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryEmbedding {
    /// The original query text.
    pub text: String,
    /// L2-normalized sentence embedding used by the fast search.
    pub embedding: Vec<f32>,
    /// Attribute constraints recognized in the text.
    pub parsed: QueryConstraints,
    /// Key phrases the encoder kept for the fast-search embedding.
    pub key_phrases: Vec<String>,
}

/// The text encoder.
pub struct TextEncoder {
    config: TextEncoderConfig,
    space: AttributeSpace,
    token_proj: Linear,
    attention: MultiHeadAttention,
    output_proj: Linear,
}

impl TextEncoder {
    /// Creates a text encoder sharing the attribute space of the visual
    /// encoder constructed with the same `class_dim` and `seed`.
    pub fn new(config: TextEncoderConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            space: AttributeSpace::new(config.class_dim, config.seed),
            token_proj: Linear::new(config.class_dim, config.token_dim, config.seed, "txt.input"),
            attention: MultiHeadAttention::new(
                config.token_dim,
                config.heads,
                config.seed,
                "txt.attn",
            )?,
            output_proj: Linear::new(
                config.token_dim,
                config.class_dim,
                config.seed,
                "txt.output",
            ),
            config,
        })
    }

    /// The encoder configuration.
    pub fn config(&self) -> &TextEncoderConfig {
        &self.config
    }

    /// The shared attribute space.
    pub fn space(&self) -> &AttributeSpace {
        &self.space
    }

    /// Lower-cases and splits query text into word tokens.
    pub fn tokenize(text: &str) -> Vec<String> {
        text.to_lowercase()
            .split(|c: char| !c.is_alphanumeric() && c != '-')
            .filter(|t| !t.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// Parses the attribute constraints mentioned in the text.
    pub fn parse(text: &str) -> QueryConstraints {
        let lower = text.to_lowercase();
        let tokens = Self::tokenize(&lower);
        let has = |needle: &str| lower.contains(needle);
        let has_word = |w: &str| tokens.iter().any(|t| t == w);

        // --- object class ---
        let class = if has_word("suv") {
            Some(ObjectClass::Suv)
        } else if has_word("bus") {
            Some(ObjectClass::Bus)
        } else if has_word("truck") {
            Some(ObjectClass::Truck)
        } else if has_word("dog") {
            Some(ObjectClass::Dog)
        } else if has("riding a bicycle") || has_word("bicyclist") || has_word("bicycle") {
            Some(ObjectClass::Bicyclist)
        } else if has_word("person")
            || has_word("woman")
            || has_word("man")
            || has_word("pedestrian")
        {
            Some(ObjectClass::Person)
        } else if has_word("car") {
            Some(ObjectClass::Car)
        } else {
            None
        };

        let mut c = QueryConstraints {
            class,
            ..QueryConstraints::default()
        };

        // --- gender ---
        if has_word("woman") || has_word("women") {
            c.gender = Some(Gender::Woman);
        } else if has_word("man") || has_word("men") {
            c.gender = Some(Gender::Man);
        }

        // --- colour (first match wins; accessory colours are handled below) ---
        c.color = if has("yellow-green") || has("yellow green") {
            Some(Color::YellowGreen)
        } else if has("light-colored") || has("light colored") || has("light-coloured") {
            Some(Color::Light)
        } else if has_word("red") && !has("red hair") && !has("red-hair") && !has("red life jacket")
        {
            Some(Color::Red)
        } else if has_word("green") {
            Some(Color::Green)
        } else if has_word("black") && !has("black t-shirt") && !has("black clothes") {
            Some(Color::Black)
        } else if has_word("white") && !has("white roof") && !has("white dress") {
            Some(Color::White)
        } else if has_word("blue") && !has("blue jeans") {
            Some(Color::Blue)
        } else if has_word("gray") || has_word("grey") && !has("grey skirt") {
            Some(Color::Gray)
        } else {
            None
        };

        // --- size ---
        c.size = if has_word("large") || has_word("big") {
            Some(SizeClass::Large)
        } else if has_word("small") {
            Some(SizeClass::Small)
        } else {
            None
        };

        // --- activity ---
        c.activity = if has("riding a bicycle") || has_word("riding") {
            Some(Activity::RidingBicycle)
        } else if has_word("walking") {
            Some(Activity::Walking)
        } else if has_word("dancing") {
            Some(Activity::Dancing)
        } else if has_word("sitting") {
            Some(Activity::Sitting)
        } else if has_word("park") || has_word("parked") {
            Some(Activity::Parked)
        } else if has("filled with cargo") || has("carrying cargo") {
            Some(Activity::CarryingCargo)
        } else if has_word("driving") {
            Some(Activity::Driving)
        } else if has_word("smiling") {
            Some(Activity::Smiling)
        } else {
            None
        };

        // --- location ---
        c.location = if has("center of the road") || has("centre of the road") {
            Some(Location::RoadCenter)
        } else if has("intersection") {
            Some(Location::Intersection)
        } else if has("inside car") || has("inside a car") || has("inside the car") {
            Some(Location::InsideCar)
        } else if has("in the room") {
            Some(Location::Room)
        } else if has("meadow") {
            Some(Location::Meadow)
        } else if has("outdoors") || has("outdoor") {
            Some(Location::Outdoors)
        } else if has("sidewalk") || has("street") {
            Some(Location::Sidewalk)
        } else if has("road") {
            Some(Location::Road)
        } else {
            None
        };

        // --- relations ---
        if has("side by side") {
            // Table II's side-by-side queries always pair with another car.
            c.relation = Some(Relation::SideBySideWith(ObjectClass::Car));
        } else if has("next to") {
            let peer = if has("next to a woman") || has("next to the woman") {
                ObjectClass::Person
            } else if has("next to the car") || has("next to a car") {
                ObjectClass::Car
            } else {
                ObjectClass::Person
            };
            c.relation = Some(Relation::NextTo(peer));
        }

        // --- accessories / detailed descriptions ---
        if has("dark bag") {
            c.accessories.push(Accessory::DarkBag);
        }
        if has("black t-shirt") && has("jeans") {
            c.accessories.push(Accessory::BlackTshirtBlueJeans);
        }
        if has("white roof") {
            c.accessories.push(Accessory::WhiteRoof);
        }
        if has("white dress") {
            c.accessories.push(Accessory::WhiteDress);
        }
        if has("red-hair") || has("red hair") {
            c.accessories.push(Accessory::RedHair);
        }
        if has("black clothes") {
            c.accessories.push(Accessory::BlackClothes);
        }
        if has("a hat") || has("with hat") {
            c.accessories.push(Accessory::Hat);
        }
        if has("life jacket") {
            c.accessories.push(Accessory::RedLifeJacket);
        }
        if has("grey skirt") || has("gray skirt") {
            c.accessories.push(Accessory::GreySkirt);
        }
        if has("filled with cargo") || has("cargo") {
            c.accessories.push(Accessory::CargoLoad);
        }

        c
    }

    /// Key phrases retained for the fast-search embedding: the class, colour,
    /// size, activity and location words, with relations and fine details
    /// dropped (§VI-A).
    pub fn key_phrases(constraints: &QueryConstraints) -> Vec<String> {
        let mut phrases = Vec::new();
        if let Some(size) = constraints.size {
            phrases.push(size.name().to_string());
        }
        if let Some(color) = constraints.color {
            phrases.push(color.name().to_string());
        }
        if let Some(class) = constraints.class {
            phrases.push(class.name().to_string());
        }
        if let Some(activity) = constraints.activity {
            phrases.push(activity.name().to_string());
        }
        if let Some(location) = constraints.location {
            phrases.push(location.name().to_string());
        }
        phrases
    }

    /// Encodes a query into its fast-search embedding and parsed constraints.
    pub fn encode(&self, text: &str) -> Result<QueryEmbedding> {
        let parsed = Self::parse(text);
        // Coarse attribute projection: the shared-space component that aligns
        // the query with matching visual patch embeddings.
        let mut embedding = self.space.embed_constraints(&parsed, DetailLevel::Coarse);

        // Sentence-transformer context: run the word tokens through a real
        // attention layer and fold a small fraction of the pooled output into
        // the embedding, standing in for whatever a trained sentence encoder
        // adds beyond the attribute keywords.
        let tokens = Self::tokenize(text);
        if !tokens.is_empty() && self.config.context_mix > 0.0 {
            let rows: Vec<Vec<f32>> = tokens
                .iter()
                .map(|t| {
                    let mut rng = rng_for(self.config.seed, &format!("txt.token.{t}"));
                    let mut v: Vec<f32> = (0..self.config.class_dim)
                        .map(|_| rng.gen_range(-1.0f32..1.0))
                        .collect();
                    l2_normalize(&mut v);
                    v
                })
                .collect();
            let token_matrix = Matrix::from_rows(&rows).map_err(EncoderError::from)?;
            let projected = self.token_proj.forward(&token_matrix)?;
            let attended = self.attention.self_attention(&projected)?;
            // Mean-pool and project back to the class-embedding space.
            let mut pooled = vec![0.0f32; self.config.token_dim];
            for r in 0..attended.rows() {
                for (p, v) in pooled.iter_mut().zip(attended.row(r).iter()) {
                    *p += v / attended.rows() as f32;
                }
            }
            let mut context = self.output_proj.forward_vec(&pooled)?;
            l2_normalize(&mut context);
            for (e, ctx) in embedding.iter_mut().zip(context.iter()) {
                *e = (1.0 - self.config.context_mix) * *e + self.config.context_mix * ctx;
            }
        }
        // Observation noise.
        if self.config.noise > 0.0 {
            let mut rng = rng_for(self.config.seed, &format!("txt.noise.{text}"));
            for e in embedding.iter_mut() {
                *e += rng.gen_range(-self.config.noise..=self.config.noise);
            }
        }
        l2_normalize(&mut embedding);

        Ok(QueryEmbedding {
            text: text.to_string(),
            key_phrases: Self::key_phrases(&parsed),
            embedding,
            parsed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lovo_tensor::ops::dot;

    fn encoder() -> TextEncoder {
        TextEncoder::new(TextEncoderConfig::default()).unwrap()
    }

    #[test]
    fn tokenize_splits_and_lowercases() {
        let t = TextEncoder::tokenize("A Red Car, side-by-side!");
        assert_eq!(t, vec!["a", "red", "car", "side-by-side"]);
    }

    /// The stand-alone rerank stage parses the text instead of encoding it
    /// (`Lovo::rerank_plan`); that is only right while `encode` attaches
    /// exactly what `parse` returns. The texts are the end-to-end benchmark's
    /// twelve.
    #[test]
    fn encode_attaches_exactly_what_parse_returns() {
        let e = encoder();
        for text in [
            "A red car driving in the center of the road.",
            "A red car side by side with another car, both positioned in the center of the road.",
            "A bus driving on the road.",
            "A bus driving on the road with white roof and yellow-green body.",
            "car",
            "red car in road",
            "red car side by side with another car, positioned in the center of the road",
            "a person walking on the sidewalk",
            "a truck driving on the road",
            "a white car driving on the road",
            "a blue car driving on the road",
            "a bus",
        ] {
            assert_eq!(e.encode(text).unwrap().parsed, TextEncoder::parse(text));
        }
    }

    #[test]
    fn parses_bellevue_complex_query() {
        let c = TextEncoder::parse(
            "A red car side by side with another car, both positioned in the center of the road.",
        );
        assert_eq!(c.class, Some(ObjectClass::Car));
        assert_eq!(c.color, Some(Color::Red));
        assert_eq!(c.location, Some(Location::RoadCenter));
        assert_eq!(c.relation, Some(Relation::SideBySideWith(ObjectClass::Car)));
    }

    #[test]
    fn parses_suv_as_unseen_class() {
        let c = TextEncoder::parse("black SUV driving in the intersection of the road");
        assert_eq!(c.class, Some(ObjectClass::Suv));
        assert_eq!(c.color, Some(Color::Black));
        assert_eq!(c.activity, Some(Activity::Driving));
        assert_eq!(c.location, Some(Location::Intersection));
    }

    #[test]
    fn parses_bus_with_white_roof() {
        let c =
            TextEncoder::parse("A bus driving on the road with white roof and yellow-green body.");
        assert_eq!(c.class, Some(ObjectClass::Bus));
        assert_eq!(c.color, Some(Color::YellowGreen));
        assert!(c.accessories.contains(&Accessory::WhiteRoof));
    }

    #[test]
    fn parses_person_and_dog_queries() {
        let c = TextEncoder::parse(
            "A person in light-colored clothing walking while holding a dark bag.",
        );
        assert_eq!(c.class, Some(ObjectClass::Person));
        assert_eq!(c.color, Some(Color::Light));
        assert_eq!(c.activity, Some(Activity::Walking));
        assert!(c.accessories.contains(&Accessory::DarkBag));

        let d =
            TextEncoder::parse("A white dog inside a car, next to a woman wearing black clothes.");
        assert_eq!(d.class, Some(ObjectClass::Dog));
        assert_eq!(d.color, Some(Color::White));
        assert_eq!(d.location, Some(Location::InsideCar));
        assert_eq!(d.relation, Some(Relation::NextTo(ObjectClass::Person)));
        assert!(d.accessories.contains(&Accessory::BlackClothes));
    }

    #[test]
    fn parses_activitynet_questions() {
        let c = TextEncoder::parse("does the car park on the meadow");
        assert_eq!(c.class, Some(ObjectClass::Car));
        assert_eq!(c.activity, Some(Activity::Parked));
        assert_eq!(c.location, Some(Location::Meadow));

        let d = TextEncoder::parse("is the person in the red life jacket outdoors");
        assert_eq!(d.class, Some(ObjectClass::Person));
        assert!(d.accessories.contains(&Accessory::RedLifeJacket));
        assert_eq!(d.location, Some(Location::Outdoors));
    }

    #[test]
    fn key_phrases_drop_relations() {
        let c = TextEncoder::parse(
            "A red car side by side with another car, both positioned in the center of the road.",
        );
        let phrases = TextEncoder::key_phrases(&c);
        assert!(phrases.contains(&"red".to_string()));
        assert!(phrases.contains(&"car".to_string()));
        assert!(!phrases.iter().any(|p| p.contains("side")));
    }

    #[test]
    fn embedding_is_normalized_and_deterministic() {
        let enc = encoder();
        let a = enc.encode("a red car driving on the road").unwrap();
        let b = enc.encode("a red car driving on the road").unwrap();
        assert_eq!(a.embedding, b.embedding);
        let norm: f32 = a.embedding.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
        assert_eq!(a.embedding.len(), 32);
    }

    #[test]
    fn query_embedding_aligns_with_matching_visual_attributes() {
        use lovo_video::ObjectAttributes;
        let enc = encoder();
        let q = enc.encode("a red car in the center of the road").unwrap();
        let space = enc.space();
        let target = space.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Car)
                .with_color(Color::Red)
                .with_location(Location::RoadCenter),
            DetailLevel::Fine,
        );
        let distractor = space.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Bus).with_color(Color::White),
            DetailLevel::Fine,
        );
        assert!(dot(&q.embedding, &target) > dot(&q.embedding, &distractor));
        assert!(dot(&q.embedding, &target) > 0.3);
    }

    #[test]
    fn different_queries_produce_different_embeddings() {
        let enc = encoder();
        let a = enc.encode("a red car").unwrap();
        let b = enc.encode("a white dog inside a car").unwrap();
        assert!(dot(&a.embedding, &b.embedding) < 0.95);
    }

    #[test]
    fn unparseable_text_still_produces_an_embedding() {
        let enc = encoder();
        let q = enc.encode("zorbulating quixotic flibbertigibbet").unwrap();
        assert_eq!(q.parsed, QueryConstraints::default());
        let norm: f32 = q.embedding.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-3);
    }
}
