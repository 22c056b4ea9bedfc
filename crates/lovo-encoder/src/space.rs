//! The shared attribute-grounded embedding space.
//!
//! Every semantic facet value (class "bus", colour "red", activity "dancing",
//! …) owns a deterministic pseudo-random unit direction in the `D'`-dimensional
//! class-embedding space. An object's embedding is a weighted sum of the
//! directions of its attributes; a query's embedding is a weighted sum of the
//! directions of its constraints. Because both modalities use the *same*
//! directions, dot-product similarity is high exactly when attributes match —
//! this is the stand-in for CLIP-style vision–language pre-training (see the
//! crate-level documentation and DESIGN.md for the argument).
//!
//! Two deliberate imperfections keep the retrieval problem realistic:
//!
//! * visually similar colours (white/light, black/dark, green/yellow-green)
//!   share a common direction component, so near-miss colours partially match;
//! * facet weights differ between the fast-search view (class, colour and
//!   location dominate; relations and accessories are dropped, §VI-A) and the
//!   fine-grained view used by the rerank transformer (everything included).

use lovo_tensor::init::rng_for;
use lovo_tensor::ops::l2_normalize;
use lovo_video::object::{
    Accessory, Activity, Color, Gender, Location, ObjectAttributes, ObjectClass, Relation,
    SizeClass,
};
use lovo_video::query::QueryConstraints;
use rand::Rng;

/// The semantic facets that own directions in the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeFacet {
    /// Object class.
    Class,
    /// Colour.
    Color,
    /// Shared component between visually similar colours.
    ColorFamily,
    /// Size.
    Size,
    /// Activity.
    Activity,
    /// Location.
    Location,
    /// Relation kind (none / side-by-side / next-to).
    RelationKind,
    /// Relation peer class.
    RelationPeer,
    /// Accessory.
    Accessory,
    /// Gender presentation.
    Gender,
}

impl AttributeFacet {
    fn label(&self) -> &'static str {
        match self {
            AttributeFacet::Class => "class",
            AttributeFacet::Color => "color",
            AttributeFacet::ColorFamily => "color_family",
            AttributeFacet::Size => "size",
            AttributeFacet::Activity => "activity",
            AttributeFacet::Location => "location",
            AttributeFacet::RelationKind => "relation_kind",
            AttributeFacet::RelationPeer => "relation_peer",
            AttributeFacet::Accessory => "accessory",
            AttributeFacet::Gender => "gender",
        }
    }
}

/// One fine-grained token of the rerank view, named by value rather than by
/// vector: the facet and the code of the value within it. The set of tokens
/// any object or query can produce is closed ([`FineToken::codebook`]), which
/// is what lets the rerank compute per-token features once and look them up
/// afterwards; [`AttributeSpace::token_direction`] gives a token's vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FineToken {
    /// The facet the token speaks about. `Color` means the blended colour
    /// direction ([`AttributeSpace::color_direction`]).
    pub facet: AttributeFacet,
    /// The value's stable code within the facet.
    pub code: usize,
}

impl FineToken {
    /// The token of `code` within `facet`.
    pub fn new(facet: AttributeFacet, code: usize) -> Self {
        Self { facet, code }
    }

    /// Every token reachable from the attribute enums: all classes, colours,
    /// sizes, activities, locations and accessories, both specified genders,
    /// both relation kinds and every relation peer class.
    pub fn codebook() -> Vec<FineToken> {
        let facet = |facet, codes: std::ops::Range<usize>| {
            codes.map(move |code| FineToken::new(facet, code))
        };
        facet(AttributeFacet::Class, 0..ObjectClass::ALL.len())
            .chain(facet(AttributeFacet::Color, 0..Color::ALL.len()))
            .chain(facet(AttributeFacet::Size, 0..SizeClass::ALL.len()))
            .chain(facet(AttributeFacet::Activity, 0..Activity::ALL.len()))
            .chain(facet(AttributeFacet::Location, 0..Location::ALL.len()))
            .chain(facet(AttributeFacet::Gender, 1..3))
            .chain(facet(AttributeFacet::RelationKind, 1..3))
            .chain(facet(
                AttributeFacet::RelationPeer,
                0..ObjectClass::ALL.len(),
            ))
            .chain(facet(AttributeFacet::Accessory, 0..Accessory::ALL.len()))
            .collect()
    }

    /// The tokens of an object, in the order the rerank attends over them:
    /// one per present facet (class, colour, size, activity, location, then
    /// gender, relation kind and peer where set, then each accessory).
    pub fn of_attributes(attrs: &ObjectAttributes) -> impl Iterator<Item = FineToken> + '_ {
        Self::of_facets(
            Some(attrs.class),
            Some(attrs.color),
            Some(attrs.size),
            Some(attrs.activity),
            Some(attrs.location),
            Some(attrs.gender),
            Some(attrs.relation),
            &attrs.accessories,
        )
    }

    /// The tokens of a query's constraints: one per constrained facet, in the
    /// same facet order as [`FineToken::of_attributes`].
    pub fn of_constraints(constraints: &QueryConstraints) -> impl Iterator<Item = FineToken> + '_ {
        Self::of_facets(
            constraints.class,
            constraints.color,
            constraints.size,
            constraints.activity,
            constraints.location,
            constraints.gender,
            constraints.relation,
            &constraints.accessories,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn of_facets(
        class: Option<ObjectClass>,
        color: Option<Color>,
        size: Option<SizeClass>,
        activity: Option<Activity>,
        location: Option<Location>,
        gender: Option<Gender>,
        relation: Option<Relation>,
        accessories: &[Accessory],
    ) -> impl Iterator<Item = FineToken> + '_ {
        // An unspecified gender and the `None` relation carry code 0 and
        // produce no token.
        let gender = gender.map(|g| g.code()).filter(|&code| code != 0);
        let relation = relation.filter(|r| r.kind_code() != 0);
        [
            class.map(|v| FineToken::new(AttributeFacet::Class, v.code())),
            color.map(|v| FineToken::new(AttributeFacet::Color, v.code())),
            size.map(|v| FineToken::new(AttributeFacet::Size, v.code())),
            activity.map(|v| FineToken::new(AttributeFacet::Activity, v.code())),
            location.map(|v| FineToken::new(AttributeFacet::Location, v.code())),
            gender.map(|code| FineToken::new(AttributeFacet::Gender, code)),
            relation.map(|r| FineToken::new(AttributeFacet::RelationKind, r.kind_code())),
            relation
                .and_then(|r| r.peer())
                .map(|peer| FineToken::new(AttributeFacet::RelationPeer, peer.code())),
        ]
        .into_iter()
        .flatten()
        .chain(
            accessories
                .iter()
                .map(|a| FineToken::new(AttributeFacet::Accessory, a.code())),
        )
    }
}

/// Relative weight of each facet in the coarse (fast-search) view of an
/// embedding. Relations and accessories are intentionally absent: the fast
/// search "omits fine-grained positional information and cross-word
/// dependencies" (§VI-A).
const COARSE_WEIGHTS: &[(AttributeFacet, f32)] = &[
    (AttributeFacet::Class, 1.0),
    (AttributeFacet::Color, 0.65),
    (AttributeFacet::ColorFamily, 0.25),
    (AttributeFacet::Location, 0.45),
    (AttributeFacet::Activity, 0.35),
    (AttributeFacet::Size, 0.2),
    (AttributeFacet::Gender, 0.2),
];

/// Relative weight of each facet in the fine-grained view used by the
/// cross-modality rerank, which fuses every detail of the query with the
/// object's visual information.
const FINE_WEIGHTS: &[(AttributeFacet, f32)] = &[
    (AttributeFacet::Class, 1.0),
    (AttributeFacet::Color, 0.8),
    (AttributeFacet::ColorFamily, 0.2),
    (AttributeFacet::Location, 0.7),
    (AttributeFacet::Activity, 0.7),
    (AttributeFacet::Size, 0.5),
    (AttributeFacet::Gender, 0.5),
    (AttributeFacet::RelationKind, 0.9),
    (AttributeFacet::RelationPeer, 0.6),
    (AttributeFacet::Accessory, 0.9),
];

/// Which facet weighting to use when composing an embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetailLevel {
    /// Fast-search view: coarse facets only.
    Coarse,
    /// Rerank view: every facet, fine details included.
    Fine,
}

/// The shared embedding space.
#[derive(Debug, Clone)]
pub struct AttributeSpace {
    dim: usize,
    seed: u64,
}

impl AttributeSpace {
    /// Creates a space of the given dimensionality, deterministically derived
    /// from `seed`.
    pub fn new(dim: usize, seed: u64) -> Self {
        Self { dim, seed }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The unit direction owned by `(facet, code)`.
    pub fn direction(&self, facet: AttributeFacet, code: usize) -> Vec<f32> {
        let mut rng = rng_for(self.seed, &format!("space.{}.{}", facet.label(), code));
        let mut v: Vec<f32> = (0..self.dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        l2_normalize(&mut v);
        v
    }

    /// The "colour family" code shared by visually similar colours; colours in
    /// the same family partially overlap in embedding space.
    fn color_family_code(color: Color) -> usize {
        match color {
            Color::White | Color::Light | Color::Gray => 0,
            Color::Black | Color::Dark => 1,
            Color::Green | Color::YellowGreen => 2,
            Color::Red => 3,
            Color::Blue => 4,
        }
    }

    /// The direction of a colour: a blend of the colour's own direction and
    /// its family direction, so visually similar colours (white/light,
    /// black/dark, green/yellow-green) overlap substantially while distinct
    /// colours stay nearly orthogonal.
    pub fn color_direction(&self, color: Color) -> Vec<f32> {
        let own = self.direction(AttributeFacet::Color, color.code());
        let family = self.direction(AttributeFacet::ColorFamily, Self::color_family_code(color));
        let mut blended: Vec<f32> = own
            .iter()
            .zip(family.iter())
            .map(|(o, f)| 0.75 * o + 0.65 * f)
            .collect();
        l2_normalize(&mut blended);
        blended
    }

    fn add_scaled(acc: &mut [f32], dir: &[f32], weight: f32) {
        for (a, d) in acc.iter_mut().zip(dir.iter()) {
            *a += weight * d;
        }
    }

    fn weight_for(weights: &[(AttributeFacet, f32)], facet: AttributeFacet) -> f32 {
        weights
            .iter()
            .find(|(f, _)| *f == facet)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// Embeds ground-truth object attributes at the requested detail level.
    /// The result is L2-normalized.
    pub fn embed_attributes(&self, attrs: &ObjectAttributes, level: DetailLevel) -> Vec<f32> {
        let weights = match level {
            DetailLevel::Coarse => COARSE_WEIGHTS,
            DetailLevel::Fine => FINE_WEIGHTS,
        };
        let mut acc = vec![0.0f32; self.dim];
        let w = |facet| Self::weight_for(weights, facet);

        Self::add_scaled(
            &mut acc,
            &self.direction(AttributeFacet::Class, attrs.class.code()),
            w(AttributeFacet::Class),
        );
        Self::add_scaled(
            &mut acc,
            &self.color_direction(attrs.color),
            w(AttributeFacet::Color) + w(AttributeFacet::ColorFamily),
        );
        Self::add_scaled(
            &mut acc,
            &self.direction(AttributeFacet::Size, attrs.size.code()),
            w(AttributeFacet::Size),
        );
        Self::add_scaled(
            &mut acc,
            &self.direction(AttributeFacet::Activity, attrs.activity.code()),
            w(AttributeFacet::Activity),
        );
        Self::add_scaled(
            &mut acc,
            &self.direction(AttributeFacet::Location, attrs.location.code()),
            w(AttributeFacet::Location),
        );
        if attrs.gender.code() != 0 {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Gender, attrs.gender.code()),
                w(AttributeFacet::Gender),
            );
        }
        let rel_kind = attrs.relation.kind_code();
        if rel_kind != 0 {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::RelationKind, rel_kind),
                w(AttributeFacet::RelationKind),
            );
            if let Some(peer) = attrs.relation.peer() {
                Self::add_scaled(
                    &mut acc,
                    &self.direction(AttributeFacet::RelationPeer, peer.code()),
                    w(AttributeFacet::RelationPeer),
                );
            }
        }
        for acc_item in &attrs.accessories {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Accessory, acc_item.code()),
                w(AttributeFacet::Accessory),
            );
        }
        l2_normalize(&mut acc);
        acc
    }

    /// Embeds the constraints of a query at the requested detail level.
    /// The result is L2-normalized. Unconstrained facets contribute nothing.
    pub fn embed_constraints(
        &self,
        constraints: &QueryConstraints,
        level: DetailLevel,
    ) -> Vec<f32> {
        let weights = match level {
            DetailLevel::Coarse => COARSE_WEIGHTS,
            DetailLevel::Fine => FINE_WEIGHTS,
        };
        let mut acc = vec![0.0f32; self.dim];
        let w = |facet| Self::weight_for(weights, facet);

        if let Some(class) = constraints.class {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Class, class.code()),
                w(AttributeFacet::Class),
            );
        }
        if let Some(color) = constraints.color {
            Self::add_scaled(
                &mut acc,
                &self.color_direction(color),
                w(AttributeFacet::Color) + w(AttributeFacet::ColorFamily),
            );
        }
        if let Some(size) = constraints.size {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Size, size.code()),
                w(AttributeFacet::Size),
            );
        }
        if let Some(activity) = constraints.activity {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Activity, activity.code()),
                w(AttributeFacet::Activity),
            );
        }
        if let Some(location) = constraints.location {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Location, location.code()),
                w(AttributeFacet::Location),
            );
        }
        if let Some(gender) = constraints.gender {
            if gender.code() != 0 {
                Self::add_scaled(
                    &mut acc,
                    &self.direction(AttributeFacet::Gender, gender.code()),
                    w(AttributeFacet::Gender),
                );
            }
        }
        if let Some(relation) = &constraints.relation {
            let kind = relation.kind_code();
            if kind != 0 {
                Self::add_scaled(
                    &mut acc,
                    &self.direction(AttributeFacet::RelationKind, kind),
                    w(AttributeFacet::RelationKind),
                );
                if let Some(peer) = relation.peer() {
                    Self::add_scaled(
                        &mut acc,
                        &self.direction(AttributeFacet::RelationPeer, peer.code()),
                        w(AttributeFacet::RelationPeer),
                    );
                }
            }
        }
        for acc_item in &constraints.accessories {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Accessory, acc_item.code()),
                w(AttributeFacet::Accessory),
            );
        }
        l2_normalize(&mut acc);
        acc
    }

    /// The vector of a fine-grained token: the blended
    /// [`color_direction`](Self::color_direction) for a colour, the facet's
    /// own [`direction`](Self::direction) for everything else (including a
    /// colour code no [`Color`] carries).
    pub fn token_direction(&self, token: FineToken) -> Vec<f32> {
        match (token.facet, Color::ALL.get(token.code)) {
            (AttributeFacet::Color, Some(&color)) => self.color_direction(color),
            _ => self.direction(token.facet, token.code),
        }
    }

    /// Per-facet fine-grained token vectors of an object — one token per
    /// present facet. The cross-modality transformer attends over these.
    pub fn fine_tokens_of_attributes(&self, attrs: &ObjectAttributes) -> Vec<Vec<f32>> {
        FineToken::of_attributes(attrs)
            .map(|token| self.token_direction(token))
            .collect()
    }

    /// Per-facet fine-grained token vectors of a query's constraints.
    pub fn fine_tokens_of_constraints(&self, constraints: &QueryConstraints) -> Vec<Vec<f32>> {
        FineToken::of_constraints(constraints)
            .map(|token| self.token_direction(token))
            .collect()
    }

    /// A deterministic "background" embedding for patches that cover no
    /// object (sky, pavement, vegetation), far from every attribute direction
    /// in expectation.
    pub fn background_embedding(&self, variant: usize) -> Vec<f32> {
        let mut rng = rng_for(self.seed, &format!("space.background.{variant}"));
        let mut v: Vec<f32> = (0..self.dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        l2_normalize(&mut v);
        v
    }
}

// The colour-family mapping must stay exhaustive; adding a colour without
// updating it is a compile error thanks to the match above.

#[cfg(test)]
mod tests {
    use super::*;
    use lovo_tensor::ops::dot;
    use lovo_video::object::{Accessory, Location, Relation};
    use lovo_video::ObjectClass;

    fn space() -> AttributeSpace {
        AttributeSpace::new(64, 7)
    }

    fn red_center_car() -> ObjectAttributes {
        ObjectAttributes::simple(ObjectClass::Car)
            .with_color(Color::Red)
            .with_location(Location::RoadCenter)
    }

    fn query_red_car() -> QueryConstraints {
        QueryConstraints {
            class: Some(ObjectClass::Car),
            color: Some(Color::Red),
            location: Some(Location::RoadCenter),
            ..Default::default()
        }
    }

    #[test]
    fn directions_are_unit_and_deterministic() {
        let s = space();
        let a = s.direction(AttributeFacet::Class, 2);
        let b = s.direction(AttributeFacet::Class, 2);
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_ne!(a, s.direction(AttributeFacet::Class, 3));
        assert_ne!(a, s.direction(AttributeFacet::Color, 2));
    }

    #[test]
    fn matching_query_scores_higher_than_mismatch() {
        let s = space();
        let q = s.embed_constraints(&query_red_car(), DetailLevel::Coarse);
        let target = s.embed_attributes(&red_center_car(), DetailLevel::Coarse);
        let wrong_color = s.embed_attributes(
            &red_center_car().with_color(Color::Blue),
            DetailLevel::Coarse,
        );
        let wrong_class = s.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Bus).with_color(Color::Red),
            DetailLevel::Coarse,
        );
        assert!(dot(&q, &target) > dot(&q, &wrong_color));
        assert!(dot(&q, &target) > dot(&q, &wrong_class));
        assert!(dot(&q, &target) > 0.5);
    }

    #[test]
    fn similar_colors_partially_overlap() {
        let s = space();
        let white = s.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Person).with_color(Color::White),
            DetailLevel::Coarse,
        );
        let light = s.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Person).with_color(Color::Light),
            DetailLevel::Coarse,
        );
        let red = s.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Person).with_color(Color::Red),
            DetailLevel::Coarse,
        );
        assert!(dot(&white, &light) > dot(&white, &red));
    }

    #[test]
    fn coarse_view_ignores_relations_fine_view_does_not() {
        let s = space();
        let plain = red_center_car();
        let with_rel = red_center_car().with_relation(Relation::SideBySideWith(ObjectClass::Car));
        let coarse_plain = s.embed_attributes(&plain, DetailLevel::Coarse);
        let coarse_rel = s.embed_attributes(&with_rel, DetailLevel::Coarse);
        let fine_plain = s.embed_attributes(&plain, DetailLevel::Fine);
        let fine_rel = s.embed_attributes(&with_rel, DetailLevel::Fine);
        let coarse_gap = 1.0 - dot(&coarse_plain, &coarse_rel);
        let fine_gap = 1.0 - dot(&fine_plain, &fine_rel);
        assert!(coarse_gap < 1e-5, "coarse view should not see relations");
        assert!(fine_gap > 0.05, "fine view must distinguish relations");
    }

    #[test]
    fn background_is_far_from_objects() {
        let s = space();
        let bg = s.background_embedding(0);
        let car = s.embed_attributes(&red_center_car(), DetailLevel::Coarse);
        assert!(dot(&bg, &car).abs() < 0.5);
    }

    #[test]
    fn fine_tokens_cover_constrained_facets() {
        let s = space();
        let mut constraints = query_red_car();
        constraints.accessories.push(Accessory::WhiteRoof);
        constraints.relation = Some(Relation::SideBySideWith(ObjectClass::Car));
        let tokens = s.fine_tokens_of_constraints(&constraints);
        // class + color + location + relation kind + relation peer + accessory = 6
        assert_eq!(tokens.len(), 6);
        assert!(tokens.iter().all(|t| t.len() == 64));
        let empty = s.fine_tokens_of_constraints(&QueryConstraints::default());
        assert!(empty.is_empty());
    }

    #[test]
    fn fine_tokens_of_attributes_include_accessories() {
        let s = space();
        let attrs = ObjectAttributes::simple(ObjectClass::Bus)
            .with_accessory(Accessory::WhiteRoof)
            .with_accessory(Accessory::CargoLoad);
        let tokens = s.fine_tokens_of_attributes(&attrs);
        // class, color, size, activity, location + 2 accessories
        assert_eq!(tokens.len(), 7);
    }

    #[test]
    fn all_colors_have_a_family() {
        // Exhaustiveness is enforced by the match, but make sure families
        // group what Color::is_similar_to considers similar.
        for a in Color::ALL {
            for b in Color::ALL {
                if a != b && a.is_similar_to(&b) {
                    assert_eq!(
                        AttributeSpace::color_family_code(a),
                        AttributeSpace::color_family_code(b),
                        "{a:?} and {b:?} are similar but in different families"
                    );
                }
            }
        }
    }
}
