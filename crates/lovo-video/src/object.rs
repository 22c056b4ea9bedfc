//! Semantic object model: the ground-truth attributes an object carries.
//!
//! The evaluation queries in the paper (Table II / Table VI) combine an object
//! class ("car", "SUV", "bus", "person", "dog"), visual attributes ("red",
//! "white roof", "light-colored clothing"), an activity ("walking", "riding a
//! bicycle", "driving", "sitting", "dancing"), a location ("on the road", "in
//! the intersection", "inside a car", "in the room"), and spatial relations
//! ("side by side with another car", "next to a woman"). This module encodes
//! that attribute space. Both the synthetic scenes and the query parser speak
//! this vocabulary, which is what lets the reproduction compute exact ground
//! truth while still exercising the full embedding/indexing/rerank pipeline.

use serde::{Deserialize, Serialize};

/// Object categories appearing in the evaluation datasets.
///
/// `Suv` is intentionally *not* part of the predefined (MSCOCO-style) label
/// set: the paper uses "SUV" as an example of a class unseen by QA-index
/// systems, which can only answer for [`ObjectClass::coco_label`] classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectClass {
    /// A regular passenger car.
    Car,
    /// A sport-utility vehicle; novel w.r.t. the predefined label set.
    Suv,
    /// A bus.
    Bus,
    /// A truck.
    Truck,
    /// A pedestrian.
    Person,
    /// A person riding a bicycle (reported as "bicycle" + "person" by COCO detectors).
    Bicyclist,
    /// A dog.
    Dog,
    /// A traffic light or other street furniture (background clutter).
    StreetFurniture,
}

impl ObjectClass {
    /// All classes the generators may emit.
    pub const ALL: [ObjectClass; 8] = [
        ObjectClass::Car,
        ObjectClass::Suv,
        ObjectClass::Bus,
        ObjectClass::Truck,
        ObjectClass::Person,
        ObjectClass::Bicyclist,
        ObjectClass::Dog,
        ObjectClass::StreetFurniture,
    ];

    /// The MSCOCO-style label a predefined-class detector would assign, or
    /// `None` if the class is not in the predefined label set.
    ///
    /// This is what the QA-index baselines index on: an `Suv` is detected as a
    /// plain `"car"`, which is precisely why those systems cannot answer
    /// "black SUV" queries (§II).
    pub fn coco_label(&self) -> Option<&'static str> {
        match self {
            ObjectClass::Car | ObjectClass::Suv => Some("car"),
            ObjectClass::Bus => Some("bus"),
            ObjectClass::Truck => Some("truck"),
            ObjectClass::Person => Some("person"),
            ObjectClass::Bicyclist => Some("bicycle"),
            ObjectClass::Dog => Some("dog"),
            ObjectClass::StreetFurniture => None,
        }
    }

    /// Human-readable name used in query text and descriptions.
    pub fn name(&self) -> &'static str {
        match self {
            ObjectClass::Car => "car",
            ObjectClass::Suv => "suv",
            ObjectClass::Bus => "bus",
            ObjectClass::Truck => "truck",
            ObjectClass::Person => "person",
            ObjectClass::Bicyclist => "bicyclist",
            ObjectClass::Dog => "dog",
            ObjectClass::StreetFurniture => "street furniture",
        }
    }

    /// Stable small integer code used by the encoders to ground embeddings
    /// and by the metadata store as the compact detector label.
    pub fn code(&self) -> usize {
        ObjectClass::ALL
            .iter()
            .position(|c| c == self)
            .expect("class listed in ALL")
    }

    /// Inverse of [`ObjectClass::code`].
    pub fn from_code(code: usize) -> Option<ObjectClass> {
        ObjectClass::ALL.get(code).copied()
    }

    /// Typical box extent `(w, h)` in pixels for a 1280x720 frame, used by the
    /// scene generators. Vehicles are wide, people are tall, dogs are small.
    pub fn typical_extent(&self) -> (f32, f32) {
        match self {
            ObjectClass::Car => (120.0, 70.0),
            ObjectClass::Suv => (140.0, 85.0),
            ObjectClass::Bus => (260.0, 110.0),
            ObjectClass::Truck => (220.0, 100.0),
            ObjectClass::Person => (45.0, 110.0),
            ObjectClass::Bicyclist => (70.0, 120.0),
            ObjectClass::Dog => (55.0, 40.0),
            ObjectClass::StreetFurniture => (30.0, 90.0),
        }
    }

    /// Whether the class is a vehicle (drives rather than walks).
    pub fn is_vehicle(&self) -> bool {
        matches!(
            self,
            ObjectClass::Car | ObjectClass::Suv | ObjectClass::Bus | ObjectClass::Truck
        )
    }
}

/// Colour attribute of an object (vehicle body, clothing, fur, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Color {
    /// Red.
    Red,
    /// Black.
    Black,
    /// White.
    White,
    /// Green.
    Green,
    /// Blue.
    Blue,
    /// Yellow-green (the Bellevue bus livery in Q2.4).
    YellowGreen,
    /// Gray / silver.
    Gray,
    /// Light-coloured (pale clothing in Q1.2).
    Light,
    /// Dark-coloured.
    Dark,
}

impl Color {
    /// All colours the generators may emit.
    pub const ALL: [Color; 9] = [
        Color::Red,
        Color::Black,
        Color::White,
        Color::Green,
        Color::Blue,
        Color::YellowGreen,
        Color::Gray,
        Color::Light,
        Color::Dark,
    ];

    /// Human-readable name used in query text.
    pub fn name(&self) -> &'static str {
        match self {
            Color::Red => "red",
            Color::Black => "black",
            Color::White => "white",
            Color::Green => "green",
            Color::Blue => "blue",
            Color::YellowGreen => "yellow-green",
            Color::Gray => "gray",
            Color::Light => "light-colored",
            Color::Dark => "dark",
        }
    }

    /// Stable small integer code used by the encoders.
    pub fn code(&self) -> usize {
        Color::ALL
            .iter()
            .position(|c| c == self)
            .expect("colour listed in ALL")
    }

    /// Whether this colour reads as a close visual neighbour of `other`
    /// (e.g. white vs light, black vs dark, gray vs silver-ish tones). The
    /// encoders use this to give near-miss colours partially overlapping
    /// embeddings, which is what makes fast search imperfect and rerank useful.
    pub fn is_similar_to(&self, other: &Color) -> bool {
        if self == other {
            return true;
        }
        matches!(
            (self, other),
            (Color::White, Color::Light)
                | (Color::Light, Color::White)
                | (Color::Black, Color::Dark)
                | (Color::Dark, Color::Black)
                | (Color::Gray, Color::Light)
                | (Color::Light, Color::Gray)
                | (Color::Green, Color::YellowGreen)
                | (Color::YellowGreen, Color::Green)
        )
    }
}

/// Coarse size attribute ("large black car").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SizeClass {
    /// Small relative to the class's typical extent.
    Small,
    /// Typical size.
    Medium,
    /// Large relative to the class's typical extent.
    Large,
}

impl SizeClass {
    /// All sizes.
    pub const ALL: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        }
    }

    /// Stable small integer code used by the encoders.
    pub fn code(&self) -> usize {
        SizeClass::ALL
            .iter()
            .position(|c| c == self)
            .expect("size listed in ALL")
    }

    /// Multiplier applied to the class's typical extent.
    pub fn scale(&self) -> f32 {
        match self {
            SizeClass::Small => 0.7,
            SizeClass::Medium => 1.0,
            SizeClass::Large => 1.35,
        }
    }
}

/// What the object is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activity {
    /// Walking (people).
    Walking,
    /// Riding a bicycle.
    RidingBicycle,
    /// Driving (vehicles in motion).
    Driving,
    /// Parked / stationary vehicle.
    Parked,
    /// Sitting (e.g. inside a car).
    Sitting,
    /// Smiling (QVHighlights-style queries).
    Smiling,
    /// Dancing (ActivityNet-QA EQ4).
    Dancing,
    /// Standing still.
    Standing,
    /// Carrying cargo (trucks in Q4.4).
    CarryingCargo,
}

impl Activity {
    /// All activities.
    pub const ALL: [Activity; 9] = [
        Activity::Walking,
        Activity::RidingBicycle,
        Activity::Driving,
        Activity::Parked,
        Activity::Sitting,
        Activity::Smiling,
        Activity::Dancing,
        Activity::Standing,
        Activity::CarryingCargo,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Activity::Walking => "walking",
            Activity::RidingBicycle => "riding a bicycle",
            Activity::Driving => "driving",
            Activity::Parked => "parked",
            Activity::Sitting => "sitting",
            Activity::Smiling => "smiling",
            Activity::Dancing => "dancing",
            Activity::Standing => "standing",
            Activity::CarryingCargo => "carrying cargo",
        }
    }

    /// Stable small integer code used by the encoders.
    pub fn code(&self) -> usize {
        Activity::ALL
            .iter()
            .position(|c| c == self)
            .expect("activity listed in ALL")
    }
}

/// Where the object is in the scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Location {
    /// On the road surface.
    Road,
    /// In the intersection.
    Intersection,
    /// In the centre of the road.
    RoadCenter,
    /// On the sidewalk / street.
    Sidewalk,
    /// Inside a car (QVHighlights queries).
    InsideCar,
    /// Indoors, in a room (ActivityNet-QA EQ4).
    Room,
    /// Outdoors, generic (ActivityNet-QA EQ3).
    Outdoors,
    /// On a meadow / grass (ActivityNet-QA EQ1).
    Meadow,
}

impl Location {
    /// All locations.
    pub const ALL: [Location; 8] = [
        Location::Road,
        Location::Intersection,
        Location::RoadCenter,
        Location::Sidewalk,
        Location::InsideCar,
        Location::Room,
        Location::Outdoors,
        Location::Meadow,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Location::Road => "on the road",
            Location::Intersection => "in the intersection",
            Location::RoadCenter => "in the center of the road",
            Location::Sidewalk => "on the sidewalk",
            Location::InsideCar => "inside a car",
            Location::Room => "in the room",
            Location::Outdoors => "outdoors",
            Location::Meadow => "on the meadow",
        }
    }

    /// Stable small integer code used by the encoders.
    pub fn code(&self) -> usize {
        Location::ALL
            .iter()
            .position(|c| c == self)
            .expect("location listed in ALL")
    }

    /// Whether a query for `self` should accept an object located at `other`.
    ///
    /// The location hierarchy is deliberately forgiving in one direction:
    /// "on the road" is satisfied by anything on the road surface (centre,
    /// intersection), while the specific locations are not satisfied by the
    /// generic one.
    pub fn accepts(&self, other: &Location) -> bool {
        if self == other {
            return true;
        }
        match self {
            Location::Road => matches!(other, Location::RoadCenter | Location::Intersection),
            Location::Outdoors => !matches!(other, Location::Room | Location::InsideCar),
            _ => false,
        }
    }
}

/// Spatial relation between the object and another object in the same frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Relation {
    /// No notable relation.
    None,
    /// Side by side with another vehicle (Q2.2).
    SideBySideWith(ObjectClass),
    /// Next to another object (Q3.4: "next to a woman wearing black clothes").
    NextTo(ObjectClass),
}

impl Relation {
    /// Stable small integer code of the relation *kind* (ignoring the peer class).
    pub fn kind_code(&self) -> usize {
        match self {
            Relation::None => 0,
            Relation::SideBySideWith(_) => 1,
            Relation::NextTo(_) => 2,
        }
    }

    /// The peer class referenced by the relation, if any.
    pub fn peer(&self) -> Option<ObjectClass> {
        match self {
            Relation::None => None,
            Relation::SideBySideWith(c) | Relation::NextTo(c) => Some(*c),
        }
    }

    /// Whether a queried relation is satisfied by an object's relation.
    pub fn accepts(&self, other: &Relation) -> bool {
        match (self, other) {
            (Relation::None, _) => true,
            (Relation::SideBySideWith(a), Relation::SideBySideWith(b)) => a == b,
            // "next to X" is also satisfied by "side by side with X": side by
            // side implies adjacency.
            (Relation::NextTo(a), Relation::NextTo(b))
            | (Relation::NextTo(a), Relation::SideBySideWith(b)) => a == b,
            _ => false,
        }
    }
}

/// Extra descriptive details that some queries reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Accessory {
    /// Holding a dark bag (Q1.2).
    DarkBag,
    /// Wearing a black t-shirt and blue jeans (Q1.4).
    BlackTshirtBlueJeans,
    /// White roof on a vehicle (Q2.4 / Q4.2).
    WhiteRoof,
    /// White dress (Q3.2).
    WhiteDress,
    /// Red hair (Q3.2).
    RedHair,
    /// Black clothes (Q3.4).
    BlackClothes,
    /// A hat (ActivityNet-QA EQ2).
    Hat,
    /// A red life jacket (ActivityNet-QA EQ3).
    RedLifeJacket,
    /// A grey skirt (ActivityNet-QA EQ4).
    GreySkirt,
    /// Visible cargo load (Q4.4).
    CargoLoad,
}

impl Accessory {
    /// All accessories.
    pub const ALL: [Accessory; 10] = [
        Accessory::DarkBag,
        Accessory::BlackTshirtBlueJeans,
        Accessory::WhiteRoof,
        Accessory::WhiteDress,
        Accessory::RedHair,
        Accessory::BlackClothes,
        Accessory::Hat,
        Accessory::RedLifeJacket,
        Accessory::GreySkirt,
        Accessory::CargoLoad,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Accessory::DarkBag => "holding a dark bag",
            Accessory::BlackTshirtBlueJeans => "wearing a black t-shirt and blue jeans",
            Accessory::WhiteRoof => "with a white roof",
            Accessory::WhiteDress => "with a white dress",
            Accessory::RedHair => "with red hair",
            Accessory::BlackClothes => "wearing black clothes",
            Accessory::Hat => "with a hat",
            Accessory::RedLifeJacket => "in a red life jacket",
            Accessory::GreySkirt => "in a grey skirt",
            Accessory::CargoLoad => "filled with cargo",
        }
    }

    /// Stable small integer code used by the encoders.
    pub fn code(&self) -> usize {
        Accessory::ALL
            .iter()
            .position(|c| c == self)
            .expect("accessory listed in ALL")
    }
}

/// Gender presentation for person-class objects; several QVHighlights and
/// ActivityNet-QA queries reference "woman" / "man".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Gender {
    /// Unspecified / not applicable.
    #[default]
    Unspecified,
    /// Presents as a woman.
    Woman,
    /// Presents as a man.
    Man,
}

impl Gender {
    /// Stable small integer code used by the encoders.
    pub fn code(&self) -> usize {
        match self {
            Gender::Unspecified => 0,
            Gender::Woman => 1,
            Gender::Man => 2,
        }
    }
}

/// The full ground-truth attribute set of an object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectAttributes {
    /// Object category.
    pub class: ObjectClass,
    /// Primary (body / clothing) colour.
    pub color: Color,
    /// Coarse relative size.
    pub size: SizeClass,
    /// Current activity.
    pub activity: Activity,
    /// Scene location.
    pub location: Location,
    /// Spatial relation to another object.
    pub relation: Relation,
    /// Additional descriptive details.
    pub accessories: Vec<Accessory>,
    /// Gender presentation for person-class objects.
    pub gender: Gender,
}

impl ObjectAttributes {
    /// Creates a plain object of the given class with neutral defaults.
    pub fn simple(class: ObjectClass) -> Self {
        Self {
            class,
            color: Color::Gray,
            size: SizeClass::Medium,
            activity: if class.is_vehicle() {
                Activity::Driving
            } else {
                Activity::Standing
            },
            location: Location::Road,
            relation: Relation::None,
            accessories: Vec::new(),
            gender: Gender::Unspecified,
        }
    }

    /// Builder-style colour setter.
    pub fn with_color(mut self, color: Color) -> Self {
        self.color = color;
        self
    }

    /// Builder-style size setter.
    pub fn with_size(mut self, size: SizeClass) -> Self {
        self.size = size;
        self
    }

    /// Builder-style activity setter.
    pub fn with_activity(mut self, activity: Activity) -> Self {
        self.activity = activity;
        self
    }

    /// Builder-style location setter.
    pub fn with_location(mut self, location: Location) -> Self {
        self.location = location;
        self
    }

    /// Builder-style relation setter.
    pub fn with_relation(mut self, relation: Relation) -> Self {
        self.relation = relation;
        self
    }

    /// Builder-style accessory append.
    pub fn with_accessory(mut self, accessory: Accessory) -> Self {
        if !self.accessories.contains(&accessory) {
            self.accessories.push(accessory);
        }
        self
    }

    /// Builder-style gender setter.
    pub fn with_gender(mut self, gender: Gender) -> Self {
        self.gender = gender;
        self
    }

    /// True if the object carries the given accessory.
    pub fn has_accessory(&self, accessory: Accessory) -> bool {
        self.accessories.contains(&accessory)
    }

    /// A natural-language description of the object, e.g.
    /// `"large black suv driving in the intersection"`. Used by examples and
    /// the qualitative experiment (Fig. 7).
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        parts.push(format!(
            "{} {} {}",
            self.size.name(),
            self.color.name(),
            self.class.name()
        ));
        parts.push(self.activity.name().to_string());
        parts.push(self.location.name().to_string());
        for acc in &self.accessories {
            parts.push(acc.name().to_string());
        }
        match self.relation {
            Relation::None => {}
            Relation::SideBySideWith(c) => {
                parts.push(format!("side by side with another {}", c.name()))
            }
            Relation::NextTo(c) => parts.push(format!("next to a {}", c.name())),
        }
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suv_maps_to_car_for_predefined_detectors() {
        assert_eq!(ObjectClass::Suv.coco_label(), Some("car"));
        assert_eq!(ObjectClass::Car.coco_label(), Some("car"));
        assert_eq!(ObjectClass::StreetFurniture.coco_label(), None);
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let class_codes: Vec<usize> = ObjectClass::ALL.iter().map(|c| c.code()).collect();
        let mut sorted = class_codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ObjectClass::ALL.len());

        let color_codes: Vec<usize> = Color::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(
            color_codes,
            (0..Color::ALL.len()).collect::<Vec<_>>(),
            "colour codes should be their position in ALL"
        );
    }

    #[test]
    fn color_similarity_is_symmetric() {
        for a in Color::ALL {
            for b in Color::ALL {
                assert_eq!(a.is_similar_to(&b), b.is_similar_to(&a));
            }
        }
        assert!(Color::White.is_similar_to(&Color::Light));
        assert!(!Color::Red.is_similar_to(&Color::Green));
    }

    #[test]
    fn location_hierarchy() {
        assert!(Location::Road.accepts(&Location::RoadCenter));
        assert!(Location::Road.accepts(&Location::Intersection));
        assert!(!Location::RoadCenter.accepts(&Location::Road));
        assert!(Location::Outdoors.accepts(&Location::Meadow));
        assert!(!Location::Outdoors.accepts(&Location::Room));
    }

    #[test]
    fn relation_acceptance() {
        let q = Relation::NextTo(ObjectClass::Car);
        assert!(q.accepts(&Relation::NextTo(ObjectClass::Car)));
        assert!(q.accepts(&Relation::SideBySideWith(ObjectClass::Car)));
        assert!(!q.accepts(&Relation::None));
        assert!(Relation::None.accepts(&Relation::SideBySideWith(ObjectClass::Bus)));
        assert!(!Relation::SideBySideWith(ObjectClass::Car)
            .accepts(&Relation::NextTo(ObjectClass::Car)));
    }

    #[test]
    fn builder_accumulates_attributes() {
        let attrs = ObjectAttributes::simple(ObjectClass::Bus)
            .with_color(Color::Green)
            .with_accessory(Accessory::WhiteRoof)
            .with_accessory(Accessory::WhiteRoof)
            .with_location(Location::Road);
        assert_eq!(attrs.accessories.len(), 1);
        assert!(attrs.has_accessory(Accessory::WhiteRoof));
        assert_eq!(attrs.color, Color::Green);
    }

    #[test]
    fn describe_mentions_key_attributes() {
        let attrs = ObjectAttributes::simple(ObjectClass::Suv)
            .with_color(Color::Black)
            .with_size(SizeClass::Large)
            .with_location(Location::Intersection);
        let d = attrs.describe();
        assert!(d.contains("black"));
        assert!(d.contains("suv"));
        assert!(d.contains("intersection"));
    }

    #[test]
    fn default_activity_follows_class() {
        assert_eq!(
            ObjectAttributes::simple(ObjectClass::Car).activity,
            Activity::Driving
        );
        assert_eq!(
            ObjectAttributes::simple(ObjectClass::Person).activity,
            Activity::Standing
        );
    }

    #[test]
    fn typical_extents_are_positive() {
        for class in ObjectClass::ALL {
            let (w, h) = class.typical_extent();
            assert!(w > 0.0 && h > 0.0);
        }
    }
}
