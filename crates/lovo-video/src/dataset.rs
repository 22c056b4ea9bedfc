//! Synthetic dataset generators standing in for the paper's evaluation
//! datasets.
//!
//! Each [`DatasetKind`] mirrors the character of one real dataset from the
//! evaluation (§VII-A): camera motion, scene content, object mix and the
//! specific target objects the Table II / Table VI queries look for. The
//! generators plant both *targets* (objects that satisfy a query exactly) and
//! *near-miss distractors* (right class but wrong colour, right colour but
//! wrong location, ...), which is what makes the retrieval problem non-trivial
//! and gives the accuracy experiments the same shape as the paper's.
//!
//! All generation is deterministic given the [`DatasetConfig::seed`].

use crate::bbox::BoundingBox;
use crate::object::{
    Accessory, Activity, Color, Gender, Location, ObjectAttributes, ObjectClass, Relation,
    SizeClass,
};
use crate::scene::{Frame, SceneObject, TrackId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which evaluation dataset a generated collection imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Urban dashcam footage (moving camera, pedestrians and cyclists).
    Cityscapes,
    /// Fixed traffic-surveillance camera at an intersection.
    Bellevue,
    /// Diverse YouTube clips (moving camera, people and pets in cars).
    Qvhighlights,
    /// Fixed camera on a resort sidewalk (buses, trucks, beach traffic).
    Beach,
    /// Everyday web videos used for the question-answering extension.
    ActivityNetQa,
}

impl DatasetKind {
    /// All dataset kinds in the order the paper reports them.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::Cityscapes,
        DatasetKind::Bellevue,
        DatasetKind::Qvhighlights,
        DatasetKind::Beach,
        DatasetKind::ActivityNetQa,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Cityscapes => "Cityscapes",
            DatasetKind::Bellevue => "Bellevue",
            DatasetKind::Qvhighlights => "Qvhighlights",
            DatasetKind::Beach => "Beach",
            DatasetKind::ActivityNetQa => "ActivityNet-QA",
        }
    }

    /// Whether the camera moves (dashcam / handheld) or is fixed.
    pub fn moving_camera(&self) -> bool {
        matches!(
            self,
            DatasetKind::Cityscapes | DatasetKind::Qvhighlights | DatasetKind::ActivityNetQa
        )
    }
}

/// Configuration of a synthetic video collection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Which dataset to imitate.
    pub kind: DatasetKind,
    /// Number of videos in the collection.
    pub num_videos: usize,
    /// Number of frames per video.
    pub frames_per_video: usize,
    /// Frame rate in frames/second (timestamps only; generation is per frame).
    pub fps: f64,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Expected number of simultaneously visible objects per frame.
    pub object_density: f32,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl DatasetConfig {
    /// A laptop-scale default configuration for the given dataset kind.
    ///
    /// Durations are scaled down from the paper's hours-long footage to keep a
    /// full experiment run in seconds, but each collection still produces
    /// thousands of frames and tens of thousands of object observations; the
    /// scalability experiments (Fig. 10/11) sweep these knobs upward.
    pub fn for_kind(kind: DatasetKind) -> Self {
        let (num_videos, frames_per_video, density) = match kind {
            DatasetKind::Cityscapes => (3, 600, 3.0),
            DatasetKind::Bellevue => (1, 1800, 4.0),
            DatasetKind::Qvhighlights => (15, 150, 2.0),
            DatasetKind::Beach => (1, 1560, 2.5),
            DatasetKind::ActivityNetQa => (12, 180, 1.5),
        };
        Self {
            kind,
            num_videos,
            frames_per_video,
            fps: 30.0,
            width: 1280,
            height: 720,
            object_density: density,
            seed: 0x1050_0001_u64 ^ kind as u64,
        }
    }

    /// Builder-style override of the number of videos.
    pub fn with_num_videos(mut self, n: usize) -> Self {
        self.num_videos = n.max(1);
        self
    }

    /// Builder-style override of frames per video.
    pub fn with_frames_per_video(mut self, n: usize) -> Self {
        self.frames_per_video = n.max(1);
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the total duration (seconds) of the collection by adjusting the
    /// per-video frame count, keeping the number of videos fixed.
    pub fn with_total_duration_seconds(mut self, seconds: f64) -> Self {
        let total_frames = (seconds * self.fps).round().max(1.0) as usize;
        self.frames_per_video = (total_frames / self.num_videos).max(1);
        self
    }

    /// Total duration of the collection in seconds.
    pub fn total_duration_seconds(&self) -> f64 {
        self.num_videos as f64 * self.frames_per_video as f64 / self.fps
    }

    /// Total number of frames across all videos.
    pub fn total_frames(&self) -> usize {
        self.num_videos * self.frames_per_video
    }
}

/// A single generated video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Video {
    /// Index of the video within its collection.
    pub id: u32,
    /// Frames in presentation order.
    pub frames: Vec<Frame>,
}

/// A generated collection of videos plus the configuration that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoCollection {
    /// Generation parameters.
    pub config: DatasetConfig,
    /// The videos.
    pub videos: Vec<Video>,
}

impl VideoCollection {
    /// Generates a collection for the given configuration.
    pub fn generate(config: DatasetConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let templates = scenario_templates(config.kind);
        let videos = (0..config.num_videos)
            .map(|vid| generate_video(vid as u32, &config, &templates, &mut rng))
            .collect();
        Self { config, videos }
    }

    /// Generates the default collection for a dataset kind.
    pub fn for_kind(kind: DatasetKind) -> Self {
        Self::generate(DatasetConfig::for_kind(kind))
    }

    /// Total number of frames across all videos.
    pub fn total_frames(&self) -> usize {
        self.videos.iter().map(|v| v.frames.len()).sum()
    }

    /// Total number of object observations (object-frame pairs).
    pub fn total_object_observations(&self) -> usize {
        self.videos
            .iter()
            .flat_map(|v| v.frames.iter())
            .map(|f| f.objects.len())
            .sum()
    }

    /// Iterator over `(video id, frame)` pairs across the collection.
    pub fn iter_frames(&self) -> impl Iterator<Item = (u32, &Frame)> {
        self.videos
            .iter()
            .flat_map(|v| v.frames.iter().map(move |f| (v.id, f)))
    }
}

/// An object archetype the generator can spawn, with a sampling weight.
#[derive(Debug, Clone)]
struct Template {
    attributes: ObjectAttributes,
    weight: f32,
    /// When set, a companion object of this class is spawned adjacent to the
    /// primary one so that relation attributes are physically consistent.
    companion: Option<ObjectClass>,
}

impl Template {
    fn new(attributes: ObjectAttributes, weight: f32) -> Self {
        Self {
            attributes,
            weight,
            companion: None,
        }
    }

    fn with_companion(mut self, class: ObjectClass) -> Self {
        self.companion = Some(class);
        self
    }
}

/// The per-dataset scenario mix. Targets of the Table II / Table VI queries
/// are given modest weights so they are present but rare, as in real footage;
/// distractors get larger weights.
fn scenario_templates(kind: DatasetKind) -> Vec<Template> {
    use Accessory as Acc;
    use ObjectClass as C;
    match kind {
        DatasetKind::Cityscapes => vec![
            // Q1.1 target: a person walking on the street.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_activity(Activity::Walking)
                    .with_location(Location::Sidewalk)
                    .with_color(Color::Dark),
                3.0,
            ),
            // Q1.2 target: light-coloured clothing + dark bag.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_activity(Activity::Walking)
                    .with_location(Location::Sidewalk)
                    .with_color(Color::Light)
                    .with_accessory(Acc::DarkBag),
                1.0,
            ),
            // Q1.3 target: a person riding a bicycle.
            Template::new(
                ObjectAttributes::simple(C::Bicyclist)
                    .with_activity(Activity::RidingBicycle)
                    .with_location(Location::Road)
                    .with_color(Color::Blue),
                1.5,
            ),
            // Q1.4 target: bicyclist in black t-shirt and blue jeans.
            Template::new(
                ObjectAttributes::simple(C::Bicyclist)
                    .with_activity(Activity::RidingBicycle)
                    .with_location(Location::Road)
                    .with_color(Color::Black)
                    .with_accessory(Acc::BlackTshirtBlueJeans),
                0.8,
            ),
            // Distractors: standing pedestrians, parked cars, furniture.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_activity(Activity::Standing)
                    .with_location(Location::Sidewalk)
                    .with_color(Color::Light),
                2.0,
            ),
            Template::new(
                ObjectAttributes::simple(C::Car)
                    .with_activity(Activity::Parked)
                    .with_location(Location::Road)
                    .with_color(Color::Gray),
                2.5,
            ),
            Template::new(
                ObjectAttributes::simple(C::StreetFurniture).with_activity(Activity::Standing),
                1.5,
            ),
        ],
        DatasetKind::Bellevue => vec![
            // Q2.1 target: red car in the centre of the road.
            Template::new(
                ObjectAttributes::simple(C::Car)
                    .with_color(Color::Red)
                    .with_location(Location::RoadCenter)
                    .with_activity(Activity::Driving),
                1.2,
            ),
            // Q2.2 target: red car side by side with another car in the centre.
            Template::new(
                ObjectAttributes::simple(C::Car)
                    .with_color(Color::Red)
                    .with_location(Location::RoadCenter)
                    .with_activity(Activity::Driving)
                    .with_relation(Relation::SideBySideWith(C::Car)),
                0.6,
            )
            .with_companion(C::Car),
            // Q2.3 target: a bus on the road.
            Template::new(
                ObjectAttributes::simple(C::Bus)
                    .with_color(Color::Gray)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving)
                    .with_size(SizeClass::Large),
                1.0,
            ),
            // Q2.4 target: bus with white roof and yellow-green body.
            Template::new(
                ObjectAttributes::simple(C::Bus)
                    .with_color(Color::YellowGreen)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving)
                    .with_size(SizeClass::Large)
                    .with_accessory(Acc::WhiteRoof),
                0.5,
            ),
            // Motivation-query target: large black SUV in the intersection.
            Template::new(
                ObjectAttributes::simple(C::Suv)
                    .with_color(Color::Black)
                    .with_size(SizeClass::Large)
                    .with_location(Location::Intersection)
                    .with_activity(Activity::Driving),
                0.8,
            ),
            // Distractors: cars of other colours, trucks, black cars at centre.
            Template::new(
                ObjectAttributes::simple(C::Car)
                    .with_color(Color::Black)
                    .with_location(Location::RoadCenter)
                    .with_activity(Activity::Driving),
                2.0,
            ),
            Template::new(
                ObjectAttributes::simple(C::Car)
                    .with_color(Color::Red)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving),
                1.5,
            ),
            Template::new(
                ObjectAttributes::simple(C::Car)
                    .with_color(Color::White)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving),
                3.0,
            ),
            Template::new(
                ObjectAttributes::simple(C::Truck)
                    .with_color(Color::Gray)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving),
                1.0,
            ),
        ],
        DatasetKind::Qvhighlights => vec![
            // Q3.1 target: a woman smiling sitting inside a car.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_gender(Gender::Woman)
                    .with_activity(Activity::Sitting)
                    .with_location(Location::InsideCar)
                    .with_color(Color::Light),
                1.2,
            ),
            // Q3.2 target: red-hair woman with white dress sitting inside a car.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_gender(Gender::Woman)
                    .with_activity(Activity::Sitting)
                    .with_location(Location::InsideCar)
                    .with_color(Color::White)
                    .with_accessory(Acc::RedHair)
                    .with_accessory(Acc::WhiteDress),
                0.6,
            ),
            // Q3.3 target: a white dog inside a car.
            Template::new(
                ObjectAttributes::simple(C::Dog)
                    .with_color(Color::White)
                    .with_location(Location::InsideCar)
                    .with_activity(Activity::Sitting),
                0.8,
            ),
            // Q3.4 target: white dog inside a car next to a woman in black clothes.
            Template::new(
                ObjectAttributes::simple(C::Dog)
                    .with_color(Color::White)
                    .with_location(Location::InsideCar)
                    .with_activity(Activity::Sitting)
                    .with_relation(Relation::NextTo(C::Person))
                    .with_accessory(Acc::BlackClothes),
                0.5,
            )
            .with_companion(C::Person),
            // Distractors: men in cars, dogs outdoors, people outdoors.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_gender(Gender::Man)
                    .with_activity(Activity::Sitting)
                    .with_location(Location::InsideCar)
                    .with_color(Color::Dark),
                1.5,
            ),
            Template::new(
                ObjectAttributes::simple(C::Dog)
                    .with_color(Color::Dark)
                    .with_location(Location::Outdoors)
                    .with_activity(Activity::Walking),
                1.0,
            ),
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_gender(Gender::Woman)
                    .with_activity(Activity::Walking)
                    .with_location(Location::Outdoors)
                    .with_color(Color::Light),
                2.0,
            ),
        ],
        DatasetKind::Beach => vec![
            // Q4.1 target: a green bus driving on the road.
            Template::new(
                ObjectAttributes::simple(C::Bus)
                    .with_color(Color::Green)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving)
                    .with_size(SizeClass::Large),
                1.0,
            ),
            // Q4.2 target: green bus with white roof.
            Template::new(
                ObjectAttributes::simple(C::Bus)
                    .with_color(Color::Green)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving)
                    .with_size(SizeClass::Large)
                    .with_accessory(Acc::WhiteRoof),
                0.5,
            ),
            // Q4.3 target: a truck driving on the road.
            Template::new(
                ObjectAttributes::simple(C::Truck)
                    .with_color(Color::Gray)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving),
                1.2,
            ),
            // Q4.4 target: small white truck filled with cargo.
            Template::new(
                ObjectAttributes::simple(C::Truck)
                    .with_color(Color::White)
                    .with_size(SizeClass::Small)
                    .with_location(Location::Road)
                    .with_activity(Activity::CarryingCargo)
                    .with_accessory(Acc::CargoLoad),
                0.6,
            ),
            // Distractors: white buses, green cars, pedestrians, parked trucks.
            Template::new(
                ObjectAttributes::simple(C::Bus)
                    .with_color(Color::White)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving)
                    .with_size(SizeClass::Large),
                1.2,
            ),
            Template::new(
                ObjectAttributes::simple(C::Car)
                    .with_color(Color::Green)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving),
                1.0,
            ),
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_activity(Activity::Walking)
                    .with_location(Location::Sidewalk)
                    .with_color(Color::Light),
                2.5,
            ),
            Template::new(
                ObjectAttributes::simple(C::Truck)
                    .with_color(Color::White)
                    .with_size(SizeClass::Large)
                    .with_location(Location::Road)
                    .with_activity(Activity::Driving),
                0.8,
            ),
        ],
        DatasetKind::ActivityNetQa => vec![
            // EQ1 target: a car parked on the meadow.
            Template::new(
                ObjectAttributes::simple(C::Car)
                    .with_color(Color::Blue)
                    .with_activity(Activity::Parked)
                    .with_location(Location::Meadow),
                0.8,
            ),
            // EQ2 target: a man with a hat.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_gender(Gender::Man)
                    .with_activity(Activity::Standing)
                    .with_location(Location::Outdoors)
                    .with_accessory(Acc::Hat)
                    .with_color(Color::Dark),
                1.0,
            ),
            // EQ3 target: a person in a red life jacket outdoors.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_activity(Activity::Standing)
                    .with_location(Location::Outdoors)
                    .with_accessory(Acc::RedLifeJacket)
                    .with_color(Color::Red),
                0.8,
            ),
            // EQ4 target: a person in a grey skirt dancing in the room.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_gender(Gender::Woman)
                    .with_activity(Activity::Dancing)
                    .with_location(Location::Room)
                    .with_accessory(Acc::GreySkirt)
                    .with_color(Color::Gray),
                0.8,
            ),
            // Distractors: woman with hat, person indoors without skirt,
            // parked car on road, person in life jacket indoors.
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_gender(Gender::Woman)
                    .with_activity(Activity::Standing)
                    .with_location(Location::Outdoors)
                    .with_accessory(Acc::Hat)
                    .with_color(Color::Light),
                1.0,
            ),
            Template::new(
                ObjectAttributes::simple(C::Person)
                    .with_gender(Gender::Man)
                    .with_activity(Activity::Dancing)
                    .with_location(Location::Room)
                    .with_color(Color::Dark),
                1.0,
            ),
            Template::new(
                ObjectAttributes::simple(C::Car)
                    .with_color(Color::Gray)
                    .with_activity(Activity::Parked)
                    .with_location(Location::Road),
                1.2,
            ),
        ],
    }
}

/// A live object track being simulated.
struct ActiveTrack {
    object: SceneObject,
    remaining_frames: usize,
}

fn sample_template<'a>(templates: &'a [Template], rng: &mut SmallRng) -> &'a Template {
    let total: f32 = templates.iter().map(|t| t.weight).sum();
    let mut pick = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
    for t in templates {
        if pick < t.weight {
            return t;
        }
        pick -= t.weight;
    }
    templates.last().expect("templates are non-empty")
}

fn spawn_track(
    template: &Template,
    config: &DatasetConfig,
    next_track: &mut u64,
    rng: &mut SmallRng,
) -> Vec<ActiveTrack> {
    let attrs = &template.attributes;
    let (base_w, base_h) = attrs.class.typical_extent();
    let scale = attrs.size.scale() * rng.gen_range(0.85..1.15);
    let (w, h) = (base_w * scale, base_h * scale);

    // Spawn position depends on the location attribute so that spatial
    // semantics ("center of the road", "intersection") are geometrically real.
    let (cx, cy) = match attrs.location {
        Location::RoadCenter | Location::Intersection => (
            config.width as f32 * rng.gen_range(0.4..0.6),
            config.height as f32 * rng.gen_range(0.45..0.65),
        ),
        Location::Road => (
            config.width as f32 * rng.gen_range(0.1..0.9),
            config.height as f32 * rng.gen_range(0.5..0.8),
        ),
        Location::Sidewalk => (
            config.width as f32 * rng.gen_range(0.05..0.95),
            config.height as f32 * rng.gen_range(0.7..0.95),
        ),
        Location::InsideCar | Location::Room => (
            config.width as f32 * rng.gen_range(0.3..0.7),
            config.height as f32 * rng.gen_range(0.3..0.7),
        ),
        Location::Outdoors | Location::Meadow => (
            config.width as f32 * rng.gen_range(0.1..0.9),
            config.height as f32 * rng.gen_range(0.3..0.9),
        ),
    };

    let speed = match attrs.activity {
        Activity::Driving => rng.gen_range(4.0..12.0),
        Activity::CarryingCargo => rng.gen_range(3.0..8.0),
        Activity::RidingBicycle => rng.gen_range(2.0..5.0),
        Activity::Walking | Activity::Dancing => rng.gen_range(0.5..2.5),
        Activity::Parked | Activity::Sitting | Activity::Standing | Activity::Smiling => 0.0,
    };
    let direction: f32 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let velocity = (speed * direction, rng.gen_range(-0.3..0.3) * speed);

    let lifetime = rng.gen_range(30..150);
    let mut tracks = Vec::with_capacity(2);
    let primary = SceneObject {
        track: TrackId(*next_track),
        attributes: attrs.clone(),
        bbox: BoundingBox::from_center(cx, cy, w, h),
        velocity,
    };
    *next_track += 1;
    tracks.push(ActiveTrack {
        object: primary,
        remaining_frames: lifetime,
    });

    // Spawn the relation companion adjacent to the primary so that "side by
    // side" / "next to" are spatially true in the generated frames.
    if let Some(companion_class) = template.companion {
        let comp_attrs = ObjectAttributes::simple(companion_class)
            .with_color(Color::ALL[rng.gen_range(0..Color::ALL.len())])
            .with_location(attrs.location)
            .with_activity(attrs.activity);
        let (cw, ch) = companion_class.typical_extent();
        let companion = SceneObject {
            track: TrackId(*next_track),
            attributes: comp_attrs,
            bbox: BoundingBox::from_center(cx + w * 1.1, cy, cw, ch),
            velocity,
        };
        *next_track += 1;
        tracks.push(ActiveTrack {
            object: companion,
            remaining_frames: lifetime,
        });
    }
    tracks
}

fn generate_video(
    id: u32,
    config: &DatasetConfig,
    templates: &[Template],
    rng: &mut SmallRng,
) -> Video {
    let mut frames = Vec::with_capacity(config.frames_per_video);
    let mut active: Vec<ActiveTrack> = Vec::new();
    let mut next_track: u64 = u64::from(id) << 32;

    // Spawn probability per frame chosen so the steady-state object count
    // approaches the configured density (lifetime averages ~90 frames).
    let spawn_prob = (config.object_density / 90.0).clamp(0.0, 1.0);

    for frame_idx in 0..config.frames_per_video {
        // Possibly spawn new tracks.
        let spawns = if frame_idx == 0 {
            config.object_density.round() as usize
        } else {
            usize::from(rng.gen_bool(f64::from(spawn_prob)))
        };
        for _ in 0..spawns {
            let template = sample_template(templates, rng);
            active.extend(spawn_track(template, config, &mut next_track, rng));
        }

        let camera_motion = if config.kind.moving_camera() {
            (
                3.0 * ((frame_idx as f32 * 0.05).sin() + rng.gen_range(-0.2..0.2)),
                1.0 * ((frame_idx as f32 * 0.08).cos()),
            )
        } else {
            (0.0, 0.0)
        };

        let mut frame = Frame::empty(
            frame_idx,
            frame_idx as f64 / config.fps,
            config.width,
            config.height,
        );
        frame.camera_motion = camera_motion;
        for track in &active {
            let clamped = track
                .object
                .bbox
                .clamped(config.width as f32, config.height as f32);
            if clamped.area() > 1.0 {
                let mut visible = track.object.clone();
                visible.bbox = clamped;
                frame.objects.push(visible);
            }
        }
        frames.push(frame);

        // Advance the simulation.
        for track in &mut active {
            track.object.bbox = track
                .object
                .bbox
                .translated(track.object.velocity.0, track.object.velocity.1);
            track.remaining_frames = track.remaining_frames.saturating_sub(1);
        }
        active.retain(|t| {
            t.remaining_frames > 0
                && t.object
                    .bbox
                    .clamped(config.width as f32, config.height as f32)
                    .area()
                    > 1.0
        });
    }

    Video { id, frames }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_frames_per_video(120)
            .with_seed(99);
        let a = VideoCollection::generate(config.clone());
        let b = VideoCollection::generate(config);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let base = DatasetConfig::for_kind(DatasetKind::Bellevue).with_frames_per_video(200);
        let a = VideoCollection::generate(base.clone().with_seed(1));
        let b = VideoCollection::generate(base.with_seed(2));
        assert_ne!(a, b);
    }

    #[test]
    fn collection_has_requested_shape() {
        let config = DatasetConfig::for_kind(DatasetKind::Qvhighlights)
            .with_num_videos(4)
            .with_frames_per_video(50);
        let c = VideoCollection::generate(config);
        assert_eq!(c.videos.len(), 4);
        assert!(c.videos.iter().all(|v| v.frames.len() == 50));
        assert_eq!(c.total_frames(), 200);
    }

    #[test]
    fn frames_contain_objects_at_reasonable_density() {
        let c = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue).with_frames_per_video(600),
        );
        let avg = c.total_object_observations() as f32 / c.total_frames() as f32;
        assert!(avg > 0.5, "average {avg} objects/frame too low");
        assert!(avg < 20.0, "average {avg} objects/frame too high");
    }

    #[test]
    fn fixed_camera_datasets_have_zero_camera_motion() {
        let c = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Beach).with_frames_per_video(60),
        );
        assert!(c.iter_frames().all(|(_, f)| f.camera_motion == (0.0, 0.0)));
        let moving = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Cityscapes).with_frames_per_video(60),
        );
        assert!(moving
            .iter_frames()
            .any(|(_, f)| f.camera_motion != (0.0, 0.0)));
    }

    #[test]
    fn bounding_boxes_stay_inside_frame() {
        let c = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Cityscapes).with_frames_per_video(300),
        );
        for (_, frame) in c.iter_frames() {
            for obj in &frame.objects {
                assert!(obj.bbox.x >= 0.0 && obj.bbox.y >= 0.0);
                assert!(obj.bbox.right() <= frame.width as f32 + 1e-3);
                assert!(obj.bbox.bottom() <= frame.height as f32 + 1e-3);
            }
        }
    }

    #[test]
    fn each_dataset_plants_its_query_targets() {
        // Every dataset's generated content must contain at least one object
        // that its most complex query targets, otherwise accuracy experiments
        // would be vacuous.
        let bellevue = VideoCollection::for_kind(DatasetKind::Bellevue);
        assert!(bellevue
            .iter_frames()
            .any(|(_, f)| f.objects.iter().any(|o| {
                o.attributes.class == ObjectClass::Car
                    && o.attributes.color == Color::Red
                    && matches!(o.attributes.relation, Relation::SideBySideWith(_))
            })));

        let beach = VideoCollection::for_kind(DatasetKind::Beach);
        assert!(beach.iter_frames().any(|(_, f)| f.objects.iter().any(|o| {
            o.attributes.class == ObjectClass::Bus
                && o.attributes.color == Color::Green
                && o.attributes.has_accessory(Accessory::WhiteRoof)
        })));

        let qvh = VideoCollection::for_kind(DatasetKind::Qvhighlights);
        assert!(qvh.iter_frames().any(|(_, f)| f.objects.iter().any(|o| {
            o.attributes.class == ObjectClass::Dog && o.attributes.color == Color::White
        })));

        let anq = VideoCollection::for_kind(DatasetKind::ActivityNetQa);
        assert!(anq.iter_frames().any(|(_, f)| f.objects.iter().any(|o| {
            o.attributes.activity == Activity::Dancing
                && o.attributes.has_accessory(Accessory::GreySkirt)
        })));
    }

    #[test]
    fn relation_targets_usually_have_a_physical_companion() {
        // Companions share the primary's velocity so they stay adjacent, but
        // one of the pair can leave the frame a few frames before the other;
        // require that the large majority of relation observations are
        // physically consistent rather than every single one.
        let bellevue = VideoCollection::for_kind(DatasetKind::Bellevue);
        let mut with_companion = 0usize;
        let mut total = 0usize;
        for (_, frame) in bellevue.iter_frames() {
            for obj in &frame.objects {
                if let Relation::SideBySideWith(peer) = obj.attributes.relation {
                    total += 1;
                    let has_companion = frame.objects.iter().any(|other| {
                        other.track != obj.track
                            && other.attributes.class.coco_label() == peer.coco_label()
                            && obj.bbox.center_distance(&other.bbox) < 500.0
                    });
                    if has_companion {
                        with_companion += 1;
                    }
                }
            }
        }
        assert!(total > 0, "no relation objects generated");
        let fraction = with_companion as f32 / total as f32;
        assert!(
            fraction > 0.6,
            "only {fraction:.2} of relation objects have a companion"
        );
    }

    #[test]
    fn duration_helpers_round_trip() {
        let config = DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(2)
            .with_total_duration_seconds(120.0);
        assert!((config.total_duration_seconds() - 120.0).abs() < 1.0);
        assert_eq!(config.total_frames(), config.frames_per_video * 2);
    }
}
