//! Workload specifications: the data-driven description of how an
//! application touches its configuration store.
//!
//! The paper's traces come from real desktops; this reproduction generates
//! them from `WorkloadSpec`s built by `ocasta-apps` (one per application).
//! The spec encodes exactly the behaviours the paper identifies as the
//! *reasons* clustering works — and the reasons it sometimes fails:
//!
//! * related settings are written together by application logic
//!   ([`SettingGroup`]);
//! * a few settings churn frequently and independently ([`NoiseKey`] — MRU
//!   lists, window geometry);
//! * users occasionally change unrelated settings in one burst and software
//!   updates rewrite many keys at once (oversized-cluster sources);
//! * dependent settings are sometimes only partially updated
//!   ([`SettingGroup::partial_update_prob`] — undersized-cluster source).

use ocasta_ttkv::Value;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::Rng;

/// How values for one key are generated across writes.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueKind {
    /// A boolean that flips on every change.
    Toggle {
        /// Value before the first change.
        initial: bool,
    },
    /// A boolean that is `true` with probability `on_prob` on each write —
    /// the model for settings users keep in one state almost all the time
    /// (a visible toolbar, an enabled feature).
    BiasedToggle {
        /// Probability of writing `true`.
        on_prob: f64,
    },
    /// A textual choice drawn with the given weights; heavier options model
    /// the states users prefer.
    WeightedChoice(Vec<(&'static str, u32)>),
    /// An integer drawn uniformly from `min..=max`.
    IntRange {
        /// Smallest value.
        min: i64,
        /// Largest value.
        max: i64,
    },
    /// A float drawn uniformly from `min..=max`, rounded to 2 decimals.
    FloatRange {
        /// Smallest value.
        min: f64,
        /// Largest value.
        max: f64,
    },
    /// One of a fixed set of textual choices (enumerated settings).
    Choice(Vec<&'static str>),
    /// A synthetic file-path-like string (document names, executables).
    PathName {
        /// File extension, e.g. `"doc"`.
        extension: &'static str,
    },
    /// An ordered most-recently-used list of path names.
    RecentList {
        /// Maximum list length.
        max_len: usize,
        /// File extension of generated names.
        extension: &'static str,
    },
}

impl ValueKind {
    /// Samples the next value for a key, given its previous value (used by
    /// toggles and MRU lists).
    pub fn sample(&self, rng: &mut StdRng, previous: Option<&Value>) -> Value {
        match self {
            ValueKind::Toggle { initial } => {
                let prev = previous.and_then(Value::as_bool).unwrap_or(*initial);
                Value::Bool(!prev)
            }
            ValueKind::BiasedToggle { on_prob } => {
                Value::Bool(rng.random_bool(on_prob.clamp(0.0, 1.0)))
            }
            ValueKind::WeightedChoice(options) => {
                let total: u32 = options.iter().map(|(_, w)| w).sum();
                let mut pick = rng.random_range(0..total.max(1));
                for (option, weight) in options {
                    if pick < *weight {
                        return Value::Str((*option).to_owned());
                    }
                    pick -= weight;
                }
                Value::Str(options.last().expect("non-empty").0.to_owned())
            }
            ValueKind::IntRange { min, max } => Value::Int(rng.random_range(*min..=*max)),
            ValueKind::FloatRange { min, max } => {
                let raw: f64 = rng.random_range(*min..=*max);
                Value::Float((raw * 100.0).round() / 100.0)
            }
            ValueKind::Choice(options) => {
                Value::Str((*options.choose(rng).expect("choices are non-empty")).to_owned())
            }
            ValueKind::PathName { extension } => Value::Str(random_path(rng, extension)),
            ValueKind::RecentList { max_len, extension } => {
                let mut items: Vec<Value> = previous
                    .and_then(Value::as_list)
                    .map(<[Value]>::to_vec)
                    .unwrap_or_default();
                items.insert(0, Value::Str(random_path(rng, extension)));
                items.truncate(*max_len);
                Value::List(items)
            }
        }
    }

    /// An initial value for the key (what the application ships with).
    pub fn initial(&self) -> Value {
        match self {
            ValueKind::Toggle { initial } => Value::Bool(*initial),
            ValueKind::BiasedToggle { on_prob } => Value::Bool(*on_prob >= 0.5),
            ValueKind::WeightedChoice(options) => Value::Str(
                options
                    .iter()
                    .max_by_key(|(_, w)| *w)
                    .expect("non-empty")
                    .0
                    .to_owned(),
            ),
            ValueKind::IntRange { min, .. } => Value::Int(*min),
            ValueKind::FloatRange { min, .. } => Value::Float(*min),
            ValueKind::Choice(options) => {
                Value::Str((*options.first().expect("non-empty")).to_owned())
            }
            ValueKind::PathName { extension } => Value::Str(format!("default.{extension}")),
            ValueKind::RecentList { .. } => Value::List(Vec::new()),
        }
    }
}

fn random_path(rng: &mut StdRng, extension: &str) -> String {
    const STEMS: [&str; 12] = [
        "report", "notes", "draft", "budget", "thesis", "slides", "summary", "invoice", "paper",
        "letter", "plan", "data",
    ];
    format!(
        "{}{}.{}",
        STEMS.choose(rng).expect("non-empty"),
        rng.random_range(1..1000),
        extension
    )
}

/// One configuration setting within a workload spec.
#[derive(Debug, Clone, PartialEq)]
pub struct KeySpec {
    /// Key path relative to the application prefix, e.g. `mru/max_display`.
    pub name: String,
    /// How its values evolve.
    pub kind: ValueKind,
}

impl KeySpec {
    /// Creates a key spec.
    pub fn new(name: impl Into<String>, kind: ValueKind) -> Self {
        KeySpec {
            name: name.into(),
            kind,
        }
    }
}

/// How a group's writes are laid out in time when it changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupBehavior {
    /// All member keys are written in one burst spanning `span_ms`
    /// milliseconds (the default; fits inside the paper's 1-second window
    /// when `span_ms < 1000`).
    Burst {
        /// Total time between the first and last write of the group.
        span_ms: u64,
    },
    /// A most-recently-used window (the paper's Figure 1a): `keys[0]` is the
    /// rarely-changing *max count* setting; `keys[1..]` are item slots.
    ///
    /// Item slots are rewritten (staggered over `span_ms`) on every "document
    /// open", which happens `item_updates_per_session` times per session —
    /// far more often than the max changes. Changing the max rewrites the
    /// slots and *deletes* slots beyond the new max. This is the behaviour
    /// behind the paper's error #2 and its window/threshold tuning.
    MruWindow {
        /// Total time between the first and last write of a rotation.
        span_ms: u64,
        /// Expected item-slot rotations per application session.
        item_updates_per_session: f64,
    },
}

impl Default for GroupBehavior {
    fn default() -> Self {
        GroupBehavior::Burst { span_ms: 600 }
    }
}

/// A group of *related* settings the application updates together.
///
/// Groups are the ground truth for clustering-accuracy evaluation
/// (Table II): a multi-key cluster is correct iff it is contained in one
/// group.
#[derive(Debug, Clone, PartialEq)]
pub struct SettingGroup {
    /// Human-readable group name (e.g. `"mru"`, `"autocomplete"`).
    pub name: String,
    /// The member settings (written together, in spec order, with
    /// sub-second jitter).
    pub keys: Vec<KeySpec>,
    /// Expected number of user-initiated changes to this group per day.
    pub changes_per_day: f64,
    /// Probability that a change writes only a random strict subset of the
    /// group (the paper's undersized-cluster source).
    pub partial_update_prob: f64,
    /// Temporal layout of the group's writes.
    pub behavior: GroupBehavior,
}

impl SettingGroup {
    /// Creates a burst group with no partial updates.
    pub fn new(name: impl Into<String>, keys: Vec<KeySpec>, changes_per_day: f64) -> Self {
        SettingGroup {
            name: name.into(),
            keys,
            changes_per_day,
            partial_update_prob: 0.0,
            behavior: GroupBehavior::default(),
        }
    }

    /// Sets the temporal write behaviour.
    pub fn with_behavior(mut self, behavior: GroupBehavior) -> Self {
        self.behavior = behavior;
        self
    }
}

/// A setting that churns frequently and independently of everything else
/// (recently-used lists, window geometry, session counters).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseKey {
    /// The setting.
    pub spec: KeySpec,
    /// Expected writes per application session.
    pub writes_per_session: f64,
}

impl NoiseKey {
    /// Creates a noise key.
    pub fn new(spec: KeySpec, writes_per_session: f64) -> Self {
        NoiseKey {
            spec,
            writes_per_session,
        }
    }
}

/// The complete configuration-access behaviour of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Application name; becomes the first segment of every key.
    pub app: String,
    /// Related-setting groups (ground truth for Table II).
    pub groups: Vec<SettingGroup>,
    /// Independent, frequently-churning settings.
    pub noise: Vec<NoiseKey>,
    /// Settings that are read but never modified (most of the registry).
    pub static_keys: usize,
    /// Settings modified rarely and independently (one-off preferences).
    pub churn_keys: usize,
    /// Expected churn-key writes per day across the whole app.
    pub churn_writes_per_day: f64,
    /// Expected application sessions per day.
    pub sessions_per_day: f64,
    /// Extra (non-startup) reads per session.
    pub reads_per_session: u64,
    /// Every `n` days a software update rewrites a swath of settings in one
    /// burst (the paper's oversized-cluster source); `None` disables.
    pub update_every_days: Option<u64>,
}

impl WorkloadSpec {
    /// Creates a spec with no groups or noise and modest defaults.
    pub fn new(app: impl Into<String>) -> Self {
        WorkloadSpec {
            app: app.into(),
            groups: Vec::new(),
            noise: Vec::new(),
            static_keys: 0,
            churn_keys: 0,
            churn_writes_per_day: 0.0,
            sessions_per_day: 1.0,
            reads_per_session: 50,
            update_every_days: None,
        }
    }

    /// Total number of distinct keys this spec can touch.
    pub fn key_count(&self) -> usize {
        self.groups.iter().map(|g| g.keys.len()).sum::<usize>()
            + self.noise.len()
            + self.static_keys
            + self.churn_keys
    }

    /// The full key path for a relative name.
    pub fn key(&self, name: &str) -> ocasta_ttkv::Key {
        ocasta_ttkv::Key::new(format!("{}/{}", self.app, name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn toggle_flips_from_previous() {
        let kind = ValueKind::Toggle { initial: false };
        let mut r = rng();
        assert_eq!(kind.sample(&mut r, None), Value::Bool(true));
        assert_eq!(
            kind.sample(&mut r, Some(&Value::Bool(true))),
            Value::Bool(false)
        );
        assert_eq!(kind.initial(), Value::Bool(false));
    }

    #[test]
    fn int_range_stays_in_bounds() {
        let kind = ValueKind::IntRange { min: 3, max: 9 };
        let mut r = rng();
        for _ in 0..100 {
            let v = kind.sample(&mut r, None).as_int().unwrap();
            assert!((3..=9).contains(&v));
        }
    }

    #[test]
    fn recent_list_prepends_and_truncates() {
        let kind = ValueKind::RecentList {
            max_len: 3,
            extension: "doc",
        };
        let mut r = rng();
        let mut v = kind.initial();
        for _ in 0..5 {
            v = kind.sample(&mut r, Some(&v));
        }
        let items = v.as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert!(items[0].as_str().unwrap().ends_with(".doc"));
    }

    #[test]
    fn choice_draws_from_options() {
        let kind = ValueKind::Choice(vec!["a", "b"]);
        let mut r = rng();
        for _ in 0..20 {
            let v = kind.sample(&mut r, None);
            assert!(matches!(v.as_str(), Some("a") | Some("b")));
        }
    }

    #[test]
    fn float_range_rounds_to_cents() {
        let kind = ValueKind::FloatRange { min: 0.5, max: 2.0 };
        let mut r = rng();
        for _ in 0..50 {
            let v = kind.sample(&mut r, None).as_float().unwrap();
            assert!((0.5..=2.0).contains(&v));
            assert_eq!((v * 100.0).round() / 100.0, v);
        }
    }

    #[test]
    fn spec_key_count_sums_everything() {
        let mut spec = WorkloadSpec::new("app");
        spec.groups.push(SettingGroup::new(
            "g",
            vec![
                KeySpec::new("a", ValueKind::Toggle { initial: true }),
                KeySpec::new("b", ValueKind::IntRange { min: 0, max: 1 }),
            ],
            0.1,
        ));
        spec.noise.push(NoiseKey::new(
            KeySpec::new("n", ValueKind::PathName { extension: "tmp" }),
            2.0,
        ));
        spec.static_keys = 10;
        spec.churn_keys = 5;
        assert_eq!(spec.key_count(), 18);
        assert_eq!(spec.key("a").as_str(), "app/a");
    }
}
