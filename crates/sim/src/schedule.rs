//! Unified, serializable scheduling knobs.
//!
//! The paper derives its three optimizations (ECL-CC first-neighbor
//! init §6.2.2, ECL-SCC block size §6.2.1, ECL-MST launch config
//! §6.2.3) by hand from profiles. Each of those decisions is a point
//! in a small discrete space that was previously scattered across the
//! suite: `LaunchConfig` block sizes inside algorithm configs,
//! [`DispatchPolicy`] engine/worker/grain overrides, and per-algorithm
//! toggles. A [`Schedule`] collects one assignment of all of them into
//! a single serializable value, and [`knob_registry`] declares, per
//! algorithm, which knobs exist and which values each may take — the
//! search space `ecl-tune` sweeps and the schema its manifests are
//! validated against.
//!
//! Two invariants the rest of the suite relies on:
//!
//! - **Serialization is canonical.** Knobs are kept sorted by name and
//!   rendered deterministically, so `to_json` → [`Schedule::from_json`]
//!   → `to_json` is a fixpoint and schedules can be compared as
//!   strings.
//! - **Dispatch knobs never change results.** `dispatch`, `workers`
//!   and `grain` select how blocks map onto OS threads; the scheduler
//!   determinism suite guarantees modeled cost and algorithm output
//!   are identical across them. They are carried (and applied) so runs
//!   are reproducible end to end, but marked [`KnobSpec::cost_neutral`]
//!   so a modeled-cost search does not waste evaluations sweeping them.

use crate::pool::{parse_dispatch_mode, DispatchPolicy};
use ecl_profiling::json::{self, Value};

/// One knob's value. Integers and floats are kept distinct so
/// serialization is exact, but the typed accessors coerce (an `Int` is
/// a valid `f64` knob), matching how JSON readers see the file.
#[derive(Clone, Debug, PartialEq)]
pub enum KnobValue {
    /// Boolean toggle.
    Bool(bool),
    /// Integer-valued knob (block sizes, bins, salts, counts).
    Int(i64),
    /// Real-valued knob (fractions).
    Float(f64),
    /// Enumerated string knob (dispatch engine, priority policy).
    Str(&'static str),
}

impl KnobValue {
    fn to_json(&self) -> String {
        match self {
            KnobValue::Bool(b) => b.to_string(),
            KnobValue::Int(i) => i.to_string(),
            KnobValue::Float(f) => json::num(*f),
            KnobValue::Str(s) => format!("\"{}\"", json::escape(s)),
        }
    }
}

/// The set of values a knob may take. Domains are small and discrete
/// by design: every value is something a person could plausibly write
/// in a config, and exhaustive search over a whole algorithm's space
/// stays tractable.
#[derive(Clone, Copy, Debug)]
pub enum KnobDomain {
    /// `false` / `true`.
    Bool,
    /// An explicit list of integers.
    Ints(&'static [i64]),
    /// An explicit list of reals.
    Floats(&'static [f64]),
    /// An explicit list of strings.
    Choice(&'static [&'static str]),
}

impl KnobDomain {
    /// Number of admissible values.
    pub fn len(&self) -> usize {
        match self {
            KnobDomain::Bool => 2,
            KnobDomain::Ints(v) => v.len(),
            KnobDomain::Floats(v) => v.len(),
            KnobDomain::Choice(v) => v.len(),
        }
    }

    /// Whether the domain is empty (never, for registry entries).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th admissible value.
    pub fn value(&self, i: usize) -> KnobValue {
        match self {
            KnobDomain::Bool => KnobValue::Bool(i != 0),
            KnobDomain::Ints(v) => KnobValue::Int(v[i]),
            KnobDomain::Floats(v) => KnobValue::Float(v[i]),
            KnobDomain::Choice(v) => KnobValue::Str(v[i]),
        }
    }

    /// All admissible values, index-ordered.
    pub fn values(&self) -> Vec<KnobValue> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// Whether `v` is one of the admissible values (with `Int`/`Float`
    /// coercion, mirroring what a JSON reader can distinguish).
    pub fn admits(&self, v: &KnobValue) -> bool {
        match (self, v) {
            (KnobDomain::Bool, KnobValue::Bool(_)) => true,
            (KnobDomain::Ints(d), KnobValue::Int(x)) => d.contains(x),
            (KnobDomain::Floats(d), KnobValue::Float(x)) => {
                d.iter().any(|f| f.to_bits() == x.to_bits())
            }
            (KnobDomain::Floats(d), KnobValue::Int(x)) => d.contains(&(*x as f64)),
            (KnobDomain::Choice(d), KnobValue::Str(s)) => d.contains(s),
            _ => false,
        }
    }
}

/// One knob's declaration: its name, admissible values, and default.
#[derive(Clone, Copy, Debug)]
pub struct KnobSpec {
    /// Stable knob name (the JSON key).
    pub name: &'static str,
    /// Admissible values.
    pub domain: KnobDomain,
    /// Index of the default value in the domain.
    pub default_ix: usize,
    /// Whether the knob is provably modeled-cost-neutral (dispatch
    /// engine knobs: results and cost are schedule-independent by the
    /// determinism guarantee). Searches skip these; applications
    /// honor them.
    pub cost_neutral: bool,
}

impl KnobSpec {
    /// The default value.
    pub fn default_value(&self) -> KnobValue {
        self.domain.value(self.default_ix)
    }
}

/// Sentinel meaning "inherit" for the `workers` / `grain` knobs (no
/// forced value; environment and auto-sizing apply).
pub const INHERIT: i64 = 0;

const DISPATCH_KNOBS: [KnobSpec; 3] = [
    KnobSpec {
        name: "dispatch",
        domain: KnobDomain::Choice(&["pool", "seq"]),
        default_ix: 0,
        cost_neutral: true,
    },
    KnobSpec {
        name: "workers",
        domain: KnobDomain::Ints(&[INHERIT, 1, 2, 4, 8]),
        default_ix: 0,
        cost_neutral: true,
    },
    KnobSpec {
        name: "grain",
        domain: KnobDomain::Ints(&[INHERIT, 1, 4, 16, 64, 256]),
        default_ix: 0,
        cost_neutral: true,
    },
];

const BLOCK_SIZES: &[i64] = &[64, 128, 256, 512, 1024];

macro_rules! knob {
    ($name:literal, $domain:expr, $default_ix:expr) => {
        KnobSpec { name: $name, domain: $domain, default_ix: $default_ix, cost_neutral: false }
    };
}

const CC_KNOBS: [KnobSpec; 7] = [
    DISPATCH_KNOBS[0],
    DISPATCH_KNOBS[1],
    DISPATCH_KNOBS[2],
    knob!("block_size", KnobDomain::Ints(BLOCK_SIZES), 2),
    knob!("optimized_init", KnobDomain::Bool, 0),
    knob!("low_bin", KnobDomain::Ints(&[8, 16, 32]), 1),
    knob!("medium_bin", KnobDomain::Ints(&[176, 352, 704]), 1),
];

const GC_KNOBS: [KnobSpec; 6] = [
    DISPATCH_KNOBS[0],
    DISPATCH_KNOBS[1],
    DISPATCH_KNOBS[2],
    knob!("block_size", KnobDomain::Ints(BLOCK_SIZES), 2),
    knob!("shortcut1", KnobDomain::Bool, 1),
    knob!("shortcut2", KnobDomain::Bool, 1),
];

const MIS_KNOBS: [KnobSpec; 5] = [
    DISPATCH_KNOBS[0],
    DISPATCH_KNOBS[1],
    DISPATCH_KNOBS[2],
    knob!("priority", KnobDomain::Choice(&["degree", "random", "id"]), 0),
    knob!("tie_salt", KnobDomain::Ints(&[0, 0x9E37, 0x85EB, 0xC2B2]), 0),
];

const MST_KNOBS: [KnobSpec; 6] = [
    DISPATCH_KNOBS[0],
    DISPATCH_KNOBS[1],
    DISPATCH_KNOBS[2],
    knob!("block_size", KnobDomain::Ints(BLOCK_SIZES), 2),
    knob!("fixed_launch", KnobDomain::Bool, 0),
    knob!("light_fraction", KnobDomain::Floats(&[0.25, 0.5, 0.75]), 1),
];

const SCC_KNOBS: [KnobSpec; 5] = [
    DISPATCH_KNOBS[0],
    DISPATCH_KNOBS[1],
    DISPATCH_KNOBS[2],
    knob!("block_size", KnobDomain::Ints(BLOCK_SIZES), 3),
    knob!("trim", KnobDomain::Bool, 0),
];

/// The five algorithms with a registered knob space.
pub const ALGOS: [&str; 5] = ["cc", "gc", "mis", "mst", "scc"];

/// The knob space of `algo` (by wire name). Unknown names get the
/// dispatch-only space, so generic tooling degrades gracefully.
pub fn knob_registry(algo: &str) -> &'static [KnobSpec] {
    match algo {
        "cc" => &CC_KNOBS,
        "gc" => &GC_KNOBS,
        "mis" => &MIS_KNOBS,
        "mst" => &MST_KNOBS,
        "scc" => &SCC_KNOBS,
        _ => &DISPATCH_KNOBS,
    }
}

/// The default schedule of `algo`: every registered knob at its
/// default value. Applying it reproduces the untuned configuration.
pub fn default_schedule(algo: &str) -> Schedule {
    let mut s = Schedule::new();
    for spec in knob_registry(algo) {
        s.set(spec.name, spec.default_value());
    }
    s
}

/// One complete assignment of scheduling knobs: a sorted
/// name → value map with canonical JSON round-tripping.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Schedule {
    /// Sorted by name; unique names.
    knobs: Vec<(String, KnobValue)>,
}

impl Schedule {
    /// An empty schedule (applies nothing).
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Sets `name` to `value`, replacing an existing assignment.
    pub fn set(&mut self, name: &str, value: KnobValue) {
        match self.knobs.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.knobs[i].1 = value,
            Err(i) => self.knobs.insert(i, (name.to_string(), value)),
        }
    }

    /// Builder form of [`Schedule::set`].
    pub fn with(mut self, name: &str, value: KnobValue) -> Schedule {
        self.set(name, value);
        self
    }

    /// The raw value of `name`.
    pub fn get(&self, name: &str) -> Option<&KnobValue> {
        self.knobs.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok().map(|i| &self.knobs[i].1)
    }

    /// All assignments, name-sorted.
    pub fn knobs(&self) -> &[(String, KnobValue)] {
        &self.knobs
    }

    /// Number of assigned knobs.
    pub fn len(&self) -> usize {
        self.knobs.len()
    }

    /// Whether no knobs are assigned.
    pub fn is_empty(&self) -> bool {
        self.knobs.is_empty()
    }

    /// Boolean knob accessor.
    pub fn bool_knob(&self, name: &str) -> Option<bool> {
        match self.get(name)? {
            KnobValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer knob accessor.
    pub fn int_knob(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            KnobValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Real knob accessor (accepts `Int` values: JSON cannot tell
    /// `1` from `1.0`).
    pub fn float_knob(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            KnobValue::Float(f) => Some(*f),
            KnobValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String knob accessor.
    pub fn str_knob(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            KnobValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The dispatch-policy override this schedule encodes: `dispatch`
    /// selects the engine, `workers`/`grain` force counts
    /// ([`INHERIT`]/absent fields fall through to the environment).
    pub fn dispatch_policy(&self) -> DispatchPolicy {
        let mode = self.str_knob("dispatch").and_then(|v| parse_dispatch_mode(v).ok());
        let positive = |v: Option<i64>| v.filter(|&x| x > 0).map(|x| x as usize);
        DispatchPolicy {
            workers: positive(self.int_knob("workers")),
            grain: positive(self.int_knob("grain")),
            mode,
        }
    }

    /// Checks every assignment against `algo`'s registry: unknown
    /// knobs and out-of-domain values are errors. The manifest
    /// validator calls this so a hand-edited schedule cannot smuggle
    /// in a value the search space does not admit.
    pub fn check_against_registry(&self, algo: &str) -> Result<(), String> {
        let registry = knob_registry(algo);
        for (name, value) in &self.knobs {
            let spec = registry
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("unknown knob {name:?} for algo {algo:?}"))?;
            if !spec.domain.admits(value) {
                return Err(format!(
                    "knob {name:?} value {} outside the {algo} domain",
                    value.to_json()
                ));
            }
        }
        Ok(())
    }

    /// Canonical single-line JSON object, keys sorted.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .knobs
            .iter()
            .map(|(n, v)| format!("\"{}\": {}", json::escape(n), v.to_json()))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Parses a schedule from a JSON object string.
    pub fn from_json(text: &str) -> Result<Schedule, String> {
        Self::from_value(&json::parse(text)?)
    }

    /// [`Schedule::from_json`] over an already-parsed [`Value`].
    /// String values are interned against the registries' static
    /// vocabulary; a string outside it is rejected (the registry is
    /// the full set of legal enumerated values).
    pub fn from_value(v: &Value) -> Result<Schedule, String> {
        let Value::Obj(members) = v else {
            return Err("schedule must be a JSON object".to_string());
        };
        let mut s = Schedule::new();
        for (name, value) in members {
            let kv = match value {
                Value::Bool(b) => KnobValue::Bool(*b),
                Value::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => KnobValue::Int(*x as i64),
                Value::Num(x) => KnobValue::Float(*x),
                Value::Str(text) => KnobValue::Str(
                    intern_knob_str(text)
                        .ok_or_else(|| format!("unknown schedule string value {text:?}"))?,
                ),
                other => {
                    return Err(format!("knob {name:?} has non-scalar value {other:?}"));
                }
            };
            s.set(name, kv);
        }
        Ok(s)
    }
}

/// Maps a parsed string back to its `&'static` registry spelling.
fn intern_knob_str(text: &str) -> Option<&'static str> {
    for algo in ALGOS {
        for spec in knob_registry(algo) {
            if let KnobDomain::Choice(options) = spec.domain {
                if let Some(&s) = options.iter().find(|&&o| o == text) {
                    return Some(s);
                }
            }
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn registry_defaults_match_baselines() {
        // The default schedule must reproduce the untuned configs the
        // paper profiles: CC full-init at 256, SCC 512, MST stale
        // launch, GC both shortcuts, MIS degree priority salt 0.
        let cc = default_schedule("cc");
        assert_eq!(cc.int_knob("block_size"), Some(256));
        assert_eq!(cc.bool_knob("optimized_init"), Some(false));
        assert_eq!(cc.int_knob("low_bin"), Some(16));
        assert_eq!(cc.int_knob("medium_bin"), Some(352));
        assert_eq!(default_schedule("scc").int_knob("block_size"), Some(512));
        assert_eq!(default_schedule("mst").bool_knob("fixed_launch"), Some(false));
        assert_eq!(default_schedule("mst").float_knob("light_fraction"), Some(0.5));
        assert_eq!(default_schedule("gc").bool_knob("shortcut1"), Some(true));
        assert_eq!(default_schedule("mis").str_knob("priority"), Some("degree"));
        assert_eq!(default_schedule("mis").int_knob("tie_salt"), Some(0));
    }

    #[test]
    fn every_registry_default_is_in_domain() {
        for algo in ALGOS {
            for spec in knob_registry(algo) {
                assert!(spec.default_ix < spec.domain.len(), "{algo}/{}", spec.name);
                assert!(spec.domain.admits(&spec.default_value()), "{algo}/{}", spec.name);
            }
            assert!(default_schedule(algo).check_against_registry(algo).is_ok());
        }
    }

    #[test]
    fn json_roundtrip_is_canonical() {
        for algo in ALGOS {
            let s = default_schedule(algo);
            let j = s.to_json();
            let back = Schedule::from_json(&j).unwrap();
            assert_eq!(back, s, "{algo}");
            assert_eq!(back.to_json(), j, "canonical fixpoint for {algo}");
        }
        // Floats survive exactly.
        let s = Schedule::new().with("light_fraction", KnobValue::Float(0.25));
        let back = Schedule::from_json(&s.to_json()).unwrap();
        assert_eq!(back.float_knob("light_fraction"), Some(0.25));
    }

    #[test]
    fn set_replaces_and_sorts() {
        let mut s = Schedule::new();
        s.set("b", KnobValue::Int(1));
        s.set("a", KnobValue::Int(2));
        s.set("b", KnobValue::Int(3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.knobs()[0].0, "a");
        assert_eq!(s.int_knob("b"), Some(3));
        assert_eq!(s.to_json(), "{\"a\": 2, \"b\": 3}");
    }

    #[test]
    fn dispatch_policy_extraction() {
        let s = Schedule::new()
            .with("dispatch", KnobValue::Str("seq"))
            .with("workers", KnobValue::Int(4))
            .with("grain", KnobValue::Int(INHERIT));
        let p = s.dispatch_policy();
        assert_eq!(p.mode, Some(crate::pool::DispatchMode::Sequential));
        assert_eq!(p.workers, Some(4));
        assert_eq!(p.grain, None, "INHERIT means no forced grain");
        // An empty schedule forces nothing.
        let empty = Schedule::new().dispatch_policy();
        assert!(empty.mode.is_none() && empty.workers.is_none() && empty.grain.is_none());
    }

    #[test]
    fn registry_rejects_out_of_domain() {
        let bad = Schedule::new().with("block_size", KnobValue::Int(333));
        assert!(bad.check_against_registry("scc").unwrap_err().contains("block_size"));
        let unknown = Schedule::new().with("warp_width", KnobValue::Int(32));
        assert!(unknown.check_against_registry("cc").unwrap_err().contains("warp_width"));
        let ok = Schedule::new().with("block_size", KnobValue::Int(128));
        assert!(ok.check_against_registry("scc").is_ok());
    }

    #[test]
    fn unknown_string_value_is_rejected() {
        assert!(Schedule::from_json("{\"dispatch\": \"gpu\"}").is_err());
        assert!(Schedule::from_json("{\"dispatch\": \"spawn\"}").is_err());
        assert!(Schedule::from_json("{\"dispatch\": \"seq\"}").is_ok());
    }

    #[test]
    fn cost_neutral_marks_exactly_the_dispatch_knobs() {
        for algo in ALGOS {
            for spec in knob_registry(algo) {
                let is_dispatch = matches!(spec.name, "dispatch" | "workers" | "grain");
                assert_eq!(spec.cost_neutral, is_dispatch, "{algo}/{}", spec.name);
            }
        }
    }
}
