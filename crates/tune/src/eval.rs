//! Candidate evaluation: one (algorithm, input, [`Schedule`]) triple →
//! deterministic modeled time plus a result signature.
//!
//! Every evaluation builds a fresh scaled device so cost tallies never
//! leak between candidates, applies the schedule's dispatch policy
//! with [`ecl_gpusim::pool::with_policy`], and runs the algorithm's
//! real implementation — the same code paths `ecl-serve` executes, so
//! a schedule that wins here wins in production. The objective is
//! [`ecl_gpusim::Device::modeled_time`], which the scheduler
//! determinism suite guarantees is a pure function of (algorithm,
//! input, schedule): no repeats, no noise envelope, bit-exact
//! reproducibility.

use std::sync::Arc;

use ecl_gpusim::pool::with_policy;
use ecl_gpusim::{Device, DeviceConfig, Schedule};
use ecl_graph::{Csr, Fingerprint, WeightedCsr};

/// SM floor for SCC runs (the forward/backward sweeps need a
/// multi-block grid even at tiny scales; kept in sync with the bench
/// harness and serve).
pub const SCC_MIN_SMS: usize = 8;

/// Weight cap for generated weighted views (matches the serve
/// catalog's default so tuned MST runs see identical inputs).
pub const DEFAULT_MAX_WEIGHT: u32 = 1 << 20;

/// An RTX 4090 scaled down by `scale`: same SM shape, proportionally
/// fewer SMs, floored at `min_sms`.
pub fn scaled_device(scale: f64, min_sms: usize) -> Device {
    let full = DeviceConfig::rtx4090();
    let num_sms = ((full.num_sms as f64 * scale).round() as usize).max(min_sms).max(1);
    Device::new(DeviceConfig { num_sms, ..full })
}

/// One concrete input under tuning: the graph views the algorithms
/// consume plus its family fingerprint (the manifest bucket key).
#[derive(Clone)]
pub struct TuneInput {
    /// Registry input name.
    pub name: String,
    /// Generation scale.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Unweighted view (CC, GC, MIS, SCC).
    pub csr: Option<Arc<Csr>>,
    /// Weighted view (MST), generated for undirected inputs.
    pub weighted: Option<Arc<WeightedCsr>>,
    /// Structural fingerprint of the unweighted view.
    pub fingerprint: Fingerprint,
}

impl TuneInput {
    /// Generates the registry input `name` at `scale`/`seed` with both
    /// views and its fingerprint.
    pub fn from_registry(name: &str, scale: f64, seed: u64) -> Result<TuneInput, String> {
        let spec = ecl_graphgen::registry::find(name)
            .ok_or_else(|| format!("unknown registry input {name:?}"))?;
        let g = spec.generate(scale, seed);
        let weighted = if spec.directed {
            None
        } else {
            Some(Arc::new(spec.generate_weighted(scale, seed, DEFAULT_MAX_WEIGHT)))
        };
        let fingerprint = Fingerprint::of(&g);
        Ok(TuneInput {
            name: name.to_string(),
            scale,
            seed,
            csr: Some(Arc::new(g)),
            weighted,
            fingerprint,
        })
    }

    /// Whether `algo` can run on this input (the serve directedness
    /// contract: SCC is directed-only, everything else undirected).
    pub fn supports(&self, algo: &str) -> bool {
        match algo {
            "scc" => self.fingerprint.directed && self.csr.is_some(),
            "mst" => !self.fingerprint.directed && self.weighted.is_some(),
            "cc" | "gc" | "mis" => !self.fingerprint.directed && self.csr.is_some(),
            _ => false,
        }
    }
}

/// The outcome of one candidate evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalOutcome {
    /// Deterministic modeled GPU time in cost units (the objective).
    pub modeled_time: f64,
    /// FNV signature over the algorithm's solution vector and
    /// aggregates — lets tests assert that two evaluation paths
    /// produced the *same result*, not merely the same cost.
    pub result_sig: u64,
}

/// FNV-1a over a `u32` slice.
fn fnv_u32(h: u64, values: &[u32]) -> u64 {
    let mut h = h;
    for &v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Evaluates `schedule` for `algo` on `input`. Builds a fresh device,
/// applies the schedule to the algorithm's default config, and runs
/// under the schedule's dispatch policy.
pub fn evaluate(algo: &str, input: &TuneInput, schedule: &Schedule) -> Result<EvalOutcome, String> {
    if !input.supports(algo) {
        return Err(format!(
            "{algo} cannot run on {:?} (directed={})",
            input.name, input.fingerprint.directed
        ));
    }
    let min_sms = if algo == "scc" { SCC_MIN_SMS } else { 1 };
    let device = scaled_device(input.scale, min_sms);
    let missing = || "internal: graph view missing".to_string();
    let result_sig = with_policy(schedule.dispatch_policy(), || -> Result<u64, String> {
        match algo {
            "cc" => {
                let g = input.csr.as_ref().ok_or_else(missing)?;
                let mut cfg = ecl_cc::CcConfig::default();
                cfg.apply_schedule(schedule);
                let r = ecl_cc::run(&device, g, &cfg);
                Ok(fnv_u32(FNV_OFFSET, &r.labels))
            }
            "gc" => {
                let g = input.csr.as_ref().ok_or_else(missing)?;
                let mut cfg = ecl_gc::GcConfig::default();
                cfg.apply_schedule(schedule);
                let r = ecl_gc::run(&device, g, &cfg);
                Ok(fnv_u32(FNV_OFFSET ^ r.rounds as u64, &r.colors))
            }
            "mis" => {
                let g = input.csr.as_ref().ok_or_else(missing)?;
                let mut cfg = ecl_mis::MisConfig::default();
                cfg.apply_schedule(schedule);
                let r = ecl_mis::run(&device, g, &cfg);
                let set: Vec<u32> = r.in_set.iter().map(|&b| b as u32).collect();
                Ok(fnv_u32(FNV_OFFSET ^ r.rounds as u64, &set))
            }
            "mst" => {
                let g = input.weighted.as_ref().ok_or_else(missing)?;
                let mut cfg = ecl_mst::MstConfig::default();
                cfg.apply_schedule(schedule);
                let r = ecl_mst::run(&device, g, &cfg);
                let mut edges: Vec<u32> = r.edges.iter().map(|&e| e as u32).collect();
                edges.sort_unstable();
                Ok(fnv_u32(FNV_OFFSET ^ r.total_weight, &edges))
            }
            "scc" => {
                let g = input.csr.as_ref().ok_or_else(missing)?;
                let mut cfg = ecl_scc::SccConfig::default();
                cfg.apply_schedule(schedule);
                let r = ecl_scc::run(&device, g, &cfg);
                Ok(fnv_u32(FNV_OFFSET ^ r.outer_iterations as u64, &r.labels))
            }
            other => Err(format!("unknown algorithm {other:?}")),
        }
    })?;
    Ok(EvalOutcome { modeled_time: device.modeled_time(), result_sig })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecl_gpusim::schedule::{default_schedule, KnobValue};

    fn internet() -> TuneInput {
        TuneInput::from_registry("internet", 0.002, 7).unwrap()
    }

    #[test]
    fn evaluation_is_bit_deterministic() {
        let input = internet();
        let s = default_schedule("cc");
        let a = evaluate("cc", &input, &s).unwrap();
        let b = evaluate("cc", &input, &s).unwrap();
        assert_eq!(a, b, "same schedule must reproduce bit-identically");
        assert!(a.modeled_time > 0.0);
    }

    #[test]
    fn dispatch_knobs_are_cost_neutral() {
        // The invariant the search relies on: engine/worker/grain
        // choice changes neither cost nor result.
        let input = internet();
        let base = evaluate("cc", &input, &default_schedule("cc")).unwrap();
        let seq = default_schedule("cc")
            .with("dispatch", KnobValue::Str("seq"))
            .with("workers", KnobValue::Int(1));
        let pool = default_schedule("cc")
            .with("dispatch", KnobValue::Str("pool"))
            .with("workers", KnobValue::Int(2))
            .with("grain", KnobValue::Int(4));
        for alt in [seq, pool] {
            let r = evaluate("cc", &input, &alt).unwrap();
            assert_eq!(r.modeled_time.to_bits(), base.modeled_time.to_bits());
            assert_eq!(r.result_sig, base.result_sig);
        }
    }

    #[test]
    fn block_size_changes_modeled_cost() {
        let input = TuneInput::from_registry("toroid-wedge", 0.002, 7).unwrap();
        let d = evaluate("scc", &input, &default_schedule("scc")).unwrap();
        let small = default_schedule("scc").with("block_size", KnobValue::Int(64));
        let s = evaluate("scc", &input, &small).unwrap();
        assert_ne!(d.modeled_time.to_bits(), s.modeled_time.to_bits());
    }

    #[test]
    fn directedness_contract_enforced() {
        let input = internet();
        assert!(evaluate("scc", &input, &default_schedule("scc")).is_err());
        let directed = TuneInput::from_registry("toroid-wedge", 0.002, 7).unwrap();
        assert!(evaluate("cc", &directed, &default_schedule("cc")).is_err());
        assert!(directed.supports("scc") && !directed.supports("mst"));
    }

    #[test]
    fn all_five_algorithms_evaluate() {
        let und = internet();
        for algo in ["cc", "gc", "mis", "mst"] {
            let r = evaluate(algo, &und, &default_schedule(algo)).unwrap();
            assert!(r.modeled_time > 0.0, "{algo}");
        }
        let dir = TuneInput::from_registry("star", 0.002, 7).unwrap();
        assert!(evaluate("scc", &dir, &default_schedule("scc")).unwrap().modeled_time > 0.0);
    }
}
