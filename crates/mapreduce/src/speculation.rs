//! Speculative execution: racing a second attempt of a straggling map.
//!
//! §4.2 attributes reduce-completion variance to "abnormally
//! long-running Map tasks". Stock Hadoop's defense is speculative
//! execution — re-launching the slowest task and racing the copies,
//! first commit wins. This module is the policy half: *when* a running
//! attempt counts as slow, and how much more aggressive it gets once
//! the job's deadline is threatened (*boosted*). The mechanism half is
//! split: commit claims and each generation's twin state are
//! [`crate::schedule::Schedule`] decisions; loser teardown and the
//! monitor thread — which also decides when to boost — live in
//! [`crate::runtime`].
//!
//! The trigger is cohort-relative, following "Assignment Problems of
//! Different-Sized Inputs in MapReduce": a running attempt is a
//! straggler once its elapsed time exceeds `slowdown ×` the
//! `quantile`-th quantile of the job's *committed* map durations — the
//! task's own cohort, not a wall-clock constant — and the quantile is
//! only trusted once `min_committed` commits exist. Racing is bounded
//! by an at-most-one-extra-attempt invariant: a task generation gets
//! one speculative twin, ever; retries and recovery re-executions
//! start a fresh generation.

fn default_quantile() -> f64 {
    0.75
}

fn default_slowdown() -> f64 {
    2.0
}

fn default_min_committed() -> usize {
    3
}

fn default_check_interval_ms() -> u64 {
    20
}

/// When to race a second attempt of a running map task.
///
/// The default policy is **disabled** — jobs behave exactly as before
/// unless a submitter opts in.
///
/// Serialize/Deserialize are implemented by hand (not derived) so
/// every missing field deserializes to its default: submission
/// documents written before speculation existed, or that only set
/// `enabled`, stay loadable.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeculationPolicy {
    /// Master switch; everything below is inert when false.
    pub enabled: bool,
    /// Which quantile of the committed-map-duration cohort is the
    /// slowness reference. Must be in `(0, 1]`.
    pub quantile: f64,
    /// A running attempt counts as a straggler once its elapsed time
    /// exceeds `slowdown ×` the cohort quantile. Must be ≥ 1 (a
    /// factor below 1 would speculate tasks *faster* than the cohort).
    pub slowdown: f64,
    /// Commits the cohort needs before the quantile is trusted; until
    /// then nothing is speculated (unless deadline-boosted or forced).
    pub min_committed: usize,
    /// Monitor wake interval, milliseconds. Must be > 0.
    pub check_interval_ms: u64,
    /// Deterministic hook for tests and chaos scenarios: these map
    /// tasks get a speculative twin as soon as they are running, no
    /// timing involved — a non-empty list switches the cohort trigger
    /// off, so exactly these maps are raced. The
    /// at-most-one-extra-attempt invariant still holds.
    pub force_maps: Vec<usize>,
}

impl serde::ser::Serialize for SpeculationPolicy {
    fn serialize(&self, s: &mut serde::ser::JsonSer) {
        s.begin_object();
        s.field("enabled");
        serde::ser::Serialize::serialize(&self.enabled, s);
        s.field("quantile");
        serde::ser::Serialize::serialize(&self.quantile, s);
        s.field("slowdown");
        serde::ser::Serialize::serialize(&self.slowdown, s);
        s.field("min_committed");
        serde::ser::Serialize::serialize(&self.min_committed, s);
        s.field("check_interval_ms");
        serde::ser::Serialize::serialize(&self.check_interval_ms, s);
        s.field("force_maps");
        serde::ser::Serialize::serialize(&self.force_maps, s);
        s.end_object();
    }
}

impl serde::de::Deserialize for SpeculationPolicy {
    fn deserialize(d: &mut serde::de::JsonDe<'_>) -> serde::de::Result<Self> {
        use serde::de::Deserialize;
        let mut p = SpeculationPolicy::default();
        if d.begin_object()? {
            loop {
                let key = d.object_key()?;
                match key.as_str() {
                    "enabled" => p.enabled = Deserialize::deserialize(d)?,
                    "quantile" => p.quantile = Deserialize::deserialize(d)?,
                    "slowdown" => p.slowdown = Deserialize::deserialize(d)?,
                    "min_committed" => p.min_committed = Deserialize::deserialize(d)?,
                    "check_interval_ms" => p.check_interval_ms = Deserialize::deserialize(d)?,
                    "force_maps" => p.force_maps = Deserialize::deserialize(d)?,
                    _ => d.skip_value()?,
                }
                if !d.object_continue()? {
                    break;
                }
            }
        }
        Ok(p)
    }
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy {
            enabled: false,
            quantile: default_quantile(),
            slowdown: default_slowdown(),
            min_committed: default_min_committed(),
            check_interval_ms: default_check_interval_ms(),
            force_maps: Vec::new(),
        }
    }
}

impl SpeculationPolicy {
    /// An enabled policy with the default trigger math.
    pub fn on() -> Self {
        SpeculationPolicy {
            enabled: true,
            ..SpeculationPolicy::default()
        }
    }

    /// An enabled policy that speculates exactly `maps`, immediately —
    /// the deterministic test/chaos trigger.
    pub fn force(maps: impl IntoIterator<Item = usize>) -> Self {
        SpeculationPolicy {
            enabled: true,
            force_maps: maps.into_iter().collect(),
            ..SpeculationPolicy::default()
        }
    }

    /// Admission-time validation: `Err` describes the first defect.
    /// A disabled policy is always valid.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if !(self.quantile > 0.0 && self.quantile <= 1.0) {
            return Err(format!(
                "speculation quantile {} outside (0, 1]",
                self.quantile
            ));
        }
        if self.slowdown < 1.0 {
            return Err(format!(
                "speculation slowdown factor {} below 1 would race tasks faster than their cohort",
                self.slowdown
            ));
        }
        if self.check_interval_ms == 0 {
            return Err("speculation check interval of 0 ms would busy-spin the monitor".into());
        }
        Ok(())
    }

    /// The effective slowdown factor: under deadline boost the monitor
    /// races anything slower than the cohort itself.
    pub fn effective_slowdown(&self, boosted: bool) -> f64 {
        if boosted {
            1.0
        } else {
            self.slowdown
        }
    }

    /// The effective cohort floor: under deadline boost one commit is
    /// enough to trust.
    pub fn effective_min_committed(&self, boosted: bool) -> usize {
        if boosted {
            1
        } else {
            self.min_committed
        }
    }

    /// The `quantile`-th value of a **sorted** duration cohort
    /// (nearest-rank), `None` while the cohort is below the effective
    /// floor.
    pub fn cohort_quantile_ms(&self, sorted_ms: &[u64], boosted: bool) -> Option<u64> {
        if sorted_ms.len() < self.effective_min_committed(boosted).max(1) {
            return None;
        }
        let rank =
            ((self.quantile * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
        Some(sorted_ms[rank - 1])
    }

    /// Elapsed milliseconds past which a running attempt counts as a
    /// straggler: `slowdown ×` the cohort quantile. `None` while the
    /// cohort is below its floor, and always when maps are forced —
    /// those are then the only trigger, whatever the clock says.
    pub fn straggler_threshold_ms(&self, sorted_ms: &[u64], boosted: bool) -> Option<u64> {
        if !self.force_maps.is_empty() {
            return None;
        }
        let q = self.cohort_quantile_ms(sorted_ms, boosted)?;
        Some((q as f64 * self.effective_slowdown(boosted)).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_disabled_and_valid() {
        let p = SpeculationPolicy::default();
        assert!(!p.enabled);
        assert!(p.validate().is_ok());
        // A disabled policy never reports a defect, whatever its knobs.
        let broken = SpeculationPolicy {
            quantile: 7.0,
            ..SpeculationPolicy::default()
        };
        assert!(broken.validate().is_ok());
    }

    #[test]
    fn validation_rejects_broken_knobs() {
        for p in [
            SpeculationPolicy {
                quantile: 0.0,
                ..SpeculationPolicy::on()
            },
            SpeculationPolicy {
                quantile: 1.5,
                ..SpeculationPolicy::on()
            },
            SpeculationPolicy {
                slowdown: 0.5,
                ..SpeculationPolicy::on()
            },
            SpeculationPolicy {
                check_interval_ms: 0,
                ..SpeculationPolicy::on()
            },
        ] {
            assert!(p.validate().is_err(), "{p:?} should be rejected");
        }
        assert!(SpeculationPolicy::on().validate().is_ok());
        assert!(SpeculationPolicy::force([3]).validate().is_ok());
    }

    #[test]
    fn cohort_quantile_needs_the_floor_then_ranks() {
        let p = SpeculationPolicy::on(); // q=0.75, min_committed=3
        assert_eq!(p.cohort_quantile_ms(&[10], false), None);
        assert_eq!(p.cohort_quantile_ms(&[10, 20], false), None);
        assert_eq!(p.cohort_quantile_ms(&[10, 20, 30, 40], false), Some(30));
        // Boost drops the floor to one commit and the slowdown to 1.
        assert_eq!(p.cohort_quantile_ms(&[10], true), Some(10));
        assert_eq!(p.effective_slowdown(true), 1.0);
        assert_eq!(p.effective_slowdown(false), 2.0);
    }

    #[test]
    fn forced_policy_never_triggers_on_timing() {
        // Microsecond maps: the cohort says 1 ms, so under `on()` any
        // map descheduled for 2 ms is a straggler.
        let cohort = [1, 1, 1, 1];
        assert_eq!(
            SpeculationPolicy::on().straggler_threshold_ms(&cohort, false),
            Some(2)
        );
        // Forcing map 2 leaves no threshold for any other map to
        // cross, boosted or not.
        let forced = SpeculationPolicy::force([2]);
        assert_eq!(forced.straggler_threshold_ms(&cohort, false), None);
        assert_eq!(forced.straggler_threshold_ms(&cohort, true), None);
    }

    #[test]
    fn policy_roundtrips_and_tolerates_missing_fields() {
        let p = SpeculationPolicy::force([1, 4]);
        let json = serde_json::to_string(&p).unwrap();
        let back: SpeculationPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // Older documents without the field deserialize to defaults.
        let sparse: SpeculationPolicy = serde_json::from_str("{}").unwrap();
        assert_eq!(sparse, SpeculationPolicy::default());
    }
}
