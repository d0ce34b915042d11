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
//! coordinator loop — which also decides when to look again and when
//! to boost — live in [`crate::runtime`].
//!
//! The trigger is cohort-relative, following "Assignment Problems of
//! Different-Sized Inputs in MapReduce": a running attempt is a
//! straggler once its elapsed time exceeds `slowdown ×` the
//! `QUANTILE`-th quantile of the job's *committed* map durations — the
//! task's own cohort, not a wall-clock constant — and the quantile is
//! only trusted once `COHORT_FLOOR` commits exist. Racing is bounded
//! by an at-most-one-extra-attempt invariant: a task generation gets
//! one speculative twin, ever; retries and recovery re-executions
//! start a fresh generation.

use std::time::Duration;

/// How early a deadline job's trigger is boosted
/// ([`SpeculationPolicy::boost_at`]): the margin
/// `results/BENCH_speculation.json` measured rescuing every run.
const DEADLINE_MARGIN: u32 = 4;

/// Which quantile of the committed-map-duration cohort is the slowness
/// reference.
const QUANTILE: f64 = 0.75;

/// Commits the cohort needs before the quantile is trusted; until then
/// nothing is speculated (unless deadline-boosted or forced).
const COHORT_FLOOR: usize = 3;

fn default_slowdown() -> f64 {
    2.0
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
    /// A running attempt counts as a straggler once its elapsed time
    /// exceeds `slowdown ×` the cohort's `QUANTILE`. Must be ≥ 1 (a
    /// factor below 1 would speculate tasks *faster* than the cohort).
    pub slowdown: f64,
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
        s.field("slowdown");
        serde::ser::Serialize::serialize(&self.slowdown, s);
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
                    "slowdown" => p.slowdown = Deserialize::deserialize(d)?,
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
            slowdown: default_slowdown(),
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
        if self.slowdown < 1.0 {
            return Err(format!(
                "speculation slowdown factor {} below 1 would race tasks faster than their cohort",
                self.slowdown
            ));
        }
        Ok(())
    }

    /// The effective slowdown factor: under deadline boost the loop
    /// races anything slower than the cohort itself.
    pub fn effective_slowdown(&self, boosted: bool) -> f64 {
        if boosted {
            1.0
        } else {
            self.slowdown
        }
    }

    /// The `QUANTILE`-th value of a **sorted** duration cohort
    /// (nearest-rank), `None` while the cohort is below its floor:
    /// `COHORT_FLOOR` commits, or one under deadline boost.
    pub fn cohort_quantile_ms(&self, sorted_ms: &[u64], boosted: bool) -> Option<u64> {
        let floor = if boosted { 1 } else { COHORT_FLOOR };
        if sorted_ms.len() < floor {
            return None;
        }
        let rank = ((QUANTILE * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
        Some(sorted_ms[rank - 1])
    }

    /// When a job with `deadline` boosts its trigger: once
    /// `now + DEADLINE_MARGIN ×` the projected rest — the cohort
    /// quantile per task wave `left` — reaches the deadline. `None`
    /// while the cohort is below its floor. The projection is crude on
    /// purpose: the rule only asks whether the rest threatens the
    /// deadline.
    pub fn boost_at(&self, sorted_ms: &[u64], left: u64, deadline: Duration) -> Option<Duration> {
        let q = self.cohort_quantile_ms(sorted_ms, false)?;
        let projection = Duration::from_millis(q.max(1) * left);
        Some(deadline.saturating_sub(projection * DEADLINE_MARGIN))
    }

    /// Elapsed milliseconds past which a running attempt counts as a
    /// straggler: `slowdown ×` the cohort quantile, taken as at least
    /// 1 ms as in [`SpeculationPolicy::boost_at`] — durations are whole
    /// milliseconds, and a cohort of sub-millisecond maps must not make
    /// every running attempt a straggler whatever `slowdown` says.
    /// `None` while the cohort is below its floor, and always when maps
    /// are forced — those are then the only trigger, whatever the clock
    /// says.
    pub fn straggler_threshold_ms(&self, sorted_ms: &[u64], boosted: bool) -> Option<u64> {
        if !self.force_maps.is_empty() {
            return None;
        }
        let q = self.cohort_quantile_ms(sorted_ms, boosted)?.max(1);
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
            slowdown: 0.5,
            ..SpeculationPolicy::default()
        };
        assert!(broken.validate().is_ok());
    }

    #[test]
    fn validation_rejects_broken_knobs() {
        let p = SpeculationPolicy {
            slowdown: 0.5,
            ..SpeculationPolicy::on()
        };
        assert!(p.validate().is_err(), "{p:?} should be rejected");
        assert!(SpeculationPolicy::on().validate().is_ok());
        assert!(SpeculationPolicy::force([3]).validate().is_ok());
    }

    #[test]
    fn cohort_quantile_needs_the_floor_then_ranks() {
        let p = SpeculationPolicy::on(); // p75, a floor of 3 commits
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
    fn sub_millisecond_cohort_keeps_the_slowdown() {
        // Maps under a millisecond record 0 ms: the quantile counts as
        // 1 ms, so the slowdown still sets the threshold.
        let p = SpeculationPolicy {
            slowdown: 1e9,
            ..SpeculationPolicy::on()
        };
        let threshold = p.straggler_threshold_ms(&[0, 0, 0, 0], false);
        assert!(
            threshold.is_some_and(|ms| ms >= 1_000_000_000),
            "{threshold:?}"
        );
        assert_eq!(p.straggler_threshold_ms(&[0], true), Some(1));
    }

    #[test]
    fn policy_roundtrips_and_tolerates_missing_fields() {
        let p = SpeculationPolicy::force([1, 4]);
        let json = serde_json::to_string(&p).unwrap();
        let back: SpeculationPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // Older documents without the field deserialize to defaults,
        // and a key the policy no longer has is skipped.
        let sparse: SpeculationPolicy = serde_json::from_str("{}").unwrap();
        assert_eq!(sparse, SpeculationPolicy::default());
        let old: SpeculationPolicy =
            serde_json::from_str(r#"{"enabled":true,"check_interval_ms":0}"#).unwrap();
        assert_eq!(old, SpeculationPolicy::on());
        // So is the trigger quantile, now a constant.
        let knob = r#"{"enabled":true,"quantile":0.5}"#;
        let old: SpeculationPolicy = serde_json::from_str(knob).unwrap();
        assert_eq!(old, SpeculationPolicy::on());
    }
}
