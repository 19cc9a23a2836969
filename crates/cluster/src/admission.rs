//! Router-level admission control at fleet saturation.
//!
//! When offered load outruns the alive capacity — a mass crash, a diurnal
//! peak, a standby-depleted fleet — queueing delay compounds and every
//! class's TTFT tail collapses together. An [`AdmissionPolicy`] lets the
//! fleet degrade *by class* instead: at each arrival the driver computes a
//! fleet-wide **saturation** figure (the worst of queue pressure, KV
//! pressure and — in a disaggregated fleet — shared-pool pressure, each
//! normalised against the *alive* groups) and sheds the request outright
//! when its class's threshold is reached. A shed request never enters a
//! group; it is counted per class in the degraded section and in the
//! extended conservation invariant
//! `completed + rejected + dropped + shed = offered`.
//!
//! The policy is pure data evaluated single-threaded at epoch stops, so it
//! composes with the determinism contract like every other fleet knob.

use crate::router::GroupLoad;
use cent_serving::PriorityClass;

/// Per-class shed thresholds against fleet saturation (see module docs).
///
/// A threshold is a saturation level in `[0, ∞)`: class `c` is shed when
/// `saturation >= threshold(c)`. Classes without an explicit entry use the
/// default threshold; [`AdmissionPolicy::admit_all`] (the `Default`) sets
/// the default to infinity, which never sheds and keeps the driver on the
/// no-policy path bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionPolicy {
    /// Explicit per-class thresholds, sorted by class.
    thresholds: Vec<(PriorityClass, f64)>,
    default_threshold: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::admit_all()
    }
}

impl AdmissionPolicy {
    /// The no-op policy: every class admitted at any saturation.
    pub fn admit_all() -> Self {
        AdmissionPolicy { thresholds: Vec::new(), default_threshold: f64::INFINITY }
    }

    /// Sheds every class once saturation reaches `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN.
    pub fn shed_above(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "shed threshold must be >= 0, got {threshold}");
        AdmissionPolicy { thresholds: Vec::new(), default_threshold: threshold }
    }

    /// Overrides the threshold for one class (e.g. shed batch at 0.9
    /// saturation while interactive rides to 1.2).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN.
    pub fn with_class(mut self, class: PriorityClass, threshold: f64) -> Self {
        assert!(threshold >= 0.0, "shed threshold must be >= 0, got {threshold}");
        self.thresholds.retain(|(c, _)| *c != class);
        self.thresholds.push((class, threshold));
        self.thresholds.sort_by_key(|(c, _)| *c);
        self
    }

    /// Whether any class can ever be shed — `false` keeps the driver on
    /// the no-policy path.
    pub fn is_active(&self) -> bool {
        self.default_threshold.is_finite() || self.thresholds.iter().any(|(_, t)| t.is_finite())
    }

    /// The shed threshold applying to `class`.
    pub fn threshold(&self, class: PriorityClass) -> f64 {
        self.thresholds
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, t)| *t)
            .unwrap_or(self.default_threshold)
    }

    /// Whether a request of `class` is admitted at `saturation`.
    pub fn admits(&self, class: PriorityClass, saturation: f64) -> bool {
        saturation < self.threshold(class)
    }
}

/// Fleet-wide saturation: the worst of queue pressure (outstanding over
/// alive slots), KV pressure (reserved tokens over alive budget) and, when
/// a shared pool is present, pool pressure (`used / capacity`). `loads`
/// must already be restricted to the alive groups; an empty slice (whole
/// fleet down) saturates at infinity.
pub fn fleet_saturation(
    loads: &[GroupLoad],
    slots_per_group: u64,
    kv_budget_per_group: u64,
    pool: Option<(u64, u64)>,
) -> f64 {
    LoadSums::of(loads.iter().copied()).saturation(slots_per_group, kv_budget_per_group, pool)
}

/// The summed load of a set of alive groups: everything
/// [`fleet_saturation`] reads from them. The driver sums once per epoch
/// stop and bumps the sums as it routes, instead of re-reading every group
/// at each arrival; the sums are integers, so the figure is the same.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LoadSums {
    alive: u64,
    outstanding: u64,
    kv_tokens: u64,
}

impl LoadSums {
    pub(crate) fn of(loads: impl IntoIterator<Item = GroupLoad>) -> Self {
        let mut sums = LoadSums::default();
        for l in loads {
            sums.alive += 1;
            sums.outstanding += l.outstanding;
            sums.kv_tokens += l.kv_tokens;
        }
        sums
    }

    /// The union of two disjoint sets of groups.
    pub(crate) fn plus(self, other: LoadSums) -> Self {
        LoadSums {
            alive: self.alive + other.alive,
            outstanding: self.outstanding + other.outstanding,
            kv_tokens: self.kv_tokens + other.kv_tokens,
        }
    }

    /// Charges one routed request of `kv_tokens`, as the routing snapshot
    /// is charged.
    pub(crate) fn route(&mut self, kv_tokens: u64) {
        self.outstanding += 1;
        self.kv_tokens += kv_tokens;
    }

    /// See [`fleet_saturation`].
    pub(crate) fn saturation(
        &self,
        slots_per_group: u64,
        kv_budget_per_group: u64,
        pool: Option<(u64, u64)>,
    ) -> f64 {
        if self.alive == 0 {
            return f64::INFINITY;
        }
        let alive = self.alive as f64;
        let queue = self.outstanding as f64 / (alive * slots_per_group as f64);
        let kv_pressure = self.kv_tokens as f64 / (alive * kv_budget_per_group as f64);
        let pool_pressure = match pool {
            Some((used, capacity)) => used as f64 / capacity as f64,
            None => 0.0,
        };
        queue.max(kv_pressure).max(pool_pressure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(group: usize, outstanding: u64, kv_tokens: u64) -> GroupLoad {
        GroupLoad { group, outstanding, kv_tokens }
    }

    #[test]
    fn thresholds_resolve_per_class_with_default_fallback() {
        let policy = AdmissionPolicy::shed_above(1.2).with_class(PriorityClass::BATCH, 0.8);
        assert_eq!(policy.threshold(PriorityClass::BATCH), 0.8);
        assert_eq!(policy.threshold(PriorityClass::INTERACTIVE), 1.2);
        assert!(policy.admits(PriorityClass::INTERACTIVE, 1.0));
        assert!(!policy.admits(PriorityClass::BATCH, 1.0));
        assert!(!policy.admits(PriorityClass::BATCH, 0.8), "threshold itself sheds");
        assert!(policy.is_active());
        assert!(!AdmissionPolicy::admit_all().is_active());
        assert!(AdmissionPolicy::admit_all().admits(PriorityClass::BATCH, 1e9));
    }

    #[test]
    fn saturation_is_the_worst_pressure_over_alive_groups() {
        let loads = [load(0, 8, 1000), load(2, 0, 3000)];
        // Queue: 8 / (2 × 4) = 1.0; KV: 4000 / (2 × 16000) = 0.125.
        let s = fleet_saturation(&loads, 4, 16_000, None);
        assert!((s - 1.0).abs() < 1e-12);
        // A nearly full pool dominates both.
        let s = fleet_saturation(&loads, 4, 16_000, Some((1500, 1000)));
        assert!((s - 1.5).abs() < 1e-12);
        // Whole fleet down: infinitely saturated, everything sheds.
        assert!(fleet_saturation(&[], 4, 16_000, None).is_infinite());
    }
}
