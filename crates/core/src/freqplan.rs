//! Frequency planning.
//!
//! §3 of the paper: "we empirically found that a distance of approximately
//! 20 Hz between frequencies is needed to accurately differentiate them.
//! Each switch in our testbed was assigned a unique set of frequencies, so
//! that we can identify sounds played by different switches at the same
//! time." And §5: "we could distinguish up to 1000 distinct frequencies
//! played simultaneously only considering the human-hearable frequency
//! range."
//!
//! A [`FrequencyPlan`] divides a band into 20 Hz-spaced slots and hands out
//! disjoint [`FrequencySet`]s to devices/applications; the detector side
//! maps observed frequencies back to slots.

use std::fmt;

/// The paper's empirically-required spacing between usable tones.
pub const DEFAULT_SPACING_HZ: f64 = 20.0;

/// Errors from plan allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Not enough unallocated slots remain.
    Exhausted {
        /// Slots requested.
        requested: usize,
        /// Slots still free.
        available: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Exhausted {
                requested,
                available,
            } => {
                write!(
                    f,
                    "frequency plan exhausted: requested {requested}, {available} free"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A contiguous band divided into uniformly spaced tone slots.
///
/// ```
/// use mdn_core::freqplan::FrequencyPlan;
/// let mut plan = FrequencyPlan::audible_default();
/// assert!(plan.capacity() >= 900); // the paper's "~1000 frequencies"
/// let a = plan.allocate("switch-1", 8).unwrap();
/// let b = plan.allocate("switch-2", 8).unwrap();
/// assert!(a.slots.iter().all(|s| !b.slots.contains(s))); // disjoint
/// ```
#[derive(Debug, Clone)]
pub struct FrequencyPlan {
    lo_hz: f64,
    spacing_hz: f64,
    slots: usize,
    next_free: usize,
    assignments: Vec<(String, Vec<usize>)>,
}

impl FrequencyPlan {
    /// A plan over `[lo_hz, hi_hz]` with the given slot spacing.
    ///
    /// # Panics
    /// Panics on a degenerate band or non-positive spacing.
    pub fn new(lo_hz: f64, hi_hz: f64, spacing_hz: f64) -> Self {
        assert!(lo_hz > 0.0 && hi_hz > lo_hz, "bad band {lo_hz}..{hi_hz}");
        assert!(spacing_hz > 0.0, "spacing must be positive");
        let slots = ((hi_hz - lo_hz) / spacing_hz).floor() as usize + 1;
        Self {
            lo_hz,
            spacing_hz,
            slots,
            next_free: 0,
            assignments: Vec::new(),
        }
    }

    /// The paper's audible-band default: 300 Hz – 18.5 kHz at 20 Hz spacing
    /// (above HVAC rumble, inside cheap-speaker response), giving ≈ 910
    /// usable slots — the same order as the paper's "up to 1000 distinct
    /// frequencies".
    pub fn audible_default() -> Self {
        Self::new(300.0, 18_500.0, DEFAULT_SPACING_HZ)
    }

    /// The §8 extension: extend the band to 40 kHz with ultrasound-capable
    /// hardware, roughly doubling capacity.
    pub fn with_ultrasound() -> Self {
        Self::new(300.0, 40_000.0, DEFAULT_SPACING_HZ)
    }

    /// Total slots in the band.
    pub fn capacity(&self) -> usize {
        self.slots
    }

    /// Slots not yet allocated.
    pub fn available(&self) -> usize {
        self.slots - self.next_free
    }

    /// The spacing between adjacent slots, Hz.
    pub fn spacing_hz(&self) -> f64 {
        self.spacing_hz
    }

    /// Centre frequency of slot `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn slot_freq(&self, i: usize) -> f64 {
        assert!(
            i < self.slots,
            "slot {i} out of range (capacity {})",
            self.slots
        );
        self.lo_hz + i as f64 * self.spacing_hz
    }

    /// The slot whose centre is nearest `freq_hz`, together with the
    /// distance in Hz; `None` if the frequency is outside the band by more
    /// than half a spacing.
    pub fn nearest_slot(&self, freq_hz: f64) -> Option<(usize, f64)> {
        let idx = ((freq_hz - self.lo_hz) / self.spacing_hz).round();
        if idx < 0.0 || idx as usize >= self.slots {
            return None;
        }
        let idx = idx as usize;
        let dist = (freq_hz - self.slot_freq(idx)).abs();
        if dist <= self.spacing_hz / 2.0 {
            Some((idx, dist))
        } else {
            None
        }
    }

    /// Allocate `count` consecutive slots to `label` (a device or an
    /// application task). Sets are disjoint by construction.
    pub fn allocate(
        &mut self,
        label: impl Into<String>,
        count: usize,
    ) -> Result<FrequencySet, PlanError> {
        if count > self.available() {
            return Err(PlanError::Exhausted {
                requested: count,
                available: self.available(),
            });
        }
        let indices: Vec<usize> = (self.next_free..self.next_free + count).collect();
        self.next_free += count;
        let label = label.into();
        self.assignments.push((label.clone(), indices.clone()));
        let freqs = indices.iter().map(|&i| self.slot_freq(i)).collect();
        Ok(FrequencySet {
            label,
            slots: indices,
            freqs,
        })
    }

    /// Every `(label, slots)` allocation made so far.
    pub fn assignments(&self) -> &[(String, Vec<usize>)] {
        &self.assignments
    }

    /// Carve the band into `colors` equal contiguous sub-bands and return
    /// a fresh, unallocated plan over sub-band `color` — the spatial-reuse
    /// primitive for acoustic cells: cells assigned the same color draw
    /// from identical sub-plans (same frequencies), cells with different
    /// colors are disjoint by construction. Derived from the full band
    /// regardless of any allocations already made on `self`; slots that
    /// don't divide evenly are left unused at the top of the band.
    ///
    /// ```
    /// use mdn_core::freqplan::FrequencyPlan;
    /// let plan = FrequencyPlan::audible_default();
    /// let a = plan.subband(0, 4);
    /// let b = plan.subband(1, 4);
    /// assert_eq!(a.capacity(), plan.capacity() / 4);
    /// assert!(b.slot_freq(0) > a.slot_freq(a.capacity() - 1)); // disjoint
    /// ```
    ///
    /// # Panics
    /// Panics if `color >= colors` or if the band is too small to give
    /// every color at least one slot.
    pub fn subband(&self, color: usize, colors: usize) -> FrequencyPlan {
        assert!(colors > 0, "need at least one color");
        assert!(color < colors, "color {color} out of range 0..{colors}");
        let per = self.slots / colors;
        assert!(
            per > 0,
            "{} slots cannot be split {colors} ways",
            self.slots
        );
        FrequencyPlan {
            lo_hz: self.lo_hz + (color * per) as f64 * self.spacing_hz,
            spacing_hz: self.spacing_hz,
            slots: per,
            next_free: 0,
            assignments: Vec::new(),
        }
    }
}

/// A device's (or application's) disjoint set of tone slots.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencySet {
    /// Who owns the set.
    pub label: String,
    /// Global slot indices in the plan.
    pub slots: Vec<usize>,
    /// Centre frequencies, parallel to `slots`.
    pub freqs: Vec<f64>,
}

impl FrequencySet {
    /// Number of slots in the set.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True for an empty set.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Frequency of the set-local slot `i` (0-based within this set).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn freq(&self, i: usize) -> f64 {
        self.freqs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audible_default_capacity_matches_paper_order() {
        let plan = FrequencyPlan::audible_default();
        assert!(
            (900..=1000).contains(&plan.capacity()),
            "capacity {} not in paper's ~1000 range",
            plan.capacity()
        );
    }

    #[test]
    fn ultrasound_roughly_doubles_capacity() {
        let audible = FrequencyPlan::audible_default().capacity();
        let ultra = FrequencyPlan::with_ultrasound().capacity();
        assert!(
            ultra as f64 > 2.0 * audible as f64,
            "audible {audible} ultra {ultra}"
        );
    }

    #[test]
    fn slots_are_spaced_exactly() {
        let plan = FrequencyPlan::new(500.0, 1000.0, 20.0);
        assert_eq!(plan.capacity(), 26);
        assert_eq!(plan.slot_freq(0), 500.0);
        assert_eq!(plan.slot_freq(25), 1000.0);
        assert_eq!(plan.slot_freq(1) - plan.slot_freq(0), 20.0);
    }

    #[test]
    fn allocations_are_disjoint() {
        let mut plan = FrequencyPlan::audible_default();
        let a = plan.allocate("switch-1", 10).unwrap();
        let b = plan.allocate("switch-2", 10).unwrap();
        for s in &a.slots {
            assert!(!b.slots.contains(s));
        }
        assert_eq!(plan.assignments().len(), 2);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut plan = FrequencyPlan::new(500.0, 600.0, 20.0); // 6 slots
        assert_eq!(plan.capacity(), 6);
        plan.allocate("a", 4).unwrap();
        let err = plan.allocate("b", 3).unwrap_err();
        assert_eq!(
            err,
            PlanError::Exhausted {
                requested: 3,
                available: 2
            }
        );
        // The failed allocation consumed nothing.
        assert_eq!(plan.available(), 2);
        plan.allocate("c", 2).unwrap();
        assert_eq!(plan.available(), 0);
    }

    #[test]
    fn nearest_slot_rounds_and_bounds() {
        let plan = FrequencyPlan::new(500.0, 1000.0, 20.0);
        assert_eq!(plan.nearest_slot(500.0), Some((0, 0.0)));
        let (idx, dist) = plan.nearest_slot(529.0).unwrap();
        assert_eq!(idx, 1); // 520 is nearest
        assert!((dist - 9.0).abs() < 1e-9);
        assert_eq!(plan.nearest_slot(100.0), None);
        assert_eq!(plan.nearest_slot(2000.0), None);
    }

    #[test]
    fn twenty_hz_spacing_is_the_default() {
        assert_eq!(FrequencyPlan::audible_default().spacing_hz(), 20.0);
    }

    #[test]
    #[should_panic(expected = "bad band")]
    fn degenerate_band_panics() {
        FrequencyPlan::new(1000.0, 500.0, 20.0);
    }

    #[test]
    fn subbands_partition_the_parent_grid() {
        let parent = FrequencyPlan::audible_default();
        let colors = 4;
        let mut seen = Vec::new();
        for c in 0..colors {
            let sub = parent.subband(c, colors);
            assert_eq!(sub.capacity(), parent.capacity() / colors);
            assert_eq!(sub.spacing_hz(), parent.spacing_hz());
            for i in 0..sub.capacity() {
                let f = sub.slot_freq(i);
                // Every sub-band slot sits exactly on a parent slot.
                let (pi, dist) = parent.nearest_slot(f).unwrap();
                assert!(dist < 1e-9);
                seen.push(pi);
            }
        }
        // Disjoint across colors, covering the bottom 4 × (capacity/4)
        // parent slots exactly once.
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "sub-bands overlap");
        assert_eq!(sorted.len(), colors * (parent.capacity() / colors));
    }

    #[test]
    fn same_color_subbands_are_identical_and_allocations_reproducible() {
        let parent = FrequencyPlan::audible_default();
        let mut a = parent.subband(2, 5);
        let mut b = parent.subband(2, 5);
        let sa = a.allocate("cell-2-sw-0", 8).unwrap();
        let sb = b.allocate("cell-7-sw-0", 8).unwrap();
        assert_eq!(sa.freqs, sb.freqs, "same color must reuse identical tones");
    }

    #[test]
    fn subband_ignores_parent_allocations() {
        let mut parent = FrequencyPlan::new(500.0, 1000.0, 20.0);
        parent.allocate("x", 10).unwrap();
        let sub = parent.subband(0, 2);
        assert_eq!(sub.available(), sub.capacity());
        assert_eq!(sub.slot_freq(0), 500.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subband_color_out_of_range_panics() {
        FrequencyPlan::audible_default().subband(4, 4);
    }

    #[test]
    #[should_panic(expected = "cannot be split")]
    fn subband_too_many_colors_panics() {
        FrequencyPlan::new(500.0, 600.0, 20.0).subband(0, 100);
    }
}
