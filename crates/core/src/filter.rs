//! The transition filter (§3.4).
//!
//! "We define a transition filter `F`. The transition filter is an
//! up-down saturating counter updated on each reference: for a reference
//! `e` at time `t`, `F(t+1) = F(t) + A_e(t)`. Instead of looking at the
//! sign of `A_e` for determining which subset `e` belongs to, we look at
//! the sign of `F`."
//!
//! Doubling the saturation level roughly halves the transition frequency
//! on random working sets, at the cost of doubling the reaction delay on
//! splittable ones: with 16 affinity bits and a `k`-bit filter the
//! residual transition frequency on a saturated random working set is
//! about `1/2^(1+k−16)`.
#![deny(clippy::panic)]

use crate::invariants;
use crate::sat;
use crate::Side;

/// An up-down saturating counter whose sign designates the executing
/// subset.
///
/// ```
/// use execmig_core::{Side, TransitionFilter};
/// let mut f = TransitionFilter::new(20);
/// assert_eq!(f.side(), Side::Plus); // starts at 0, sign(0) = +
/// f.update(-100);
/// assert_eq!(f.side(), Side::Minus);
/// ```
#[derive(Debug, Clone)]
pub struct TransitionFilter {
    value: i64,
    bits: u32,
}

impl TransitionFilter {
    /// Creates a filter of the given width (paper: 20 bits in §4.1,
    /// 18 bits in §4.2 — 2 bits shorter because only 25 % of references
    /// update it under sampling).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `[2, 62]`.
    pub fn new(bits: u32) -> Self {
        assert!((2..=62).contains(&bits), "filter width out of range");
        TransitionFilter { value: 0, bits }
    }

    /// Width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Current counter value.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Adds an affinity `A_e` (saturating).
    pub fn update(&mut self, a_e: i64) {
        self.value = sat::add(self.value, a_e, self.bits);
        invariants::check_filter_range(self.value, self.bits); // I103
    }

    /// The subset the filter currently designates.
    pub fn side(&self) -> Side {
        Side::of(self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_positive() {
        let f = TransitionFilter::new(18);
        assert_eq!(f.value(), 0);
        assert_eq!(f.side(), Side::Plus);
    }

    #[test]
    fn sign_follows_accumulated_affinity() {
        let mut f = TransitionFilter::new(10);
        f.update(5);
        assert_eq!(f.side(), Side::Plus);
        f.update(-6);
        assert_eq!(f.side(), Side::Minus);
        f.update(1);
        assert_eq!(f.side(), Side::Plus);
    }

    #[test]
    fn saturates_at_width() {
        let mut f = TransitionFilter::new(8); // [-128, 127]
        for _ in 0..100 {
            f.update(100);
        }
        assert_eq!(f.value(), 127);
        for _ in 0..100 {
            f.update(-100);
        }
        assert_eq!(f.value(), -128);
    }

    #[test]
    fn wider_filter_delays_transition() {
        // Feed a constant negative affinity after positive saturation;
        // the wider filter needs proportionally more steps to flip.
        let steps_to_flip = |bits: u32| {
            let mut f = TransitionFilter::new(bits);
            for _ in 0..1_000_000 {
                f.update(i64::MAX / 4); // saturate positive
            }
            let mut n = 0u64;
            while f.side() == Side::Plus {
                f.update(-16);
                n += 1;
            }
            n
        };
        let narrow = steps_to_flip(8);
        let wide = steps_to_flip(12);
        assert!(
            wide >= narrow * 8,
            "widening 4 bits should multiply delay ~16x: {narrow} -> {wide}"
        );
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn rejects_width_one() {
        TransitionFilter::new(1);
    }
}
