//! Width-limited saturating signed arithmetic.
//!
//! §3.2: "In practice, `O_e` is coded with a limited number of bits.
//! Consequently, the affinity algorithm works with saturating addition.
//! Throughout this study, we assume 16 bits are used for coding the
//! affinity. The other parameters are dimensioned accordingly:
//! `bits[I_e] = bits[O_e] = 16`, `bits[A_R] = bits[O_e] + log2(|R|)`,
//! `bits[∆] = bits[O_e] + 1`."
#![deny(clippy::panic)]

/// Inclusive range of an `n`-bit two's-complement value.
///
/// ```
/// use execmig_core::sat::range;
/// assert_eq!(range(16), (-32768, 32767));
/// assert_eq!(range(4), (-8, 7));
/// ```
///
/// # Panics
///
/// Panics if `bits` is 0 or above 62 (values must fit comfortably in
/// `i64` arithmetic without overflow).
pub const fn range(bits: u32) -> (i64, i64) {
    assert!(bits >= 1 && bits <= 62, "width out of supported range");
    (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
}

/// Clamps `v` to `bits` bits (saturating).
///
/// ```
/// use execmig_core::sat::clamp;
/// assert_eq!(clamp(40_000, 16), 32767);
/// assert_eq!(clamp(-40_000, 16), -32768);
/// assert_eq!(clamp(123, 16), 123);
/// ```
pub const fn clamp(v: i64, bits: u32) -> i64 {
    let (lo, hi) = range(bits);
    if v < lo {
        lo
    } else if v > hi {
        hi
    } else {
        v
    }
}

/// Saturating addition at `bits` bits: both operands are assumed to be
/// in range already; the sum is clamped.
pub const fn add(a: i64, b: i64, bits: u32) -> i64 {
    clamp(a + b, bits)
}

/// Number of bits for the `A_R` register given the affinity width and
/// the R-window size (§3.2: `bits[A_R] = bits[O_e] + log2(|R|)`).
///
/// ```
/// use execmig_core::sat::ar_bits;
/// assert_eq!(ar_bits(16, 128), 23);
/// assert_eq!(ar_bits(16, 100), 23); // log2 rounded up
/// ```
pub fn ar_bits(affinity_bits: u32, r_window: usize) -> u32 {
    let log2 = usize::BITS - r_window.next_power_of_two().leading_zeros() - 1;
    affinity_bits + log2
}

/// Number of bits for `∆` (§3.2: `bits[∆] = bits[O_e] + 1`).
pub const fn delta_bits(affinity_bits: u32) -> u32 {
    affinity_bits + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_endpoints() {
        assert_eq!(range(1), (-1, 0));
        assert_eq!(range(17), (-65536, 65535));
        assert_eq!(range(62), (-(1 << 61), (1 << 61) - 1));
    }

    #[test]
    fn clamp_identity_in_range() {
        for v in [-32768i64, -1, 0, 1, 32767] {
            assert_eq!(clamp(v, 16), v);
        }
    }

    #[test]
    fn add_saturates_both_directions() {
        assert_eq!(add(32767, 1, 16), 32767);
        assert_eq!(add(-32768, -1, 16), -32768);
        assert_eq!(add(-32768, 1, 16), -32767);
        assert_eq!(add(100, 23, 16), 123);
    }

    #[test]
    fn ar_bits_paper_dimensions() {
        // |R| = 128 -> 16 + 7 = 23; |R| = 64 -> 16 + 6 = 22.
        assert_eq!(ar_bits(16, 128), 23);
        assert_eq!(ar_bits(16, 64), 22);
        assert_eq!(ar_bits(16, 1), 16);
    }

    #[test]
    fn delta_bits_is_one_more() {
        assert_eq!(delta_bits(16), 17);
    }

    /// Deterministic sample of interesting `i64` values for the property
    /// tests below: endpoints, near-endpoint, zero, and pseudo-random.
    fn samples() -> Vec<i64> {
        let mut v = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.push(x as i64);
            v.push((x >> 17) as i64); // smaller magnitudes too
        }
        v
    }

    #[test]
    fn clamp_properties_at_width_boundaries() {
        for bits in [1u32, 2, 16, 61, 62] {
            let (lo, hi) = range(bits);
            assert_eq!(lo, -hi - 1, "two's complement asymmetry at {bits}");
            for v in samples() {
                let c = clamp(v, bits);
                assert!((lo..=hi).contains(&c), "clamp escaped range at {bits}");
                // Idempotent, monotone vs the endpoints, identity inside.
                assert_eq!(clamp(c, bits), c);
                if (lo..=hi).contains(&v) {
                    assert_eq!(c, v);
                } else {
                    assert_eq!(c, if v < lo { lo } else { hi });
                }
            }
        }
    }

    #[test]
    fn one_bit_width_round_trips() {
        // bits = 1 is the degenerate lattice {-1, 0}: every sum stays
        // inside it and saturation is absorbing.
        assert_eq!(range(1), (-1, 0));
        for a in [-1i64, 0] {
            for b in [-1i64, 0] {
                let s = add(a, b, 1);
                assert!((-1..=0).contains(&s));
                assert_eq!(add(s, 0, 1), s);
            }
        }
        assert_eq!(add(-1, -1, 1), -1, "negative saturation absorbs");
    }

    #[test]
    fn saturation_round_trips_at_62_bits() {
        // Once saturated, further pushes in the same direction are
        // no-ops, and stepping back then forward returns to the rail —
        // even at the widest supported width, where `a + b` in `add`
        // must not overflow i64 for in-range operands.
        let (lo, hi) = range(62);
        for k in [1i64, 2, 1 << 20, hi] {
            assert_eq!(add(hi, k, 62), hi);
            assert_eq!(add(lo, -k, 62), lo);
        }
        assert_eq!(add(add(hi, -1, 62), 1, 62), hi);
        assert_eq!(add(add(lo, 1, 62), -1, 62), lo);
        // In-range sums are exact at the widest width.
        assert_eq!(add(hi - 5, 3, 62), hi - 2);
        assert_eq!(add(lo + 5, -3, 62), lo + 2);
    }

    #[test]
    fn add_commutes_and_respects_rails() {
        for bits in [1u32, 3, 16, 62] {
            let (lo, hi) = range(bits);
            for &a in &[lo, lo + 1, -1, 0, 1, hi - 1, hi][..] {
                for &b in &[lo, -1, 0, 1, hi][..] {
                    // Operands in range per the documented contract.
                    let ab = add(a, b, bits);
                    assert_eq!(ab, add(b, a, bits), "commutativity at {bits}");
                    assert!((lo..=hi).contains(&ab));
                }
            }
        }
    }

    #[test]
    fn ar_bits_boundary_windows() {
        // |R| = 1 adds nothing; exact powers of two add their log;
        // anything in between rounds the log up.
        assert_eq!(ar_bits(1, 1), 1);
        assert_eq!(ar_bits(1, 2), 2);
        assert_eq!(ar_bits(16, 2), 17);
        assert_eq!(ar_bits(16, 3), 18);
        assert_eq!(ar_bits(16, 127), 23);
        assert_eq!(ar_bits(16, 129), 24);
        for r in 1usize..=512 {
            let bits = ar_bits(1, r) - 1; // the log2 term alone
            assert!(1usize << bits >= r, "2^{bits} < |R|={r}");
            assert!(
                bits == 0 || (1usize << (bits - 1)) < r,
                "log not tight at {r}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "width out of supported range")]
    fn rejects_zero_width() {
        range(0);
    }

    #[test]
    #[should_panic(expected = "width out of supported range")]
    fn rejects_width_63() {
        range(63);
    }
}
