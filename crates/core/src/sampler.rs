//! Working-set sampling (§3.5).
//!
//! Lines are sampled through `H(e) = e mod 31`. A prime modulus avoids
//! pathological resonance with the constant-stride streams that are
//! frequent in practice, and mod-31 is cheap in hardware: split `e` into
//! 5-bit blocks `e = Σ 2^{5i} e_i`; then `H(e) = Σ e_i mod 31` (a
//! carry-save adder and a small ROM).
//!
//! With an 8k-entry affinity cache the paper samples 25 % of the working
//! set: lines with `H(e) < 8` get affinity entries, the rest rely on the
//! transition filter alone. The parity of `H(e)` additionally routes
//! sampled lines to the 4-way mechanisms (§3.6: odd → `X`, even →
//! `Y[sign(F_X)]`).

/// The sampling hash and predicate.
///
/// ```
/// use execmig_core::Sampler;
/// let s = Sampler::quarter(); // the paper's 25% configuration
/// assert_eq!(s.hash(62), 0);  // 62 mod 31
/// assert!(s.is_sampled(62));
/// assert!(!s.is_sampled(30)); // H = 30 >= 8
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    /// Lines with `H(e) < sampled_below` are sampled.
    sampled_below: u64,
}

/// The fixed hash modulus (prime, per §3.5).
pub const MODULUS: u64 = 31;

impl Sampler {
    /// A sampler keeping lines with `H(e) < sampled_below`.
    ///
    /// # Panics
    ///
    /// Panics if `sampled_below` is 0 or above 31.
    pub fn new(sampled_below: u64) -> Self {
        assert!(
            (1..=MODULUS).contains(&sampled_below),
            "threshold must be in [1, 31]"
        );
        Sampler { sampled_below }
    }

    /// The paper's §4.2 configuration: ~25 % of lines (`H(e) < 8`).
    pub fn quarter() -> Self {
        Sampler::new(8)
    }

    /// Samples every line (the §4.1 unlimited-affinity-cache setting).
    pub fn full() -> Self {
        Sampler::new(MODULUS)
    }

    /// The threshold below which `H(e)` is sampled.
    pub fn threshold(&self) -> u64 {
        self.sampled_below
    }

    /// `H(e) = e mod 31`. Software computes the remainder directly (a
    /// constant divisor compiles to a multiply and shift); it equals the
    /// 5-bit block sum [`mod31_blocks`] the paper proposes for hardware.
    #[inline]
    pub fn hash(&self, line: u64) -> u64 {
        line % MODULUS
    }

    /// True if `line` participates in the affinity mechanisms.
    pub fn is_sampled(&self, line: u64) -> bool {
        self.hash(line) < self.sampled_below
    }

    /// The fraction of the working set sampled (≈ threshold / 31).
    pub fn sampling_fraction(&self) -> f64 {
        self.sampled_below as f64 / MODULUS as f64
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler::full()
    }
}

/// `e mod 31` via 5-bit blocks: because `2^5 ≡ 1 (mod 31)`, summing the
/// 5-bit digits preserves the residue; iterate until the sum fits. This
/// is the paper's hardware form (a carry-save adder and a small ROM);
/// [`Sampler::hash`] computes the same value with a remainder.
pub fn mod31_blocks(e: u64) -> u64 {
    let mut v = e;
    // Note `> 31`, not `>= 31`: 31 is a fixed point of the digit sum
    // (0b11111) and is folded to 0 after the loop.
    while v > 31 {
        let mut sum = 0u64;
        let mut rest = v;
        while rest > 0 {
            sum += rest & 0x1f;
            rest >>= 5;
        }
        v = sum;
    }
    // The digit-sum loop fixes at 31 itself (11111b -> 31), which is ≡ 0.
    if v == 31 {
        0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod31_matches_remainder() {
        for e in 0..100_000u64 {
            assert_eq!(mod31_blocks(e), e % 31, "e = {e}");
        }
        for e in [u64::MAX, u64::MAX - 1, 1 << 63, 0x1f, 31, 32, 961] {
            assert_eq!(mod31_blocks(e), e % 31, "e = {e}");
        }
    }

    #[test]
    fn hash_equals_the_hardware_block_sum_on_random_lines() {
        let s = Sampler::quarter();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..100_000 {
            // SplitMix64: full-width values, high bits included.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            assert_eq!(s.hash(z), mod31_blocks(z), "line {z:#x}");
        }
        for e in 0..100_000u64 {
            assert_eq!(s.hash(e), mod31_blocks(e), "line {e}");
        }
    }

    #[test]
    fn quarter_samples_about_a_quarter() {
        let s = Sampler::quarter();
        let sampled = (0..31_000u64).filter(|&e| s.is_sampled(e)).count();
        let frac = sampled as f64 / 31_000.0;
        assert!((0.25..0.27).contains(&frac), "sampled fraction {frac}");
        assert!((s.sampling_fraction() - 8.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn full_samples_everything() {
        let s = Sampler::full();
        assert!((0..1000u64).all(|e| s.is_sampled(e)));
    }

    #[test]
    fn prime_modulus_spreads_strides() {
        // A power-of-two stride must still hit all residues: 31 is
        // coprime with 2^k, so stride-64 lines cycle through all 31
        // values.
        let s = Sampler::full();
        let mut seen = std::collections::HashSet::new();
        for i in 0..31u64 {
            seen.insert(s.hash(i * 64));
        }
        assert_eq!(seen.len(), 31, "stride-64 collapsed the hash");
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_zero_threshold() {
        Sampler::new(0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_over_threshold() {
        Sampler::new(32);
    }
}
