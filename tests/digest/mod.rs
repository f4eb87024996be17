//! The FNV-1a digest that the bit-identity pins (`streams.rs`,
//! `affinity_table.rs`) fold their draws into.

/// FNV-1a over a stream of 64-bit words, one byte at a time.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
