//! A multiply-shift hasher for sets and maps keyed by heap addresses.
//!
//! Attach-time recovery builds several large address-keyed tables: the
//! census live set, per-descriptor reference counts, the sweep's keep-set
//! and the segment walk's committed set. The default SipHash costs more
//! than the walk itself there. Addresses are not attacker-chosen inside
//! one process, so a folded 64×64→128 multiply is enough: it mixes the
//! (always zero) low alignment bits into the low bits the table indexes
//! with and the high bits it stores as control bytes.
//!
//! Name-keyed or otherwise external-input maps keep the default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ: an odd multiplier with well-spread bits.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for integer keys (addresses, granule indices).
#[derive(Default, Clone, Copy)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = ((self.0 ^ n) as u128).wrapping_mul(K as u128);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`AddrHasher`].
pub type AddrBuild = BuildHasherDefault<AddrHasher>;
/// A set of addresses (or other integer keys) under [`AddrHasher`].
pub type AddrSet<T = usize> = HashSet<T, AddrBuild>;
/// A map keyed by address under [`AddrHasher`].
pub type AddrMap<V> = HashMap<usize, V, AddrBuild>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_addresses_spread_over_low_bits() {
        // 64-byte-aligned keys must not collapse onto a few low-bit buckets.
        let mut low = std::collections::HashSet::new();
        for i in 0..1024usize {
            let mut h = AddrHasher::default();
            h.write_usize(0x7f00_0000_0000 + i * 64);
            low.insert(h.finish() & 1023);
        }
        assert!(low.len() > 512, "only {} distinct low-10-bit hashes", low.len());
    }

    #[test]
    fn set_and_map_behave_like_std() {
        let mut s: AddrSet = AddrSet::default();
        let mut m: AddrMap<u32> = AddrMap::default();
        for i in 0..1000usize {
            s.insert(i * 64);
            *m.entry(i * 64 % 4096).or_insert(0) += 1;
        }
        assert_eq!(s.len(), 1000);
        assert!(s.contains(&640) && !s.contains(&641));
        assert_eq!(m.len(), 64);
        assert_eq!(m.values().sum::<u32>(), 1000);
    }
}
