//! Seeded inputs: the random source, the Zipf key picker and the three
//! workloads' op streams. Everything the program receives comes from here,
//! so the same seed gives the same requests.

/// SplitMix64: small, fast and good enough to drive key choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_BE4C_11A5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Zipf(θ) over `n` ranks, sampled by inverting the CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`; rank 0 is the most frequent.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// One client request as the load generator sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Put(u64),
    Del(u64),
    Get(u64),
    Enq(u64),
    Deq,
    /// Re-send the last acknowledged request; the answer must be
    /// byte-identical to the original acknowledgement.
    Replay,
}

impl Op {
    /// A read leaves the store unchanged; replays are neither read nor write.
    pub fn is_read(self) -> bool {
        matches!(self, Op::Get(_))
    }

    pub fn is_write(self) -> bool {
        matches!(self, Op::Put(_) | Op::Del(_) | Op::Enq(_) | Op::Deq)
    }
}

/// Keys of the filled stores: every even key in `[1, LARGE_KEYS]`.
pub const LARGE_KEYS: u64 = 65_536;
/// Hot key space of `kv_hot`.
pub const HOT_KEYS: usize = 1024;
/// Zipf skew of `kv_hot`.
pub const HOT_THETA: f64 = 0.99;

/// The even keys a filled store starts with, in insertion order.
pub fn fill_keys() -> impl Iterator<Item = u64> {
    (2..=LARGE_KEYS).step_by(2)
}

/// An endless seeded op stream of one client.
pub enum Stream {
    /// `kv_hot`: blocks of 16 ops (4 put, 3 del, 6 get, 1 enq, 1 deq,
    /// 1 replay) in seeded order, keys Zipf over a seeded permutation of
    /// `HOT_KEYS` keys.
    Hot { rng: Rng, zipf: Zipf, perm: Vec<u64>, block: Vec<Op>, next_val: u64 },
    /// `kv_large`: 95% get, 5% put, keys uniform over `[1, LARGE_KEYS]`.
    Large { rng: Rng },
    /// `kv_crash`: 50% put, 30% del, 20% get, keys uniform over this
    /// client's own range.
    Crash { rng: Rng, lo: u64, span: u64 },
}

const HOT_BLOCK: [Op; 16] = [
    Op::Put(0),
    Op::Put(0),
    Op::Put(0),
    Op::Put(0),
    Op::Del(0),
    Op::Del(0),
    Op::Del(0),
    Op::Get(0),
    Op::Get(0),
    Op::Get(0),
    Op::Get(0),
    Op::Get(0),
    Op::Get(0),
    Op::Enq(0),
    Op::Deq,
    Op::Replay,
];

impl Stream {
    pub fn hot(seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        let mut perm: Vec<u64> = (1..=HOT_KEYS as u64).collect();
        rng.shuffle(&mut perm);
        Stream::Hot {
            rng,
            zipf: Zipf::new(HOT_KEYS, HOT_THETA),
            perm,
            block: Vec::new(),
            next_val: 1,
        }
    }

    pub fn large(seed: u64) -> Stream {
        Stream::Large { rng: Rng::new(seed) }
    }

    /// Client `c` of `n` owns the `c`-th slice of `[1, LARGE_KEYS]`.
    pub fn crash(seed: u64, c: u64, n: u64) -> Stream {
        let span = LARGE_KEYS / n;
        Stream::Crash {
            rng: Rng::new(seed ^ c.wrapping_mul(0xA24B_AED4_963E_E407)),
            lo: 1 + c * span,
            span,
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self {
            Stream::Hot { rng, zipf, perm, block, next_val } => {
                if block.is_empty() {
                    block.extend_from_slice(&HOT_BLOCK);
                    rng.shuffle(block);
                }
                let key = perm[zipf.sample(rng)];
                match block.pop().expect("refilled above") {
                    Op::Put(_) => Op::Put(key),
                    Op::Del(_) => Op::Del(key),
                    Op::Get(_) => Op::Get(key),
                    Op::Enq(_) => {
                        *next_val += 1;
                        Op::Enq(*next_val)
                    }
                    other => other,
                }
            }
            Stream::Large { rng } => {
                let key = 1 + rng.below(LARGE_KEYS);
                if rng.below(100) < 95 {
                    Op::Get(key)
                } else {
                    Op::Put(key)
                }
            }
            Stream::Crash { rng, lo, span } => {
                let key = *lo + rng.below(*span);
                match rng.below(10) {
                    0..=4 => Op::Put(key),
                    5..=7 => Op::Del(key),
                    _ => Op::Get(key),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<Op> = {
            let mut s = Stream::hot(7);
            (0..200).map(|_| s.next_op()).collect()
        };
        let mut s = Stream::hot(7);
        let b: Vec<Op> = (0..200).map(|_| s.next_op()).collect();
        assert_eq!(a, b);
        let mut s = Stream::hot(8);
        let c: Vec<Op> = (0..200).map(|_| s.next_op()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn hot_mix_per_block() {
        let mut s = Stream::hot(3);
        let ops: Vec<Op> = (0..16 * 50).map(|_| s.next_op()).collect();
        for block in ops.chunks(16) {
            let count = |f: fn(&Op) -> bool| block.iter().filter(|o| f(o)).count();
            assert_eq!(count(|o| matches!(o, Op::Put(_))), 4);
            assert_eq!(count(|o| matches!(o, Op::Del(_))), 3);
            assert_eq!(count(|o| matches!(o, Op::Get(_))), 6);
            assert_eq!(count(|o| matches!(o, Op::Enq(_))), 1);
            assert_eq!(count(|o| matches!(o, Op::Deq)), 1);
            assert_eq!(count(|o| matches!(o, Op::Replay)), 1);
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(HOT_KEYS, HOT_THETA);
        let mut rng = Rng::new(1);
        let mut hits = vec![0u32; HOT_KEYS];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > 10 * hits[100].max(1));
    }

    #[test]
    fn crash_clients_own_disjoint_ranges() {
        let (mut a, mut b) = (Stream::crash(5, 0, 2), Stream::crash(5, 1, 2));
        let key = |o: Op| match o {
            Op::Put(k) | Op::Del(k) | Op::Get(k) => k,
            _ => unreachable!("crash streams are map-only"),
        };
        for _ in 0..10_000 {
            assert!((1..=32_768).contains(&key(a.next_op())));
            assert!((32_769..=LARGE_KEYS).contains(&key(b.next_op())));
        }
    }
}
