//! Small deterministic pseudo-random generators.
//!
//! The workspace must build and test with **no network access**, so it
//! cannot depend on the `rand` crate. This crate provides the two tiny
//! generators everything else shares:
//!
//! - [`Rng64`] — SplitMix64, the workhorse: traffic generation, the
//!   simulated-annealing floorplanner, the property-test runner and the
//!   NoC fault injector all draw from it. Runs are fully reproducible
//!   from the seed.
//! - [`Xorshift64`] — xorshift64*, kept as an independent second stream
//!   for consumers that want decorrelated randomness from the same seed.
//! - [`CounterRng`] — a counter-based (stateless) stream family: every
//!   draw is a pure hash of `(seed, stream, counter)`. Consumers that
//!   must produce the same random decision regardless of *evaluation
//!   order* — the NoC fault injector keying draws by link id and cycle,
//!   so sequential and multi-threaded simulation kernels agree bit for
//!   bit — use this instead of a sequential generator.
//!
//! All are plain value types: cloning snapshots the stream.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

/// SplitMix64: fast, 64 bits of state, passes BigCrush. The constants
/// are from Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next raw 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `usize` in `0..bound` (`bound > 0`).
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform value in the inclusive range `lo..=hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi.wrapping_sub(lo);
        if span == u64::MAX {
            self.next_u64()
        } else {
            lo + self.below(span + 1)
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Derives an independent generator for substream `stream`, without
    /// disturbing this generator's sequence. Used to give each
    /// fault-injection site its own reproducible stream.
    pub fn fork(&self, stream: u64) -> Self {
        let mut mixer = Self::new(self.state ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Self::new(mixer.next_u64())
    }
}

/// xorshift64*: Marsaglia's xorshift with a multiplicative finalizer.
/// State must be non-zero; a zero seed is remapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Creates a generator from a seed (`0` is remapped to a fixed
    /// non-zero constant, since xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64 finalizer: a strong 64-bit mixing function (every input
/// bit affects every output bit). Building block of [`CounterRng`].
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based splittable random stream family.
///
/// Unlike [`Rng64`], a `CounterRng` holds no mutable cursor: the value of
/// a draw is a pure function `hash(seed, stream, counter)`. Two callers
/// evaluating the same `(stream, counter)` pair get the same value no
/// matter how many other draws happened before, in what order, or on
/// which thread. That makes it the right generator whenever the *set* of
/// random decisions must be schedule-independent — e.g. per-link fault
/// decisions keyed by `(link id, cycle)` that must not shift when an
/// optimized kernel visits fewer routers or several threads visit them
/// concurrently.
///
/// The construction is a Philox-style keyed SplitMix64 finalizer chain:
/// `mix(mix(seed-key + stream·φ) + counter·φ′)` with the golden-ratio
/// increments from Steele, Lea & Flood (OOPSLA 2014). Each fixed stream,
/// viewed as a function of the counter, is exactly a SplitMix64-class
/// sequence, so statistical quality matches [`Rng64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// Creates the stream family for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { key: mix64(seed) }
    }

    /// The mixed key identifying this stream family. Two `CounterRng`s
    /// with equal keys produce identical draws forever, so a checkpoint
    /// that records the *seed* used to build one fully captures its
    /// state — there is no cursor to save. Exposed so restore paths can
    /// assert stream identity after rebuilding a generator.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The raw 64-bit value of draw `counter` on substream `stream`.
    #[inline]
    pub fn draw(&self, stream: u64, counter: u64) -> u64 {
        let s = mix64(
            self.key
                .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        mix64(s.wrapping_add(counter.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    #[inline]
    pub fn below(&self, stream: u64, counter: u64, bound: u64) -> u64 {
        self.draw(stream, counter) % bound
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit(&self, stream: u64, counter: u64) -> f64 {
        (self.draw(stream, counter) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&self, stream: u64, counter: u64, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit(stream, counter) < p
        }
    }
}

/// Stable 64-bit FNV-1a hash of a byte string; used to derive seeds from
/// test or experiment names so each gets its own reproducible stream.
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in s.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference values for seed 1234567 (SplitMix64).
        let mut rng = Rng64::new(1234567);
        let first = rng.next_u64();
        let mut again = Rng64::new(1234567);
        assert_eq!(first, again.next_u64());
        assert_ne!(first, rng.next_u64());
    }

    #[test]
    fn unit_stays_in_range() {
        let mut rng = Rng64::new(7);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng64::new(9);
        for bound in [1u64, 2, 3, 17, 255, 1 << 40] {
            for _ in 0..100 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn range_covers_endpoints() {
        let mut rng = Rng64::new(3);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let v = rng.range_u64(10, 13);
            assert!((10..=13).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Degenerate and full ranges must not panic.
        assert_eq!(rng.range_u64(5, 5), 5);
        let _ = rng.range_u64(0, u64::MAX);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng64::new(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut rng = Rng64::new(5);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn fork_is_decorrelated_and_stable() {
        let rng = Rng64::new(100);
        let mut a = rng.fork(1);
        let mut b = rng.fork(2);
        let mut a2 = rng.fork(1);
        assert_eq!(a.next_u64(), a2.next_u64());
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero_seeded() {
        let mut a = Xorshift64::new(0);
        let mut b = Xorshift64::new(0);
        for _ in 0..100 {
            let v = a.next_u64();
            assert_eq!(v, b.next_u64());
        }
        let mut c = Xorshift64::new(77);
        let u = c.unit();
        assert!((0.0..1.0).contains(&u));
        assert!(c.below(10) < 10);
    }

    #[test]
    fn counter_rng_is_order_independent() {
        let rng = CounterRng::new(42);
        // Evaluate a grid of (stream, counter) pairs forwards...
        let forward: Vec<u64> = (0..8u64)
            .flat_map(|s| (0..64u64).map(move |c| (s, c)))
            .map(|(s, c)| rng.draw(s, c))
            .collect();
        // ...and the same pairs backwards, interleaved with unrelated
        // draws: every value must be identical.
        let mut backward = Vec::new();
        for s in (0..8u64).rev() {
            let _ = rng.draw(999, s); // unrelated draw must not disturb anything
            for c in (0..64u64).rev() {
                backward.push(rng.draw(s, c));
            }
        }
        backward.reverse();
        assert_eq!(forward, backward);
        // Spot-check a few against direct evaluation.
        assert_eq!(rng.draw(3, 17), forward[3 * 64 + 17]);
        assert_eq!(rng.draw(0, 0), forward[0]);
    }

    #[test]
    fn counter_rng_streams_and_counters_decorrelate() {
        let rng = CounterRng::new(7);
        // Neighbouring streams and counters should not collide.
        let mut seen = std::collections::HashSet::new();
        for s in 0..32u64 {
            for c in 0..32u64 {
                assert!(seen.insert(rng.draw(s, c)), "collision at ({s}, {c})");
            }
        }
        // Different seeds give different families.
        assert_ne!(CounterRng::new(1).draw(0, 0), CounterRng::new(2).draw(0, 0));
    }

    #[test]
    fn counter_rng_chance_matches_probability_roughly() {
        let rng = CounterRng::new(5);
        let hits = (0..100_000u64).filter(|&c| rng.chance(0, c, 0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
        assert!(!rng.chance(1, 1, 0.0));
        assert!(rng.chance(1, 1, 1.0));
        for c in 0..1000 {
            let u = rng.unit(2, c);
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(3, c, 10) < 10);
        }
    }

    #[test]
    fn counter_rng_key_identifies_the_stream_family() {
        let a = CounterRng::new(42);
        let b = CounterRng::new(42);
        assert_eq!(a.key(), b.key());
        for c in 0..64 {
            assert_eq!(a.draw(0, c), b.draw(0, c));
        }
        assert_ne!(a.key(), CounterRng::new(43).key());
    }

    #[test]
    fn hash_str_is_stable_and_spreads() {
        assert_eq!(hash_str("abc"), hash_str("abc"));
        assert_ne!(hash_str("abc"), hash_str("abd"));
        assert_ne!(hash_str(""), hash_str("a"));
    }
}
