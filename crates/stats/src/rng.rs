//! Reproducible, splittable random-number streams.
//!
//! Every `mpvar` experiment must be reproducible from a single `u64` seed,
//! including when Monte-Carlo trials are distributed across threads. The
//! [`RngStream`] type wraps a counter-keyed SplitMix64/xoshiro-style
//! generator and supports deterministic *substream derivation*: substream
//! `k` of seed `s` is the same sequence no matter which thread runs it or
//! in which order substreams are created.

use rand::{Error as RandError, RngCore, SeedableRng};

/// SplitMix64 step used for seeding and stream derivation.
///
/// This is the standard finalizer from Vigna's SplitMix64; it is used both
/// to expand user seeds into full generator state and to derive substreams.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One xoshiro256** step of the state words `s0..s3`: advances them
/// and returns the scrambled output. [`RngStream`] and [`LaneStreams`]
/// both step through here, so a lane cannot drift from its scalar
/// stream.
#[inline]
fn xoshiro_step(s0: &mut u64, s1: &mut u64, s2: &mut u64, s3: &mut u64) -> u64 {
    let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
    let t = *s1 << 17;
    *s2 ^= *s0;
    *s3 ^= *s1;
    *s1 ^= *s2;
    *s0 ^= *s3;
    *s2 ^= t;
    *s3 = s3.rotate_left(45);
    result
}

/// The 53 high bits of `u` as a double in `[0, 1)`.
#[inline]
fn unit_f64(u: u64) -> f64 {
    (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A reproducible random stream based on xoshiro256**.
///
/// `RngStream` implements [`rand::RngCore`], so it can drive any `rand`
/// machinery, while remaining fully deterministic and serializable-by-seed.
///
/// # Example
///
/// ```
/// use mpvar_stats::RngStream;
/// use rand::RngCore;
///
/// let mut a = RngStream::from_seed(7);
/// let mut b = RngStream::from_seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Substreams are independent of creation order.
/// let mut s3 = RngStream::from_seed(7).substream(3);
/// let mut s3_again = RngStream::from_seed(7).substream(3);
/// assert_eq!(s3.next_u64(), s3_again.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngStream {
    s: [u64; 4],
    seed: u64,
    stream: u64,
}

impl RngStream {
    /// Creates a stream from a bare `u64` seed (substream 0).
    pub fn from_seed(seed: u64) -> Self {
        Self::with_substream(seed, 0)
    }

    /// Creates substream `stream` of `seed` directly.
    ///
    /// `RngStream::with_substream(s, k)` equals
    /// `RngStream::from_seed(s).substream(k)`.
    pub(crate) fn with_substream(seed: u64, stream: u64) -> Self {
        // Mix seed and stream id so that nearby (seed, stream) pairs give
        // uncorrelated state.
        let mut sm = seed ^ splitmix64(&mut { stream.wrapping_mul(0xA076_1D64_78BD_642F) });
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s = [
                0x1,
                0x9E3779B97F4A7C15,
                0xBF58476D1CE4E5B9,
                0x94D049BB133111EB,
            ];
        }
        Self { s, seed, stream }
    }

    /// Derives the `k`-th substream of this stream's *original seed*.
    ///
    /// Derivation depends only on `(seed, k)`, never on how many numbers
    /// have already been drawn, which makes per-trial substreams safe to
    /// create lazily from worker threads.
    pub fn substream(&self, k: u64) -> Self {
        Self::with_substream(
            self.seed,
            self.stream.wrapping_mul(0x9E37).wrapping_add(k + 1),
        )
    }

    /// The seed this stream (and all of its substreams) was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws a `f64` uniformly from the half-open interval `[0, 1)`.
    ///
    /// Uses the 53 high bits of a `u64`, the canonical mapping with a
    /// uniform mantissa.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// `L` consecutive substreams of one seed, stepped together.
///
/// Lane `l` of [`LaneStreams::new(base, k0)`](LaneStreams::new) yields
/// exactly the sequence of `base.substream(k0 + l)`. The xoshiro256**
/// state is held word by word across lanes (`s[word][lane]`), so each
/// step is four `L`-wide operations that vectorize, where an array of
/// `L` [`RngStream`]s would interleave each lane's four words in memory.
pub(crate) struct LaneStreams<const L: usize> {
    s: [[u64; L]; 4],
}

impl<const L: usize> LaneStreams<L> {
    /// Substreams `k0..k0 + L` of `base`'s seed.
    pub(crate) fn new(base: &RngStream, k0: u64) -> Self {
        let mut s = [[0u64; L]; 4];
        for lane in 0..L {
            let one = base.substream(k0 + lane as u64);
            for (word, &v) in s.iter_mut().zip(&one.s) {
                word[lane] = v;
            }
        }
        Self { s }
    }

    /// The next [`RngStream::next_f64`] of every lane.
    #[inline]
    pub(crate) fn next_f64(&mut self) -> [f64; L] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0.0; L];
        for l in 0..L {
            out[l] = unit_f64(xoshiro_step(&mut s0[l], &mut s1[l], &mut s2[l], &mut s3[l]));
        }
        out
    }
}

impl RngCore for RngStream {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        xoshiro_step(s0, s1, s2, s3)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), RandError> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for RngStream {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        RngStream::from_seed(u64::from_le_bytes(seed))
    }
}

impl Default for RngStream {
    /// The default stream uses seed 0, substream 0.
    fn default() -> Self {
        Self::from_seed(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RngStream::from_seed(123);
        let mut b = RngStream::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::from_seed(1);
        let mut b = RngStream::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn substreams_are_order_independent() {
        let base = RngStream::from_seed(99);
        let mut direct = base.substream(5);
        // Interleave unrelated draws; substream 5 must be unaffected.
        let mut scratch = base.substream(1);
        let _ = scratch.next_u64();
        let mut again = RngStream::from_seed(99).substream(5);
        for _ in 0..32 {
            assert_eq!(direct.next_u64(), again.next_u64());
        }
    }

    #[test]
    fn substreams_differ_from_parent_and_each_other() {
        let base = RngStream::from_seed(7);
        let mut s1 = base.substream(1);
        let mut s2 = base.substream(2);
        let matches = (0..64).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert!(matches < 2);
    }

    #[test]
    fn unit_doubles_in_range() {
        let mut rng = RngStream::from_seed(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = RngStream::from_seed(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut rng = RngStream::from_seed(2024);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn seedable_rng_roundtrip() {
        let a = <RngStream as SeedableRng>::from_seed(42u64.to_le_bytes());
        let b = RngStream::from_seed(42);
        assert_eq!(a, b);
    }

    #[test]
    fn lane_l_is_substream_k0_plus_l() {
        for (seed, k0) in [(7u64, 0u64), (2015, 37 * 8), (u64::MAX, 1)] {
            let base = RngStream::from_seed(seed);
            let mut lanes = LaneStreams::<8>::new(&base, k0);
            let mut scalar: Vec<RngStream> = (0..8).map(|l| base.substream(k0 + l)).collect();
            for _ in 0..1000 {
                let drawn = lanes.next_f64();
                for (l, one) in scalar.iter_mut().enumerate() {
                    assert_eq!(drawn[l].to_bits(), one.next_f64().to_bits(), "lane {l}");
                }
            }
        }
    }
}
