//! Offline shim for the `rand` crate (0.8 API subset): `StdRng`,
//! `SeedableRng::seed_from_u64`, and `Rng::gen_range` over the integer
//! ranges the workspace's seeded workload generators use. The generator
//! is splitmix64 — deterministic, fast, and plenty for test workloads;
//! it makes no cryptographic claims.

#![deny(rustdoc::broken_intra_doc_links)]
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Range types usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_from(self, rng: &mut dyn FnMut() -> u64) -> T;
}

macro_rules! impl_sample_range_int {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for std::ops::Range<$ty> {
            fn sample_from(self, rng: &mut dyn FnMut() -> u64) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng() as u128) % span;
                (self.start as i128 + v as i128) as $ty
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub trait Rng: RngCore {
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        let mut draw = || self.next_u64();
        range.sample_from(&mut draw)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// splitmix64-based deterministic generator standing in for `rand::rngs::StdRng`.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(state: u64) -> Self {
        StdRng { state }
    }
}

pub mod rngs {
    pub use super::StdRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x: i64 = a.gen_range(1..18);
            let y: i64 = b.gen_range(1..18);
            assert_eq!(x, y);
            assert!((1..18).contains(&x));
        }
        let v: u32 = a.gen_range(0..45u32);
        assert!(v < 45);
        let u: usize = a.gen_range(0..3usize);
        assert!(u < 3);
    }
}
