//! A tiny deterministic PRNG (SplitMix64-seeded xorshift*): every
//! workload run, injected fault and generated test case is reproducible
//! given `(seed, stream)`.

/// Deterministic 64-bit PRNG for workload generators and seeded tests.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seed from a workload seed and the processor id (or any other
    /// stream index: nearby pairs give unrelated streams).
    pub fn new(seed: u64, proc_id: usize) -> Self {
        // SplitMix64 step to decorrelate nearby seeds.
        let mut z = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((proc_id as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    /// Run `body` once per seed in `0..cases`, each on a fresh generator.
    /// A case that panics is re-raised naming its seed, which reproduces
    /// it alone: `body(&mut Rng::new(seed, 0))`.
    pub fn for_each_case(cases: u64, body: impl Fn(&mut Rng)) {
        for seed in 0..cases {
            let case = std::panic::AssertUnwindSafe(|| body(&mut Rng::new(seed, 0)));
            if let Err(cause) = std::panic::catch_unwind(case) {
                let cause = cause
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| cause.downcast_ref::<&str>().copied())
                    .unwrap_or("(panic payload is not a string)");
                panic!("case seed {seed} of {cases} failed: {cause}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_proc() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42, 3);
            (0..10).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42, 3);
            (0..10).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::new(42, 4);
            (0..10).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c, "different procs get different streams");
    }

    #[test]
    #[should_panic(expected = "case seed 3 of 5 failed")]
    fn a_failing_case_names_its_seed() {
        let fourth = Rng::new(3, 0).next_u64();
        Rng::for_each_case(5, |rng| {
            assert_ne!(rng.next_u64(), fourth);
        });
    }

    #[test]
    fn range_is_inclusive_and_in_bounds() {
        let mut r = Rng::new(7, 0);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range(3, 7);
            assert!((3..=7).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 7;
        }
        assert!(seen_lo && seen_hi, "range must cover both endpoints");
    }
}
