//! Hoard configuration: the paper's tunables `S`, `f`, `K` and the heap
//! count, with a builder-style API and `const` construction for
//! `static` (global-allocator) use.

use crate::harden::HardeningLevel;
use crate::MAX_HEAPS;
use hoard_mem::MAX_SUPERBLOCK_SIZE;

/// Configuration of a [`crate::HoardAllocator`].
///
/// Defaults: 8 KiB superblocks (the paper's `S`), empty fraction
/// `f = 1/2`, slack `K = 2`.
///
/// Two calibration choices deviate from a literal reading of the paper
/// and are measured in experiment E12:
///
/// * **`f = 1/2`** (not 1/4). Under random-replacement workloads a
///   non-compacting allocator's steady-state heap fullness is ~60%; an
///   emptiness threshold of `1 − f = 3/4` declares such heaps
///   *permanently* too empty and churns superblocks through the global
///   heap on every fullness-boundary crossing, without reducing
///   system-wide memory (the sparseness is inherent to the live-block
///   spread, not to heap imbalance). `f = 1/2` sits below the natural
///   operating point; the paper's blowup theorem holds for any constant
///   `f` (`A ≤ U/(1−f) + K·P·S = 2U + K·P·S`). (The churn belonged to
///   judging partials heap-wide; now that they answer to their own size
///   class E12 no longer shows it, and returning to 1/4 is open.)
/// * **`K = 2`** (hysteresis). With `K = 0` a heap whose live set
///   hovers near the threshold ping-pongs its active superblock through
///   the global heap on every free — visible as inflated transfer
///   counts in E12.
///
/// ```
/// use hoard_core::HoardConfig;
///
/// let cfg = HoardConfig::new()
///     .with_superblock_size(16 * 1024)
///     .with_empty_fraction(1, 8)
///     .with_slack(2)
///     .with_heap_count(14);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoardConfig {
    /// Superblock size `S` in bytes (power of two, 1 KiB ..=
    /// [`MAX_SUPERBLOCK_SIZE`]).
    pub superblock_size: usize,
    /// Numerator of the empty fraction `f`.
    pub empty_fraction_num: usize,
    /// Denominator of the empty fraction `f`.
    pub empty_fraction_den: usize,
    /// Slack `K`: a heap may keep up to `K` superblocks' worth of free
    /// space before the invariant forces a migration.
    pub slack_k: usize,
    /// Number of per-processor heaps (the paper's `P`); threads are
    /// mapped to heaps by processor id modulo this count.
    pub heap_count: usize,
    /// How hard the allocator defends its deallocation paths against
    /// heap misuse (double free, foreign pointers, overruns). See
    /// [`HardeningLevel`]; `Off` reproduces the paper's allocator.
    pub hardening: HardeningLevel,
    /// Capacity (in blocks, per thread slot and size class) of the
    /// thread-local magazine front-end. `0` disables the front-end
    /// entirely — every `malloc`/`free` takes the owning heap's lock,
    /// reproducing the paper's allocator bit for bit. Non-zero values
    /// are clamped to [`crate::magazine::MAX_MAGAZINE_CAPACITY`];
    /// magazine-held blocks stay counted in the owning heap's `u`/`a`,
    /// so the emptiness invariant and the blowup bound gain only the
    /// bounded additive term derived in DESIGN.md §9.
    pub magazine_capacity: usize,
    /// Route the slow paths through the lock-free back-end: superblock
    /// chunks aligned to `S` so metadata lookup is an address mask,
    /// remote frees packed into one 64-bit CAS word, and a Treiber-stack
    /// global superblock cache instead of the locked global heap. Off
    /// (the default) reproduces the locked back-end bit for bit, the
    /// same way `magazine_capacity = 0` disables the front-end. Requires
    /// the magazine front-end: the lock-free back-end hangs superblock
    /// ownership off the per-thread slots, so `magazine_capacity` must
    /// be non-zero when this is on.
    pub lockfree_backend: bool,
}

impl HoardConfig {
    /// The paper's default configuration.
    pub const fn new() -> Self {
        HoardConfig {
            superblock_size: 8 * 1024,
            empty_fraction_num: 1,
            empty_fraction_den: 2,
            slack_k: 2,
            heap_count: 16,
            hardening: HardeningLevel::Off,
            magazine_capacity: 0,
            lockfree_backend: false,
        }
    }

    /// The paper's configuration plus the magazine front-end *and* the
    /// lock-free back-end — the full rpmalloc-style stack.
    pub const fn with_lockfree() -> Self {
        Self::with_default_magazines().with_lockfree_backend(true)
    }

    /// The paper's configuration plus the thread-local magazine
    /// front-end at its default capacity
    /// ([`DEFAULT_MAGAZINE_CAPACITY`](crate::magazine::DEFAULT_MAGAZINE_CAPACITY)).
    pub const fn with_default_magazines() -> Self {
        Self::new().with_magazine_capacity(crate::magazine::DEFAULT_MAGAZINE_CAPACITY)
    }

    /// Set the superblock size `S` (bytes; power of two, 1 KiB ..=
    /// [`MAX_SUPERBLOCK_SIZE`]).
    pub const fn with_superblock_size(mut self, s: usize) -> Self {
        self.superblock_size = s;
        self
    }

    /// Set the empty fraction `f = num/den` (e.g. `(1, 4)` for the
    /// paper's `f = 1/4`).
    pub const fn with_empty_fraction(mut self, num: usize, den: usize) -> Self {
        self.empty_fraction_num = num;
        self.empty_fraction_den = den;
        self
    }

    /// Set the slack `K` in superblocks.
    pub const fn with_slack(mut self, k: usize) -> Self {
        self.slack_k = k;
        self
    }

    /// Set the number of per-processor heaps.
    pub const fn with_heap_count(mut self, p: usize) -> Self {
        self.heap_count = p;
        self
    }

    /// Set the hardening level for the allocation paths.
    pub const fn with_hardening(mut self, level: HardeningLevel) -> Self {
        self.hardening = level;
        self
    }

    /// Set the per-thread, per-class magazine capacity (0 = front-end
    /// off).
    pub const fn with_magazine_capacity(mut self, blocks: usize) -> Self {
        self.magazine_capacity = blocks;
        self
    }

    /// Enable or disable the lock-free back-end (requires a non-zero
    /// magazine capacity; see the field docs).
    pub const fn with_lockfree_backend(mut self, yes: bool) -> Self {
        self.lockfree_backend = yes;
        self
    }

    /// Largest request served from superblocks; larger allocations go
    /// straight to the chunk source (the paper's `S/2` rule).
    pub const fn large_threshold(&self) -> usize {
        self.superblock_size / 2
    }

    /// Check the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated
    /// constraint.
    pub const fn validate(&self) -> Result<(), ConfigError> {
        if !self.superblock_size.is_power_of_two()
            || self.superblock_size < 1024
            || self.superblock_size > MAX_SUPERBLOCK_SIZE
        {
            return Err(ConfigError::BadSuperblockSize);
        }
        if self.empty_fraction_num == 0
            || self.empty_fraction_den == 0
            || self.empty_fraction_num >= self.empty_fraction_den
        {
            return Err(ConfigError::BadEmptyFraction);
        }
        if self.heap_count == 0 || self.heap_count > MAX_HEAPS {
            return Err(ConfigError::BadHeapCount);
        }
        if self.magazine_capacity > crate::magazine::MAX_MAGAZINE_CAPACITY {
            return Err(ConfigError::BadMagazineCapacity);
        }
        if self.lockfree_backend && self.magazine_capacity == 0 {
            return Err(ConfigError::LockfreeNeedsMagazines);
        }
        Ok(())
    }

    /// `true` when `u` (bytes in use) and `a` (bytes held) violate the
    /// emptiness invariant for this configuration — i.e. when a `free`
    /// must migrate a superblock to the global heap.
    ///
    /// The invariant is `u ≥ a − K·S  ∨  u ≥ (1−f)·a`; this returns its
    /// negation, evaluated in integer arithmetic.
    pub fn invariant_violated(&self, u: u64, a: u64) -> bool {
        let s = self.superblock_size as u64;
        let k = self.slack_k as u64;
        let num = self.empty_fraction_num as u64;
        let den = self.empty_fraction_den as u64;
        // u < a − K·S  ∧  u·den < (den − num)·a
        u + k * s < a && u * den < (den - num) * a
    }

    /// `true` when a superblock with `in_use` of `capacity` blocks
    /// allocated is *at least `f`-empty* (eligible for migration to the
    /// global heap).
    ///
    /// Emptiness is a fraction of the superblock's *block capacity*, as
    /// in the original implementation — judging it against raw bytes of
    /// `S` would mis-classify small-block superblocks, which lose part
    /// of `S` to per-block headers.
    pub fn f_empty_blocks(&self, in_use: u32, capacity: u32) -> bool {
        let num = self.empty_fraction_num as u64;
        let den = self.empty_fraction_den as u64;
        // free fraction ≥ f ⟺ (cap − in_use)·den ≥ num·cap
        //                   ⟺ in_use·den ≤ (den − num)·cap
        (in_use as u64) * den <= (den - num) * capacity as u64
    }
}

impl Default for HoardConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Error returned by [`HoardConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Superblock size is not a power of two in 1 KiB ..=
    /// [`MAX_SUPERBLOCK_SIZE`].
    BadSuperblockSize,
    /// Empty fraction is not a proper fraction in `(0, 1)`.
    BadEmptyFraction,
    /// Heap count is zero or exceeds [`MAX_HEAPS`].
    BadHeapCount,
    /// Magazine capacity exceeds
    /// [`MAX_MAGAZINE_CAPACITY`](crate::magazine::MAX_MAGAZINE_CAPACITY).
    BadMagazineCapacity,
    /// `lockfree_backend` is on but the magazine front-end is off; the
    /// lock-free back-end hangs superblock ownership off the per-thread
    /// magazine slots, so it cannot run without them.
    LockfreeNeedsMagazines,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadSuperblockSize => {
                write!(
                    f,
                    "superblock size must be a power of two in 1 KiB..={} KiB",
                    MAX_SUPERBLOCK_SIZE / 1024
                )
            }
            ConfigError::BadEmptyFraction => {
                write!(f, "empty fraction must satisfy 0 < num/den < 1")
            }
            ConfigError::BadHeapCount => {
                write!(f, "heap count must be in 1..={MAX_HEAPS}")
            }
            ConfigError::BadMagazineCapacity => {
                write!(
                    f,
                    "magazine capacity must be at most {}",
                    crate::magazine::MAX_MAGAZINE_CAPACITY
                )
            }
            ConfigError::LockfreeNeedsMagazines => {
                write!(
                    f,
                    "the lock-free back-end requires a non-zero magazine capacity"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_calibrated_paper_setup() {
        let c = HoardConfig::new();
        assert_eq!(c.superblock_size, 8192);
        assert_eq!(
            (c.empty_fraction_num, c.empty_fraction_den),
            (1, 2),
            "f = 1/2 (see the HoardConfig docs for the calibration note)"
        );
        assert_eq!(c.slack_k, 2, "K = 2 (anti-thrash hysteresis)");
        assert_eq!(c.large_threshold(), 4096, "S/2 rule");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert_eq!(
            HoardConfig::new().with_superblock_size(5000).validate(),
            Err(ConfigError::BadSuperblockSize)
        );
        assert_eq!(
            HoardConfig::new().with_superblock_size(512).validate(),
            Err(ConfigError::BadSuperblockSize)
        );
        assert_eq!(
            HoardConfig::new().with_superblock_size(1 << 19).validate(),
            Err(ConfigError::BadSuperblockSize)
        );
        assert!(HoardConfig::new()
            .with_superblock_size(MAX_SUPERBLOCK_SIZE)
            .validate()
            .is_ok());
        assert_eq!(
            HoardConfig::new().with_empty_fraction(0, 4).validate(),
            Err(ConfigError::BadEmptyFraction)
        );
        assert_eq!(
            HoardConfig::new().with_empty_fraction(4, 4).validate(),
            Err(ConfigError::BadEmptyFraction)
        );
        assert_eq!(
            HoardConfig::new().with_heap_count(0).validate(),
            Err(ConfigError::BadHeapCount)
        );
        assert_eq!(
            HoardConfig::new().with_heap_count(MAX_HEAPS + 1).validate(),
            Err(ConfigError::BadHeapCount)
        );
    }

    #[test]
    fn invariant_violation_matches_definition() {
        let c = HoardConfig::new().with_empty_fraction(1, 4).with_slack(0); // S=8192, f=1/4, K=0
        // u = a: never violated.
        assert!(!c.invariant_violated(8192, 8192));
        // u = 0, a = S: violated (0 < S and 0 < 3/4·S).
        assert!(c.invariant_violated(0, 8192));
        // u just above (1-f)a: not violated.
        let a = 4 * 8192u64;
        assert!(!c.invariant_violated(3 * a / 4, a));
        assert!(c.invariant_violated(3 * a / 4 - 1, a));
        // Slack branch: the default K=2 tolerates two superblocks of
        // emptiness (the anti-thrash hysteresis).
        let c2 = HoardConfig::new();
        assert!(!c2.invariant_violated(0, 2 * 8192), "within K slack");
        assert!(c2.invariant_violated(0, 3 * 8192));
    }

    #[test]
    fn f_empty_boundary() {
        let c = HoardConfig::new().with_empty_fraction(1, 4); // f = 1/4
        assert!(c.f_empty_blocks(0, 100));
        assert!(c.f_empty_blocks(75, 100), "exactly 3/4 full is f-empty");
        assert!(!c.f_empty_blocks(76, 100));
        assert!(!c.f_empty_blocks(100, 100));
        // Tiny capacities round conservatively.
        assert!(c.f_empty_blocks(1, 2), "1/2 full leaves >= 1/4 free");
        assert!(!c.f_empty_blocks(2, 2));
    }

    #[test]
    fn config_is_const_constructible() {
        const C: HoardConfig = HoardConfig::new()
            .with_superblock_size(4096)
            .with_empty_fraction(1, 8)
            .with_slack(1)
            .with_heap_count(8);
        assert_eq!(C.superblock_size, 4096);
        assert_eq!(C.heap_count, 8);
    }

    #[test]
    fn hardening_defaults_off_and_builds_const() {
        assert_eq!(HoardConfig::new().hardening, HardeningLevel::Off);
        const C: HoardConfig = HoardConfig::new().with_hardening(HardeningLevel::Full);
        assert_eq!(C.hardening, HardeningLevel::Full);
        assert!(C.validate().is_ok(), "hardening never invalidates a config");
    }

    #[test]
    fn magazine_capacity_defaults_off_and_validates() {
        assert_eq!(HoardConfig::new().magazine_capacity, 0, "front-end off");
        const C: HoardConfig = HoardConfig::with_default_magazines();
        assert_eq!(
            C.magazine_capacity,
            crate::magazine::DEFAULT_MAGAZINE_CAPACITY
        );
        assert!(C.validate().is_ok());
        assert_eq!(
            HoardConfig::new()
                .with_magazine_capacity(crate::magazine::MAX_MAGAZINE_CAPACITY + 1)
                .validate(),
            Err(ConfigError::BadMagazineCapacity)
        );
    }

    #[test]
    fn lockfree_backend_defaults_off_and_requires_magazines() {
        assert!(!HoardConfig::new().lockfree_backend, "back-end off by default");
        const C: HoardConfig = HoardConfig::with_lockfree();
        const { assert!(C.lockfree_backend && C.magazine_capacity > 0) };
        assert!(C.validate().is_ok());
        assert_eq!(
            HoardConfig::new().with_lockfree_backend(true).validate(),
            Err(ConfigError::LockfreeNeedsMagazines)
        );
    }
}
