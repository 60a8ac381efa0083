//! Simulated shared memory (paper, Section 2.1).
//!
//! Processes communicate through registers supporting atomic `read`,
//! `write`, and `compare-and-swap`. Every operation counts as one
//! *system step* — the paper's cost measure is shared-memory accesses.
//!
//! The *augmented* CAS of Section 7 ("richer semantics for the CAS
//! operation, which return the current value of the register") is
//! provided as [`SharedMemory::cas_augmented`].

use std::fmt;

/// The kind of a shared-memory access, as observed by checking tools.
///
/// A CAS is split by outcome because only a successful CAS mutates the
/// register: a failed CAS commutes with reads and with other failed
/// CASes on the same register, which is exactly the independence
/// relation partial-order reduction needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// An atomic read.
    Read,
    /// An atomic write.
    Write,
    /// A compare-and-swap that succeeded (mutated the register).
    CasSuccess,
    /// A compare-and-swap that failed (read-only effect).
    CasFailure,
}

/// One observed shared-memory access: which register, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// The register touched.
    pub register: RegisterId,
    /// How it was touched.
    pub kind: AccessKind,
}

impl Access {
    /// Whether the access mutated the register.
    pub fn mutates(self) -> bool {
        matches!(self.kind, AccessKind::Write | AccessKind::CasSuccess)
    }

    /// Whether two accesses are *dependent* (order-sensitive): same
    /// register and at least one of them mutates it. Independent
    /// accesses commute — swapping adjacent independent steps yields an
    /// equivalent execution.
    pub fn conflicts_with(self, other: Access) -> bool {
        self.register == other.register && (self.mutates() || other.mutates())
    }
}

/// Identifier of a simulated shared register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegisterId(usize);

impl RegisterId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// The register file shared by all simulated processes, with a step
/// counter tallying every shared-memory access.
///
/// # Examples
///
/// ```
/// use pwf_sim::memory::SharedMemory;
///
/// let mut mem = SharedMemory::new();
/// let r = mem.alloc(0);
/// assert!(mem.cas(r, 0, 7));
/// assert!(!mem.cas(r, 0, 9));
/// assert_eq!(mem.read(r), 7);
/// assert_eq!(mem.steps(), 3);
/// ```
#[derive(Debug, Default)]
pub struct SharedMemory {
    regs: Vec<u64>,
    steps: u64,
    last_access: Option<Access>,
}

/// [`Clone::clone_from`] overwrites the register file in place, so a
/// checker recycling state snapshots allocates no new one.
impl Clone for SharedMemory {
    fn clone(&self) -> Self {
        SharedMemory {
            regs: self.regs.clone(),
            steps: self.steps,
            last_access: self.last_access,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.regs.clone_from(&source.regs);
        self.steps = source.steps;
        self.last_access = source.last_access;
    }
}

impl SharedMemory {
    /// Creates an empty register file.
    pub fn new() -> Self {
        SharedMemory::default()
    }

    /// Allocates a new register with the given initial value.
    /// Allocation is setup, not a system step.
    pub fn alloc(&mut self, initial: u64) -> RegisterId {
        let id = RegisterId(self.regs.len());
        self.regs.push(initial);
        id
    }

    /// Number of registers allocated.
    pub fn register_count(&self) -> usize {
        self.regs.len()
    }

    /// The register contents, in allocation order: non-step
    /// inspection for state hashing (not available to simulated
    /// algorithms).
    pub fn registers(&self) -> &[u64] {
        &self.regs
    }

    /// Total system steps (shared-memory accesses) performed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Atomically reads a register. Counts as one step.
    ///
    /// # Panics
    ///
    /// Panics if `r` was not allocated from this memory.
    pub fn read(&mut self, r: RegisterId) -> u64 {
        self.steps += 1;
        self.last_access = Some(Access {
            register: r,
            kind: AccessKind::Read,
        });
        self.regs[r.0]
    }

    /// Atomically writes a register. Counts as one step.
    ///
    /// # Panics
    ///
    /// Panics if `r` was not allocated from this memory.
    pub fn write(&mut self, r: RegisterId, value: u64) {
        self.steps += 1;
        self.last_access = Some(Access {
            register: r,
            kind: AccessKind::Write,
        });
        self.regs[r.0] = value;
    }

    /// Atomic compare-and-swap: if the register holds `expected`, it is
    /// set to `new` and `true` is returned; otherwise `false`. Counts
    /// as one step either way.
    ///
    /// # Panics
    ///
    /// Panics if `r` was not allocated from this memory.
    pub fn cas(&mut self, r: RegisterId, expected: u64, new: u64) -> bool {
        self.steps += 1;
        let hit = self.regs[r.0] == expected;
        self.last_access = Some(Access {
            register: r,
            kind: if hit {
                AccessKind::CasSuccess
            } else {
                AccessKind::CasFailure
            },
        });
        if hit {
            self.regs[r.0] = new;
        }
        hit
    }

    /// Augmented CAS (Section 7): like [`cas`](Self::cas) but returns
    /// the value the register held *before* the operation. The CAS
    /// succeeded iff the returned value equals `expected`.
    ///
    /// # Panics
    ///
    /// Panics if `r` was not allocated from this memory.
    pub fn cas_augmented(&mut self, r: RegisterId, expected: u64, new: u64) -> u64 {
        self.steps += 1;
        let old = self.regs[r.0];
        self.last_access = Some(Access {
            register: r,
            kind: if old == expected {
                AccessKind::CasSuccess
            } else {
                AccessKind::CasFailure
            },
        });
        if old == expected {
            self.regs[r.0] = new;
        }
        old
    }

    /// Non-step inspection of a register's value, for assertions and
    /// statistics (not available to simulated algorithms).
    ///
    /// # Panics
    ///
    /// Panics if `r` was not allocated from this memory.
    pub fn peek(&self, r: RegisterId) -> u64 {
        self.regs[r.0]
    }

    /// The most recent shared-memory access, if any. A checking tool
    /// (e.g. the `pwf-checker` schedule explorer) reads this after
    /// every [`Process::step`](crate::process::Process::step) to learn
    /// which register the step touched and whether it mutated it — the
    /// dynamic dependence information partial-order reduction is built
    /// on.
    pub fn last_access(&self) -> Option<Access> {
        self.last_access
    }

    /// A 64-bit FNV-1a fingerprint of the register contents (the
    /// shared component of a global simulation state). The step counter
    /// and access log are deliberately excluded: two states reached by
    /// different schedules but holding identical register values must
    /// fingerprint equal.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(FNV_OFFSET, &self.regs)
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Folds one word into a running hash: a multiply-xorshift step,
/// bijective in `w` for a fixed `h`, so equal-length word sequences
/// differing in one word never collide. Finish the fold with
/// `pwf_rng::mix64`. Cheaper per word than [`fnv1a`], which mixes
/// byte by byte; the checker's state fingerprint runs it on every
/// word of every explored state.
#[inline]
pub fn fold_word(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 29)
}

/// Hashes a few words: [`fold_word`] from `seed`, then
/// `pwf_rng::mix64`. The checker's per-step local fingerprint.
#[inline]
pub fn fold_words(seed: u64, words: &[u64]) -> u64 {
    pwf_rng::mix64(words.iter().fold(seed, |h, &w| fold_word(h, w)))
}

/// Folds a slice of words into an FNV-1a hash, seeded with `seed` so
/// fingerprints compose (`fnv1a(fnv1a(seed, a), b)` hashes `a ++ b`).
pub fn fnv1a(seed: u64, words: &[u64]) -> u64 {
    let mut h = seed;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut mem = SharedMemory::new();
        let r = mem.alloc(5);
        assert_eq!(mem.read(r), 5);
        mem.write(r, 9);
        assert_eq!(mem.read(r), 9);
        assert_eq!(mem.steps(), 3);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut mem = SharedMemory::new();
        let r = mem.alloc(1);
        assert!(mem.cas(r, 1, 2));
        assert_eq!(mem.peek(r), 2);
        assert!(!mem.cas(r, 1, 3));
        assert_eq!(mem.peek(r), 2);
    }

    #[test]
    fn augmented_cas_returns_prior_value() {
        let mut mem = SharedMemory::new();
        let r = mem.alloc(10);
        assert_eq!(mem.cas_augmented(r, 10, 11), 10); // success
        assert_eq!(mem.peek(r), 11);
        assert_eq!(mem.cas_augmented(r, 10, 12), 11); // failure
        assert_eq!(mem.peek(r), 11);
    }

    #[test]
    fn every_access_counts_one_step() {
        let mut mem = SharedMemory::new();
        let r = mem.alloc(0);
        mem.read(r);
        mem.write(r, 1);
        mem.cas(r, 1, 2);
        mem.cas_augmented(r, 2, 3);
        assert_eq!(mem.steps(), 4);
    }

    #[test]
    fn alloc_does_not_count_steps() {
        let mut mem = SharedMemory::new();
        for i in 0..10 {
            mem.alloc(i);
        }
        assert_eq!(mem.steps(), 0);
        assert_eq!(mem.register_count(), 10);
    }

    #[test]
    fn last_access_observes_every_kind() {
        let mut mem = SharedMemory::new();
        let r = mem.alloc(0);
        assert_eq!(mem.last_access(), None, "allocation is not an access");
        mem.read(r);
        assert_eq!(mem.last_access().unwrap().kind, AccessKind::Read);
        mem.write(r, 1);
        assert_eq!(mem.last_access().unwrap().kind, AccessKind::Write);
        assert!(mem.cas(r, 1, 2));
        assert_eq!(mem.last_access().unwrap().kind, AccessKind::CasSuccess);
        assert!(!mem.cas(r, 1, 3));
        assert_eq!(mem.last_access().unwrap().kind, AccessKind::CasFailure);
        assert_eq!(mem.cas_augmented(r, 2, 4), 2);
        assert_eq!(mem.last_access().unwrap().kind, AccessKind::CasSuccess);
        assert_eq!(mem.cas_augmented(r, 2, 5), 4);
        let access = mem.last_access().unwrap();
        assert_eq!(access.kind, AccessKind::CasFailure);
        assert_eq!(access.register, r);
    }

    #[test]
    fn conflict_relation_matches_commutativity() {
        let mut mem = SharedMemory::new();
        let a = mem.alloc(0);
        let b = mem.alloc(0);
        let read_a = Access {
            register: a,
            kind: AccessKind::Read,
        };
        let write_a = Access {
            register: a,
            kind: AccessKind::Write,
        };
        let casfail_a = Access {
            register: a,
            kind: AccessKind::CasFailure,
        };
        let write_b = Access {
            register: b,
            kind: AccessKind::Write,
        };
        // Reads and failed CASes on the same register commute.
        assert!(!read_a.conflicts_with(read_a));
        assert!(!read_a.conflicts_with(casfail_a));
        // Any mutation on the same register conflicts.
        assert!(read_a.conflicts_with(write_a));
        assert!(write_a.conflicts_with(write_a));
        assert!(casfail_a.conflicts_with(write_a));
        // Different registers never conflict.
        assert!(!write_a.conflicts_with(write_b));
    }

    #[test]
    fn fingerprint_depends_on_values_not_history() {
        let mut m1 = SharedMemory::new();
        let r1 = m1.alloc(0);
        let mut m2 = SharedMemory::new();
        let r2 = m2.alloc(0);
        // Different access histories, same final values.
        m1.write(r1, 7);
        m2.write(r2, 3);
        m2.write(r2, 5);
        m2.write(r2, 7);
        assert_eq!(m1.fingerprint(), m2.fingerprint());
        m1.write(r1, 8);
        assert_ne!(m1.fingerprint(), m2.fingerprint());
    }

    #[test]
    fn clone_from_copies_every_field_into_the_existing_register_file() {
        let mut source = SharedMemory::new();
        let a = source.alloc(1);
        source.alloc(2);
        source.write(a, 9);
        let mut copy = SharedMemory::new();
        for i in 0..4 {
            copy.alloc(i);
        }
        copy.read(a);
        let buffer = copy.registers().as_ptr();
        copy.clone_from(&source);
        assert_eq!(copy.registers(), source.registers());
        assert_eq!(copy.steps(), source.steps());
        assert_eq!(copy.last_access(), source.last_access());
        assert_eq!(copy.registers().as_ptr(), buffer, "register file reused");
        // The copy is independent of its source.
        copy.write(a, 3);
        assert_eq!(source.peek(a), 9);
    }

    #[test]
    fn registers_are_independent() {
        let mut mem = SharedMemory::new();
        let a = mem.alloc(1);
        let b = mem.alloc(2);
        mem.write(a, 100);
        assert_eq!(mem.peek(b), 2);
        assert_eq!(mem.peek(a), 100);
    }
}
