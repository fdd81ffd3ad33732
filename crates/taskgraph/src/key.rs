//! Structural task keys.
//!
//! A [`TaskKey`] identifies a computation by *what it computes*, not where
//! it sits in a graph: the hash covers the operation name, its parameters,
//! and the keys of its inputs. Two tasks with equal keys are
//! interchangeable, which is the license for common-subexpression
//! elimination.
//!
//! Keys are hashed with a fixed-seed FNV-1a so the same computation hashes
//! to the same `u64` in every process — a prerequisite for any cache whose
//! lifetime outlives one run (the cross-call [`crate::cache::ResultCache`]
//! today, a persistent on-disk cache tomorrow). `DefaultHasher` makes no
//! such cross-process guarantee.

use std::hash::{Hash, Hasher};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A fixed-seed FNV-1a hasher: deterministic across processes and
/// platforms, unlike [`std::collections::hash_map::DefaultHasher`] whose
/// initial state is unspecified. Speed is fine for key material (tens of
/// bytes per task).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher starting from the standard FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// A structural identity for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskKey(pub u64);

impl TaskKey {
    /// Key for a leaf (source) task: operation name + parameter hash.
    pub fn leaf(op: &str, params: u64) -> TaskKey {
        let mut h = Fnv1a::new();
        0xE0A_u32.hash(&mut h);
        op.hash(&mut h);
        params.hash(&mut h);
        TaskKey(h.finish())
    }

    /// Key for a derived task: operation name + parameter hash + ordered
    /// input keys.
    pub fn derived(op: &str, params: u64, inputs: &[TaskKey]) -> TaskKey {
        let mut h = Fnv1a::new();
        0xE0B_u32.hash(&mut h);
        op.hash(&mut h);
        params.hash(&mut h);
        for k in inputs {
            k.0.hash(&mut h);
        }
        TaskKey(h.finish())
    }

    /// Hash arbitrary parameter material into the `params` slot.
    pub fn params<T: Hash>(value: &T) -> u64 {
        let mut h = Fnv1a::new();
        value.hash(&mut h);
        h.finish()
    }

    /// A key guaranteed unique within a process — used for tasks whose
    /// results must never be shared (e.g. impure sources).
    pub fn unique() -> TaskKey {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut h = Fnv1a::new();
        0xE0C_u32.hash(&mut h);
        n.hash(&mut h);
        TaskKey(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_keys_deterministic() {
        assert_eq!(TaskKey::leaf("read", 1), TaskKey::leaf("read", 1));
        assert_ne!(TaskKey::leaf("read", 1), TaskKey::leaf("read", 2));
        assert_ne!(TaskKey::leaf("read", 1), TaskKey::leaf("scan", 1));
    }

    #[test]
    fn derived_keys_cover_inputs() {
        let a = TaskKey::leaf("src", 0);
        let b = TaskKey::leaf("src", 1);
        let k1 = TaskKey::derived("sum", 0, &[a]);
        let k2 = TaskKey::derived("sum", 0, &[b]);
        let k3 = TaskKey::derived("sum", 0, &[a]);
        assert_ne!(k1, k2);
        assert_eq!(k1, k3);
    }

    #[test]
    fn derived_keys_are_order_sensitive() {
        let a = TaskKey::leaf("src", 0);
        let b = TaskKey::leaf("src", 1);
        assert_ne!(
            TaskKey::derived("sub", 0, &[a, b]),
            TaskKey::derived("sub", 0, &[b, a])
        );
    }

    #[test]
    fn leaf_vs_derived_domains_disjoint() {
        // Same op/params but different constructor must not collide.
        assert_ne!(TaskKey::leaf("x", 0), TaskKey::derived("x", 0, &[]));
    }

    #[test]
    fn unique_keys_differ() {
        assert_ne!(TaskKey::unique(), TaskKey::unique());
    }

    #[test]
    fn params_hashes_structs() {
        #[derive(Hash)]
        struct P {
            bins: usize,
            name: &'static str,
        }
        let a = TaskKey::params(&P { bins: 50, name: "price" });
        let b = TaskKey::params(&P { bins: 50, name: "price" });
        let c = TaskKey::params(&P { bins: 200, name: "price" });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn keys_are_stable_across_processes() {
        // FNV-1a with a fixed seed: these constants must never drift, or a
        // persistent cache keyed on them silently invalidates. Computed
        // once by hand from the FNV-1a definition and pinned here.
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
        // Every key constructor, pinned as literals (64-bit targets: a
        // `usize` hashes as 8 bytes). A seeded hasher, hash-map iteration
        // order, the clock or a thread id anywhere in these cones gives a
        // different value in every new process, so this fails at once.
        let leaf = TaskKey::leaf("partition", 7);
        assert_eq!(leaf.0, 0x7f34_8898_99c8_7b91);
        let other = TaskKey::leaf("partition", 8);
        assert_eq!(TaskKey::derived("sum", 3, &[leaf, other]).0, 0x8dbf_94e4_d054_04e5);
        assert_eq!(TaskKey::derived("sum", 3, &[other, leaf]).0, 0xc43b_13d1_6dea_c789);
        #[derive(Hash)]
        struct P<'a> {
            column: &'a str,
            bins: usize,
        }
        assert_eq!(TaskKey::params(&P { column: "price", bins: 50 }), 0x5d88_3fe0_a4c2_393d);
    }
}
