//! Direct reference-vs-optimized checks that predate the fuzzer: a long
//! adversarial register-file sequence (moved here from the root
//! `tests/regfile_equivalence.rs`, which now also uses [`RefRegFile`] as
//! its oracle), the nested register file against one [`RefRegFile`] per
//! capacity, and hierarchy agreement on a stride ladder.

use bioperf_cache::AccessKind;
use bioperf_conform::{RefHierarchy, RefRegFile};
use bioperf_pipe::{PlatformConfig, RegFile};
use proptest::prelude::*;

/// Values that stress the engine's register-file use: a dense pool that
/// hits and evicts constantly, vregs equal mod 2^16 (they share a
/// ready-ring slot but are distinct registers), the `u64::MAX` ring
/// sentinel, and a wider pool that spans the larger capacities.
fn vreg() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..8,
        (0u64..4).prop_map(|k| 7 + (k << 16)),
        Just(u64::MAX),
        (0u64..4).prop_map(|k| u64::MAX - (k << 16)),
        0u64..40,
    ]
}

/// Capacity sets with duplicates, unsorted order and the minimum
/// capacity of 2 (the Table 7 capacities are 6, 30 and 126).
fn capacities() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(prop_oneof![Just(2usize), Just(3), Just(5), Just(6), Just(30)], 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One nested file answers every capacity exactly as its own scanned
    /// LRU does under the engine's access pattern (a use refreshes a
    /// resident value and inserts a missing one — re-used destinations
    /// included): per access, the nested miss count names exactly the
    /// capacities whose reference missed; at the end, every capacity's
    /// resident count agrees.
    #[test]
    fn nested_regfile_matches_a_reference_per_capacity(
        caps in capacities(),
        seq in prop::collection::vec(vreg(), 1..300),
    ) {
        let mut nested = RegFile::nested(&caps);
        let mut want = caps.clone();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(nested.capacities(), &want[..]);
        let mut references: Vec<RefRegFile> =
            want.iter().map(|&c| RefRegFile::with_capacity(c)).collect();
        for (step, &v) in seq.iter().enumerate() {
            let misses = nested.access(v);
            for (k, reference) in references.iter_mut().enumerate() {
                let hit = reference.touch(v);
                if !hit {
                    reference.insert(v);
                }
                prop_assert_eq!(k >= misses, hit, "step {} v {} capacity {}", step, v, want[k]);
            }
        }
        for (k, reference) in references.iter().enumerate() {
            prop_assert_eq!(nested.len_at(k), reference.len());
        }
    }
}

/// 50k mixed touch/insert steps over value distributions chosen to force
/// rapid eviction churn (small dense), far-flung values (sparse), and
/// recurring values (cyclic), at capacities from degenerate to large.
#[test]
fn optimized_regfile_matches_reference_on_adversarial_sequence() {
    for regs in [3u32, 6, 34, 128] {
        let mut fast = RegFile::new(regs);
        let mut slow = RefRegFile::new(regs);
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        for step in 0..50_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = match state >> 62 {
                0 => state % 16,
                1 => (state % 64) * 512,
                _ => step % 2048,
            };
            if state & 1 == 0 {
                assert_eq!(fast.touch(v), slow.touch(v), "regs={regs} step={step} touch({v})");
            } else {
                assert_eq!(fast.insert(v), slow.insert(v), "regs={regs} step={step} insert({v})");
            }
        }
        assert_eq!(fast.len(), slow.len(), "resident count at regs={regs}");
    }
}

/// Every platform's optimized hierarchy agrees with the reference on a
/// deterministic conflict ladder that spans L1 sets, L2 sets, and memory.
#[test]
fn optimized_hierarchy_matches_reference_on_conflict_ladder() {
    for platform in PlatformConfig::all() {
        let mut fast = platform.hierarchy();
        let mut slow = RefHierarchy::for_platform(&platform);
        let mut addr: u64 = 0x40;
        for step in 0..20_000u32 {
            let kind = if step % 3 == 0 { AccessKind::Store } else { AccessKind::Load };
            let a = fast.access_detailed(addr, kind);
            let b = slow.access_detailed(addr, kind);
            assert_eq!(a, b, "{} step {step} addr {addr:#x}", platform.name);
            // Walk a mixed-stride ladder: blocks, L1-set conflicts, and
            // an occasional fold back to the start.
            addr = match step % 7 {
                0..=2 => addr.wrapping_add(64),
                3 | 4 => addr.wrapping_add(32 * 1024),
                5 => addr.wrapping_add(4 << 20),
                _ => addr & 0xFFFF,
            };
        }
        assert_eq!(fast.stats(), slow.stats(), "{} final stats", platform.name);
    }
}
