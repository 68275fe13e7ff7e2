//! Property tests for static-instruction interning.
//!
//! `Program` hashes a site by its line and column only and resolves
//! everything else through `SrcLoc`'s content equality. These tests draw
//! intern sequences from a pool built to stress exactly that: sites that
//! collide on `(line, column)` across files and functions, and
//! same-content sites whose strings live in distinct allocations. Ids
//! must match a naive first-occurrence oracle that never hashes.

use std::sync::OnceLock;

use bioperf_isa::{OpKind, Program, SrcLoc};
use proptest::prelude::*;

const FILES: [&str; 3] = ["kernel.rs", "viterbi.rs", "k.rs"];
const FUNCTIONS: [&str; 2] = ["p7_viterbi", "score"];
const LINE_COLUMNS: [(u32, u32); 4] = [(1, 1), (1, 2), (2, 1), (132, 9)];

/// The same text as `s`, in a fresh leaked allocation.
fn leaked_copy(s: &'static str) -> &'static str {
    let copy: &'static str = Box::leak(s.to_string().into_boxed_str());
    assert!(!std::ptr::eq(copy, s), "copy must not share the literal's storage");
    copy
}

/// Every (file, function, line, column) combination, each followed by a
/// same-content copy backed by leaked strings.
fn pool() -> &'static [SrcLoc] {
    static POOL: OnceLock<Vec<SrcLoc>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut out = Vec::new();
        for file in FILES {
            for function in FUNCTIONS {
                for (line, column) in LINE_COLUMNS {
                    out.push(SrcLoc::new(file, line, column, function));
                    out.push(SrcLoc::new(leaked_copy(file), line, column, leaked_copy(function)));
                }
            }
        }
        out
    })
}

/// A kind fixed by the site's content, so every intern of one site (and
/// of its leaked copy) agrees on it.
fn kind_of(loc: &SrcLoc) -> OpKind {
    let key = loc.file.len() + loc.function.len() + loc.line as usize + loc.column as usize;
    OpKind::ALL[key % OpKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ids equal a linear-scan first-occurrence oracle, and the table
    /// round-trips each id to its kind and location.
    #[test]
    fn ids_match_a_first_occurrence_oracle(picks in prop::collection::vec(0usize..48, 1..200)) {
        let pool = pool();
        let mut program = Program::new();
        let mut oracle: Vec<SrcLoc> = Vec::new();
        for &pick in &picks {
            let loc = pool[pick % pool.len()];
            let kind = kind_of(&loc);
            let expected = match oracle.iter().position(|seen| *seen == loc) {
                Some(i) => i,
                None => {
                    oracle.push(loc);
                    oracle.len() - 1
                }
            };
            let id = program.intern(kind, loc);
            prop_assert_eq!(id.index(), expected, "{} interned out of first-occurrence order", loc);
            let inst = program.get(id);
            prop_assert_eq!(inst.id, id);
            prop_assert_eq!(inst.kind, kind);
            prop_assert_eq!(inst.loc, loc);
        }
        prop_assert_eq!(program.len(), oracle.len());
        let table: Vec<SrcLoc> = program.iter().map(|inst| inst.loc).collect();
        prop_assert_eq!(table, oracle);
    }
}

#[test]
fn colliding_sites_get_distinct_ids_and_copies_share_one() {
    let mut program = Program::new();
    let a = program.intern(OpKind::IntLoad, SrcLoc::new("a.rs", 7, 3, "f"));
    let b = program.intern(OpKind::IntLoad, SrcLoc::new("b.rs", 7, 3, "f"));
    let c = program.intern(OpKind::IntLoad, SrcLoc::new("a.rs", 7, 3, "g"));
    let a2 = program.intern(OpKind::IntLoad, SrcLoc::new(leaked_copy("a.rs"), 7, 3, leaked_copy("f")));
    assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
    assert_eq!(a2, a, "a same-content site in other storage is the same instruction");
    assert_eq!(program.len(), 3);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "different kind")]
fn kind_mismatch_panics_on_the_hit_path() {
    let mut program = Program::new();
    program.intern(OpKind::IntLoad, SrcLoc::new("a.rs", 7, 3, "f"));
    // A hit found through the content-equality probe, not by pointer.
    program.intern(OpKind::IntStore, SrcLoc::new(leaked_copy("a.rs"), 7, 3, leaked_copy("f")));
}
