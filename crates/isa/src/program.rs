//! Static-instruction tables.
//!
//! ATOM's instrumentation identifies instructions by PC; we identify them
//! by the source location of the tracing call that emitted them. The
//! [`Program`] interns locations into dense [`StaticId`]s so that
//! per-static-instruction analyses (load coverage, per-branch predictor
//! state, the Table 5 hot-load profile) can use flat arrays.
//!
//! Every traced op interns its site, so the lookup is on the recording
//! hot path. The table hashes a location by its line and column only
//! (see [`SrcLoc`]'s `Hash`) with a one-multiply hasher; string content
//! is read only by the equality probe of a hash hit.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::op::OpKind;
use crate::source::SrcLoc;

/// Dense identifier of a static instruction, the analog of a PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StaticId(u32);

impl StaticId {
    /// Creates an id from a raw index. Intended for tests and for
    /// consumers that build parallel tables.
    pub const fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// The dense index of this id (0-based, contiguous per [`Program`]).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StaticId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Metadata about one static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// The instruction's dense id.
    pub id: StaticId,
    /// Operation kind emitted at this site.
    pub kind: OpKind,
    /// Source location of the emitting statement.
    pub loc: SrcLoc,
}

/// Multiplicative hasher for the site table.
///
/// A [`SrcLoc`] hashes as one `u64`, which a single multiply mixes into
/// the high bits; `finish` rotates them down to the low bits the table
/// picks buckets with.
#[derive(Debug, Clone, Copy, Default)]
struct SiteHasher(u64);

impl Hasher for SiteHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The static-instruction table of a traced program.
///
/// # Example
///
/// ```
/// use bioperf_isa::{OpKind, Program, SrcLoc};
///
/// let mut p = Program::new();
/// let a = p.intern(OpKind::IntLoad, SrcLoc::new("k.rs", 1, 1, "f"));
/// let b = p.intern(OpKind::IntLoad, SrcLoc::new("k.rs", 1, 1, "f"));
/// assert_eq!(a, b, "same site interns to the same id");
/// assert_eq!(p.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    by_loc: HashMap<SrcLoc, StaticId, BuildHasherDefault<SiteHasher>>,
    insts: Vec<StaticInst>,
}

impl Program {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a static instruction, returning its stable id.
    ///
    /// The first interning of a location fixes its [`OpKind`]; later calls
    /// from the same location return the same id. Ids are handed out in
    /// first-intern order, so they depend only on the sequence of sites,
    /// never on hashing or on where the location's strings live.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the same location is re-interned with a
    /// different kind (each tracing call site emits exactly one kind).
    pub fn intern(&mut self, kind: OpKind, loc: SrcLoc) -> StaticId {
        if let Some(&id) = self.by_loc.get(&loc) {
            debug_assert_eq!(
                self.insts[id.index()].kind,
                kind,
                "static instruction at {loc} re-interned with a different kind"
            );
            return id;
        }
        let id = StaticId(u32::try_from(self.insts.len()).expect("static instruction table overflow"));
        self.insts.push(StaticInst { id, kind, loc });
        self.by_loc.insert(loc, id);
        id
    }

    /// Looks up an instruction's metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn get(&self, id: StaticId) -> &StaticInst {
        &self.insts[id.index()]
    }

    /// Number of distinct static instructions interned so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over all static instructions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &StaticInst> {
        self.insts.iter()
    }

    /// Counts the static instructions satisfying `pred` (e.g. static
    /// loads, for the Figure 2 coverage denominator).
    pub fn count_kind(&self, pred: impl Fn(OpKind) -> bool) -> usize {
        self.insts.iter().filter(|i| pred(i.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(line: u32, col: u32) -> SrcLoc {
        SrcLoc::new("k.rs", line, col, "f")
    }

    #[test]
    fn interning_is_stable_per_site() {
        let mut p = Program::new();
        let a = p.intern(OpKind::IntLoad, loc(1, 1));
        let b = p.intern(OpKind::IntAlu, loc(2, 1));
        let a2 = p.intern(OpKind::IntLoad, loc(1, 1));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_indexable() {
        let mut p = Program::new();
        for i in 0..10 {
            let id = p.intern(OpKind::IntAlu, loc(i, 1));
            assert_eq!(id.index(), i as usize);
        }
    }

    #[test]
    fn get_returns_interned_metadata() {
        let mut p = Program::new();
        let id = p.intern(OpKind::FpLoad, loc(42, 7));
        let inst = p.get(id);
        assert_eq!(inst.kind, OpKind::FpLoad);
        assert_eq!(inst.loc.line, 42);
        assert_eq!(inst.id, id);
    }

    #[test]
    fn count_kind_filters() {
        let mut p = Program::new();
        p.intern(OpKind::IntLoad, loc(1, 1));
        p.intern(OpKind::FpLoad, loc(2, 1));
        p.intern(OpKind::IntStore, loc(3, 1));
        p.intern(OpKind::CondBranch, loc(4, 1));
        assert_eq!(p.count_kind(OpKind::is_load), 2);
        assert_eq!(p.count_kind(OpKind::is_cond_branch), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different kind")]
    fn reinterning_with_different_kind_panics() {
        let mut p = Program::new();
        p.intern(OpKind::IntLoad, loc(1, 1));
        p.intern(OpKind::IntStore, loc(1, 1));
    }

    #[test]
    fn empty_table_reports_empty() {
        let p = Program::new();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.iter().count(), 0);
    }
}
