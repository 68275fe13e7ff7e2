//! The register-pressure model: an LRU set of live virtual registers,
//! kept at one or several capacities at once.
//!
//! Models a graph-coloring-free "spill at capacity" allocator: values
//! pushed out of the architected register file must be reloaded before
//! reuse. Semantically this is a move-to-front LRU list, and the original
//! implementation was literally that — a `Vec` scanned per operand. On
//! the 126-entry Itanium 2 file that scan dominated replay, so the list
//! is an intrusive doubly-linked LRU over a slot arena with an
//! open-addressed value→slot index: every operation is O(1) per capacity
//! and — because LRU order is a pure function of the access sequence —
//! the eviction sequence is *identical* to the scanned version's
//! (pinned by `tests/regfile_equivalence.rs` on real program traces).
//!
//! A fully associative true LRU has the inclusion property (Mattson et
//! al.; the cache crate's `stackdist` relies on it too): under the same
//! access sequence, the residents of a capacity-`c` file are exactly the
//! `c` most recently used values. So one MRU-ordered list answers every
//! capacity at once. Each node carries a *class* — the index of the
//! smallest capacity whose top-`c` prefix holds it — and each capacity
//! below the largest keeps a boundary pointer to its oldest member (the
//! largest one's is the LRU end). An access moves the value to the front
//! and demotes each crossed boundary node one class, so
//! [`RegFile::access`] costs O(#capacities) and reports how many
//! capacities missed.

/// Sentinel for "no slot" in the linked list, the hash index and the
/// boundary pointers.
const NIL: u32 = u32::MAX;

/// Fibonacci-multiplicative hash constant (2^64 / φ).
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct Slot {
    value: u64,
    /// Neighbor toward the MRU end.
    newer: u32,
    /// Neighbor toward the LRU end.
    older: u32,
    /// The index of the smallest capacity holding the value.
    class: u8,
}

/// O(1)-per-capacity LRU over virtual-register numbers, nested over a
/// sorted set of capacities.
///
/// The list holds up to the largest capacity's worth of values; `mru`
/// is the most recently used, `lru` the eviction victim. The index is a
/// linear-probe table of slot ids sized ≥ 4× the largest capacity (load
/// factor ≤ 25%), with backward-shift deletion so probes never traverse
/// tombstones. Each entry's key is mirrored into a flat `keys` array so
/// the probe loop — the hottest path in the whole register model — walks
/// one contiguous array instead of dereferencing the slot arena per step.
#[derive(Debug, Clone)]
pub struct RegFile {
    slots: Vec<Slot>,
    mru: u32,
    lru: u32,
    index: Vec<u32>,
    /// `keys[pos]` is the value of the entry at `index[pos]`; garbage
    /// wherever `index[pos] == NIL`.
    keys: Vec<u64>,
    /// `index.len() == 1 << bits`; hashes take the top `bits` of v * K.
    shift: u32,
    /// Ascending, de-duplicated, each ≥ 2.
    caps: Vec<usize>,
    /// The largest capacity: the list's length bound.
    largest: usize,
    /// `bound[k]`, for every capacity but the largest: the oldest value
    /// within the top `caps[k]`, set once that many values are resident.
    /// The largest capacity's boundary is the LRU end once the list is
    /// full, and demoting it is eviction.
    bound: Vec<u32>,
    /// Inner capacities whose boundary is set (those already full).
    filled: usize,
}

impl RegFile {
    /// A file with the given number of logical registers: one capacity,
    /// [`RegFile::capacity_for`]`(logical_regs)`.
    pub fn new(logical_regs: u32) -> Self {
        Self::nested(&[Self::capacity_for(logical_regs)])
    }

    /// Residents a file of `logical_regs` logical registers holds: a few
    /// registers are permanently claimed for addressing, constants, and
    /// the stack/frame pointers.
    pub fn capacity_for(logical_regs: u32) -> usize {
        (logical_regs.saturating_sub(2)).max(2) as usize
    }

    /// One nested file answering every capacity in `capacities` (any
    /// order, duplicates allowed).
    ///
    /// # Panics
    ///
    /// If `capacities` is empty, holds a capacity below 2, or more than
    /// 254 distinct capacities.
    pub fn nested(capacities: &[usize]) -> Self {
        let mut caps = capacities.to_vec();
        caps.sort_unstable();
        caps.dedup();
        assert!(!caps.is_empty(), "a register file needs a capacity");
        assert!(caps[0] >= 2, "register-file capacities start at 2");
        assert!(caps.len() < u8::MAX as usize, "at most 254 nested capacities");
        let largest = caps[caps.len() - 1];
        let table = (largest * 4).next_power_of_two().max(8);
        Self {
            slots: Vec::with_capacity(largest),
            mru: NIL,
            lru: NIL,
            index: vec![NIL; table],
            keys: vec![0; table],
            shift: 64 - table.trailing_zeros(),
            bound: vec![NIL; caps.len() - 1],
            caps,
            largest,
            filled: 0,
        }
    }

    /// The capacities answered, ascending: [`RegFile::access`]'s miss
    /// count `m` means the first `m` of these missed.
    pub fn capacities(&self) -> &[usize] {
        &self.caps
    }

    /// Residents the file can hold before evicting (the largest
    /// capacity).
    pub fn capacity(&self) -> usize {
        self.largest
    }

    /// Currently resident values (at the largest capacity).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Values resident at the `k`-th capacity of [`RegFile::capacities`].
    pub fn len_at(&self, k: usize) -> usize {
        self.slots.len().min(self.caps[k])
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Uses `v`: it becomes the most recently used value at every
    /// capacity, inserted (evicting each capacity's LRU value as needed)
    /// where it was not resident. Returns how many capacities missed —
    /// always a prefix of [`RegFile::capacities`], by LRU inclusion.
    pub fn access(&mut self, v: u64) -> usize {
        match self.probe(v) {
            Ok(slot) => self.refresh(slot),
            Err(pos) => {
                self.insert_absent(v, pos);
                self.caps.len()
            }
        }
    }

    /// Touches `v` at the largest capacity: `true` (and `v` is now MRU,
    /// as [`RegFile::access`] leaves it) if it was resident there;
    /// `false`, changing nothing, otherwise.
    pub fn touch(&mut self, v: u64) -> bool {
        match self.probe(v) {
            Ok(slot) => {
                self.refresh(slot);
                true
            }
            Err(_) => false,
        }
    }

    /// Inserts `v` as MRU (exactly [`RegFile::access`]), returning the
    /// value the largest capacity evicted (`None` if `v` was already
    /// resident or there was room).
    pub fn insert(&mut self, v: u64) -> Option<u64> {
        match self.probe(v) {
            Ok(slot) => {
                self.refresh(slot);
                None
            }
            Err(pos) => self.insert_absent(v, pos),
        }
    }

    /// Moves a resident value to the front, returning its class (the
    /// capacities it missed).
    fn refresh(&mut self, slot: u32) -> usize {
        if self.mru == slot {
            return 0;
        }
        let c = self.slots[slot as usize].class as usize;
        // An armed `regfile-touch-stale` fault finds a value resident only
        // at the largest capacity (any resident value, in a one-capacity
        // file) without refreshing it.
        if c == self.bound.len() && crate::inject::active(crate::inject::REGFILE_TOUCH_STALE) {
            return c;
        }
        // Every capacity below `c` gains `v` at the front, so its oldest
        // member slides out one class. Those boundary nodes and their
        // newer neighbors sit above `v`'s position, so none is `v`.
        for k in 0..c {
            self.demote(k);
        }
        // `v` leaving the end of its own class pulls the next-newer node
        // into that position (for the largest capacity, the unlink below
        // moves the LRU end).
        if c < self.bound.len() && self.bound[c] == slot {
            self.bound[c] = self.slots[slot as usize].newer;
        }
        self.unlink(slot);
        self.push_mru(slot);
        self.slots[slot as usize].class = 0;
        c
    }

    /// Inserts an absent `v` whose probe chain ends at free entry `pos`,
    /// returning the value the largest capacity evicted.
    fn insert_absent(&mut self, v: u64, pos: usize) -> Option<u64> {
        let n = self.slots.len();
        if n < self.largest {
            for k in 0..self.filled {
                self.demote(k);
            }
            let slot = n as u32;
            self.slots.push(Slot { value: v, newer: NIL, older: NIL, class: 0 });
            self.push_mru(slot);
            self.index[pos] = slot;
            self.keys[pos] = v;
            if self.filled < self.bound.len() && n + 1 == self.caps[self.filled] {
                self.bound[self.filled] = self.lru;
                self.filled += 1;
            }
            return None;
        }
        if crate::inject::active(crate::inject::REGFILE_EVICT_MRU) {
            // Replace the MRU value in place: no node changes position.
            let slot = self.mru;
            let evicted = self.slots[slot as usize].value;
            self.index_remove(evicted);
            self.slots[slot as usize].value = v;
            self.index_insert(v, slot);
            return Some(evicted);
        }
        // Full: every inner capacity's oldest member slides out one
        // class, and the largest capacity's — the LRU node — is evicted,
        // its slot taking the incoming value. The removal's backward
        // shift can slide entries into (or past) `pos`, so v's entry must
        // be re-probed, not placed at the stale `pos`.
        for k in 0..self.bound.len() {
            self.demote(k);
        }
        let slot = self.lru;
        let evicted = self.slots[slot as usize].value;
        self.index_remove(evicted);
        self.unlink(slot);
        self.slots[slot as usize].value = v;
        self.slots[slot as usize].class = 0;
        self.push_mru(slot);
        self.index_insert(v, slot);
        Some(evicted)
    }

    /// Capacity `k`'s oldest member falls to class `k + 1`; the
    /// next-newer node becomes the boundary.
    #[inline(always)]
    fn demote(&mut self, k: usize) {
        let b = self.bound[k];
        let node = &mut self.slots[b as usize];
        node.class = (k + 1) as u8;
        self.bound[k] = node.newer;
    }

    fn hash(&self, v: u64) -> usize {
        (v.wrapping_mul(HASH_K) >> self.shift) as usize
    }

    /// `Ok(slot)` if `v` is resident, else `Err(pos)` with `pos` the
    /// first free entry of v's probe chain.
    #[inline]
    fn probe(&self, v: u64) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let mut pos = self.hash(v);
        loop {
            let slot = self.index[pos];
            if slot == NIL {
                return Err(pos);
            }
            if self.keys[pos] == v {
                return Ok(slot);
            }
            pos = (pos + 1) & mask;
        }
    }

    fn index_insert(&mut self, v: u64, slot: u32) {
        let mask = self.index.len() - 1;
        let mut pos = self.hash(v);
        while self.index[pos] != NIL {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = slot;
        self.keys[pos] = v;
    }

    /// Removes `v`'s entry with backward-shift deletion: later entries of
    /// the probe chain slide into the hole unless they already sit at or
    /// past their ideal position, so lookups never need tombstones.
    ///
    /// `v` must be present: its entry is then reachable without crossing
    /// a free slot, so probing on `keys` alone (garbage at free entries
    /// is never inspected) cannot misidentify the entry.
    fn index_remove(&mut self, v: u64) {
        let mask = self.index.len() - 1;
        let mut pos = self.hash(v);
        while self.keys[pos] != v {
            pos = (pos + 1) & mask;
        }
        let mut hole = pos;
        let mut probe = (pos + 1) & mask;
        while self.index[probe] != NIL {
            let ideal = self.hash(self.keys[probe]);
            if (probe.wrapping_sub(ideal) & mask) >= (probe.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[probe];
                self.keys[hole] = self.keys[probe];
                hole = probe;
            }
            probe = (probe + 1) & mask;
        }
        self.index[hole] = NIL;
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        if newer == NIL {
            self.mru = older;
        } else {
            self.slots[newer as usize].older = older;
        }
        if older == NIL {
            self.lru = newer;
        } else {
            self.slots[older as usize].newer = newer;
        }
    }

    fn push_mru(&mut self, slot: u32) {
        self.slots[slot as usize].newer = NIL;
        self.slots[slot as usize].older = self.mru;
        if self.mru == NIL {
            self.lru = slot;
        } else {
            self.slots[self.mru as usize].newer = slot;
        }
        self.mru = slot;
    }
}

// The scanned reference implementation this LRU replaced lives in the
// conformance crate as `bioperf_conform::RefRegFile` (this crate cannot
// depend on it without a cycle). Differential coverage — adversarial
// synthetic sequences at one and at several nested capacities,
// real-trace equivalence, seeded fuzzing — lives in `crates/conform` and
// `tests/regfile_equivalence.rs`; the tests below only pin the basic
// LRU contract directly.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_semantics() {
        let mut rf = RegFile::new(6); // capacity 4
        assert_eq!(rf.capacity(), 4);
        assert_eq!(rf.insert(1), None);
        assert_eq!(rf.insert(2), None);
        assert_eq!(rf.insert(3), None);
        assert_eq!(rf.insert(4), None);
        assert!(rf.touch(1)); // 1 becomes MRU
        assert_eq!(rf.insert(5), Some(2), "2 is now LRU");
        assert!(!rf.touch(2));
        assert!(rf.touch(1));
    }

    #[test]
    fn eviction_order_at_capacity_is_strict_lru() {
        let mut rf = RegFile::new(4); // capacity 2
        assert_eq!(rf.insert(10), None);
        assert_eq!(rf.insert(20), None);
        assert_eq!(rf.insert(30), Some(10), "oldest goes first");
        assert_eq!(rf.insert(40), Some(20));
        assert_eq!(rf.insert(30), None, "already resident: refresh, no eviction");
        assert_eq!(rf.insert(50), Some(40), "30 was refreshed above 40");
        assert_eq!(rf.insert(60), Some(30));
    }

    #[test]
    fn reinserting_resident_value_refreshes_without_evicting() {
        let mut rf = RegFile::new(5); // capacity 3
        rf.insert(1);
        rf.insert(2);
        rf.insert(3);
        assert_eq!(rf.insert(2), None);
        assert_eq!(rf.len(), 3);
        assert_eq!(rf.insert(4), Some(1), "2 refreshed, 1 remains LRU");
    }

    /// Nested capacities 2 and 3: a value at stack depth 3 misses only
    /// the 2-file, and a new value misses both.
    #[test]
    fn nested_access_counts_missing_capacities() {
        let mut rf = RegFile::nested(&[3, 2, 3]);
        assert_eq!(rf.capacities(), &[2, 3]);
        assert_eq!(rf.access(1), 2);
        assert_eq!(rf.access(2), 2);
        assert_eq!(rf.access(3), 2); // stack: 3 2 1
        assert_eq!(rf.access(1), 1, "depth 3: resident only in the 3-file");
        assert_eq!(rf.access(1), 0); // stack: 1 3 2
        assert_eq!(rf.access(2), 1);
        assert_eq!(rf.access(4), 2, "new value"); // stack: 4 2 1 (3 evicted)
        assert_eq!(rf.access(3), 2, "evicted at every capacity");
        assert_eq!((rf.len_at(0), rf.len_at(1)), (2, 3));
    }
}
