//! Dirty-tracking worklists for the active-set stepping of
//! [`crate::Network`].
//!
//! Each per-cycle pipeline stage used to scan every router (× 5 ports × 4
//! VCs), every link slot or every injection queue, making `step()` cost
//! O(mesh size) even on a completely quiet chip. The stages now walk an
//! [`ActiveSet`] — a fixed-size bitset over router/link/node indices kept
//! up to date *incrementally* as flits move — so the work per cycle is
//! proportional to activity.
//!
//! Determinism is the design constraint: the dense loops visited indices in
//! ascending order, and everything order-sensitive (ejection order, trace
//! events, round-robin pointers) depends on that. A bitset iterated
//! word-by-word, lowest set bit first, reproduces exactly that ascending
//! order, unlike an insertion-ordered worklist which would need re-sorting
//! every cycle.
//!
//! A stage walks a worklist by copying one 64-bit word at a time
//! ([`ActiveSet::word`]) and iterating the copy with [`BitsIter`]. The copy
//! is what lets the stage mutate the set while walking it; it equals a
//! whole-set snapshot taken at stage entry because every stage only ever
//! *removes the index it is currently visiting* from the set it walks
//! (switch traversal retires the router it just drained, link delivery the
//! link it just emptied, injection the queue it just finished), so no
//! not-yet-copied word changes under the walk.

/// A fixed-capacity bitset over `0..len` with O(1) insert/remove/contains,
/// an O(1) emptiness check, and ascending-order word-copy iteration.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally.
    count: usize,
}

impl ActiveSet {
    /// An empty set with capacity for indices `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        ActiveSet {
            words: vec![0; len.div_ceil(64)],
            count: 0,
        }
    }

    /// Marks `index` active. Idempotent.
    #[inline]
    pub(crate) fn insert(&mut self, index: usize) {
        let word = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        self.count += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Marks `index` inactive. Idempotent.
    #[inline]
    pub(crate) fn remove(&mut self, index: usize) {
        let word = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        self.count -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    /// Whether no index is active.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of active indices. O(1) — maintained incrementally.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Number of 64-bit words; word `w` covers indices `w * 64 ..`.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// A copy of word `w`: bit `b` set iff index `w * 64 + b` is active.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Clears word `w` and returns what it held — "visit and retire" for a
    /// stage that empties every index it walks.
    #[inline]
    pub(crate) fn take_word(&mut self, w: usize) -> u64 {
        let bits = std::mem::take(&mut self.words[w]);
        self.count -= bits.count_ones() as usize;
        bits
    }

    /// Snapshots the active indices into `out` (cleared first) in ascending
    /// order. Only the debug-build invariant auditor (and tests) use it;
    /// the pipeline stages walk word copies instead.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn snapshot_into(&self, out: &mut Vec<u32>) {
        out.clear();
        if self.count == 0 {
            return;
        }
        for (wi, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push(wi as u32 * 64 + b);
                bits &= bits - 1;
            }
        }
        debug_assert_eq!(out.len(), self.count, "active-set count drifted");
    }
}

/// Iterates the set bits of one word, lowest index first.
#[derive(Debug, Clone)]
pub(crate) struct BitsIter(pub(crate) u64);

impl Iterator for BitsIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_idempotent() {
        let mut s = ActiveSet::new(200);
        assert!(s.is_empty());
        s.insert(7);
        s.insert(7);
        s.insert(199);
        assert!(!s.is_empty());
        s.remove(7);
        s.remove(7);
        assert!(!s.is_empty());
        s.remove(199);
        assert!(s.is_empty());
    }

    #[test]
    fn snapshot_is_ascending() {
        let mut s = ActiveSet::new(300);
        for i in [250usize, 0, 63, 64, 65, 128, 1] {
            s.insert(i);
        }
        let mut out = Vec::new();
        s.snapshot_into(&mut out);
        assert_eq!(out, vec![0, 1, 63, 64, 65, 128, 250]);
    }

    #[test]
    fn snapshot_clears_previous_contents() {
        let mut s = ActiveSet::new(10);
        s.insert(3);
        let mut out = vec![9, 9, 9];
        s.snapshot_into(&mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn word_copies_walk_the_snapshot_order_and_take_word_retires() {
        let mut s = ActiveSet::new(300);
        for i in [250usize, 0, 63, 64, 65, 128, 1] {
            s.insert(i);
        }
        let mut snap = Vec::new();
        s.snapshot_into(&mut snap);
        let mut walked = Vec::new();
        for w in 0..s.words() {
            for b in BitsIter(s.word(w)) {
                // Removing the index being visited must not disturb the walk.
                s.remove(w * 64 + b);
                walked.push((w * 64 + b) as u32);
            }
        }
        assert_eq!(walked, snap);
        assert!(s.is_empty());
        s.insert(70);
        s.insert(100);
        s.insert(5);
        assert_eq!(s.take_word(1), (1 << 6) | (1 << 36));
        assert_eq!(s.len(), 1);
        assert_eq!(s.word(1), 0);
    }

    #[test]
    fn bits_iter_ascending() {
        let got: Vec<usize> = BitsIter(0b1010_0101).collect();
        assert_eq!(got, vec![0, 2, 5, 7]);
        assert_eq!(BitsIter(0).next(), None);
        assert_eq!(BitsIter(1 << 63).collect::<Vec<_>>(), vec![63]);
    }
}
