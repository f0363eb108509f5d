//! Fragment bitsets: the compact encoding of provenance sketches (Sec. 7).
//!
//! A partition with `n` fragments is encoded as a vector of `n` bits; the
//! sketch of an (intermediate) result is the bitwise OR of the sketches of
//! the rows that produced it. The paper describes two capture optimizations
//! for this encoding (Sec. 7.3): *delay* (propagate the single set bit as an
//! integer until a merge forces materialization) and *no-copy* (merge bitsets
//! word-at-a-time in place instead of allocating intermediates); both are
//! modelled here and compared in the Fig. 12b benchmark.

use std::fmt;

/// A fixed-width bitset over partition fragments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FragmentBitset {
    nbits: usize,
    words: Vec<u64>,
}

impl FragmentBitset {
    /// An empty bitset for a partition with `nbits` fragments.
    pub fn new(nbits: usize) -> Self {
        FragmentBitset {
            nbits,
            words: vec![0; nbits.div_ceil(64)],
        }
    }

    /// A bitset with a single fragment set.
    pub fn singleton(nbits: usize, fragment: usize) -> Self {
        let mut b = FragmentBitset::new(nbits);
        b.set(fragment);
        b
    }

    /// Reconstruct a bitset from its durable state (`nbits` plus the raw
    /// `u64` words, as exposed by [`FragmentBitset::words`]). Returns `None`
    /// when the word count does not match `nbits` or a bit beyond `nbits` is
    /// set — either indicates a corrupt image.
    pub fn from_words(nbits: usize, words: Vec<u64>) -> Option<Self> {
        if words.len() != nbits.div_ceil(64) {
            return None;
        }
        if !nbits.is_multiple_of(64) {
            if let Some(last) = words.last() {
                if last >> (nbits % 64) != 0 {
                    return None;
                }
            }
        }
        Some(FragmentBitset { nbits, words })
    }

    /// The raw backing words (64 fragments per word, low bit first). The
    /// durable counterpart of [`FragmentBitset::from_words`].
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of fragments this bitset ranges over.
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// True when no fragment is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Set a fragment bit.
    pub fn set(&mut self, fragment: usize) {
        assert!(
            fragment < self.nbits,
            "fragment {fragment} out of range {}",
            self.nbits
        );
        self.words[fragment / 64] |= 1u64 << (fragment % 64);
    }

    /// Test a fragment bit.
    pub fn get(&self, fragment: usize) -> bool {
        if fragment >= self.nbits {
            return false;
        }
        self.words[fragment / 64] & (1u64 << (fragment % 64)) != 0
    }

    /// Number of fragments set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of the set fragments, ascending.
    pub fn ones(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count());
        for (wi, w) in self.words.iter().enumerate() {
            let mut word = *w;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                word &= word - 1;
            }
        }
        out
    }

    /// In-place OR with another bitset — the "no-copy" merge of Sec. 7.3,
    /// operating one machine word at a time.
    pub fn or_assign(&mut self, other: &FragmentBitset) {
        debug_assert_eq!(self.nbits, other.nbits);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// Copying OR — models the naive `bit_or` aggregate that allocates a new
    /// bitset per merged pair (the baseline in Fig. 12b). One word-wise pass
    /// over `u64` words; the byte-at-a-time variant the paper's Postgres
    /// baseline used (`or_bytewise`) is gone — allocation per merge is what
    /// distinguishes this from [`FragmentBitset::or_assign`], not the word
    /// width.
    pub fn or(&self, other: &FragmentBitset) -> FragmentBitset {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// True when every fragment set in `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &FragmentBitset) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }
}

impl fmt::Display for FragmentBitset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.nbits {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// A per-row sketch annotation during capture.
///
/// The *delay* optimization keeps single-fragment annotations as a plain
/// integer instead of a full bitset until a merge (aggregation / final BITOR)
/// forces materialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Annotation {
    /// No fragment (row of an un-partitioned relation).
    Empty,
    /// A single fragment, not yet materialized into a bitset.
    Single(u32),
    /// A materialized set of fragments.
    Bits(FragmentBitset),
}

impl Annotation {
    /// Materialize into a bitset over `nbits` fragments.
    pub fn to_bitset(&self, nbits: usize) -> FragmentBitset {
        match self {
            Annotation::Empty => FragmentBitset::new(nbits),
            Annotation::Single(i) => FragmentBitset::singleton(nbits, *i as usize),
            Annotation::Bits(b) => b.clone(),
        }
    }

    /// Merge another annotation into this one using the given strategy.
    pub fn merge(&mut self, other: &Annotation, nbits: usize, strategy: MergeStrategy) {
        match strategy {
            MergeStrategy::BytewiseBitor => {
                let a = self.to_bitset(nbits);
                let b = other.to_bitset(nbits);
                *self = Annotation::Bits(a.or(&b));
            }
            MergeStrategy::Delay => {
                // Materialize lazily, but still use copying OR for the merge.
                let merged = match (&*self, other) {
                    (Annotation::Empty, o) => o.clone(),
                    (s, Annotation::Empty) => s.clone(),
                    (a, b) => Annotation::Bits(a.to_bitset(nbits).or(&b.to_bitset(nbits))),
                };
                *self = merged;
            }
            MergeStrategy::DelayNoCopy => match (&mut *self, other) {
                (_, Annotation::Empty) => {}
                (Annotation::Empty, o) => *self = o.clone(),
                (Annotation::Bits(a), Annotation::Single(i)) => a.set(*i as usize),
                (Annotation::Bits(a), Annotation::Bits(b)) => a.or_assign(b),
                (slf, o) => {
                    let mut bits = slf.to_bitset(nbits);
                    bits.or_assign(&o.to_bitset(nbits));
                    *slf = Annotation::Bits(bits);
                }
            },
        }
    }
}

/// The annotation merge methods Fig. 12b compares. Capture always merges
/// with [`MergeStrategy::DelayNoCopy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Materialize every annotation as a bitset immediately and merge with a
    /// copying OR (the unoptimized baseline). Historically this modelled
    /// Postgres's byte-at-a-time `bit_or`; the internals are now word-wise
    /// `u64` like every other strategy, so it differs from
    /// [`MergeStrategy::Delay`]/[`MergeStrategy::DelayNoCopy`] only in its
    /// eager materialization and per-merge allocation.
    BytewiseBitor,
    /// Keep singleton annotations as integers until a merge point
    /// (the paper's *delay* method).
    Delay,
    /// Delay plus in-place word-wise merging (the paper's *no-copy* method);
    /// the one capture uses.
    DelayNoCopy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count_ones() {
        let mut b = FragmentBitset::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count(), 3);
        assert_eq!(b.ones(), vec![0, 64, 129]);
    }

    #[test]
    fn singleton_and_display_match_paper_encoding() {
        // Fragment f1 of a 4-fragment partition is encoded 1000 (Sec. 7).
        let b = FragmentBitset::singleton(4, 0);
        assert_eq!(b.to_string(), "1000");
        let b3 = FragmentBitset::singleton(4, 2);
        assert_eq!(b3.to_string(), "0010");
        assert_eq!(b.or(&b3).to_string(), "1010");
    }

    #[test]
    fn or_variants_agree() {
        let mut a = FragmentBitset::new(200);
        let mut b = FragmentBitset::new(200);
        for i in (0..200).step_by(3) {
            a.set(i);
        }
        for i in (0..200).step_by(7) {
            b.set(i);
        }
        let copying = a.or(&b);
        let mut inplace = a.clone();
        inplace.or_assign(&b);
        assert_eq!(copying, inplace);
        assert_eq!(copying.count(), copying.ones().len());
    }

    #[test]
    fn subset_relation() {
        let small = FragmentBitset::singleton(10, 3);
        let mut big = FragmentBitset::singleton(10, 3);
        big.set(7);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(FragmentBitset::new(10).is_subset_of(&small));
    }

    #[test]
    fn out_of_range_get_is_false() {
        let b = FragmentBitset::new(5);
        assert!(!b.get(100));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        FragmentBitset::new(5).set(5);
    }

    #[test]
    fn annotation_merge_strategies_agree_on_result() {
        let nbits = 96;
        for strategy in [
            MergeStrategy::BytewiseBitor,
            MergeStrategy::Delay,
            MergeStrategy::DelayNoCopy,
        ] {
            let mut acc = Annotation::Empty;
            for i in [3u32, 7, 3, 90, 41] {
                acc.merge(&Annotation::Single(i), nbits, strategy);
            }
            let bits = acc.to_bitset(nbits);
            assert_eq!(bits.ones(), vec![3, 7, 41, 90], "strategy {strategy:?}");
        }
    }

    #[test]
    fn delay_keeps_single_until_merge() {
        let mut acc = Annotation::Empty;
        acc.merge(&Annotation::Single(5), 64, MergeStrategy::DelayNoCopy);
        assert_eq!(acc, Annotation::Single(5));
        acc.merge(&Annotation::Single(6), 64, MergeStrategy::DelayNoCopy);
        assert!(matches!(acc, Annotation::Bits(_)));
        assert_eq!(acc.to_bitset(64).ones(), vec![5, 6]);
    }

    #[test]
    fn empty_annotation_is_identity_for_merge() {
        let mut acc = Annotation::Single(2);
        acc.merge(&Annotation::Empty, 8, MergeStrategy::DelayNoCopy);
        assert_eq!(acc.to_bitset(8).ones(), vec![2]);
    }
}
