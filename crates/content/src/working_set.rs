//! Working sets (paper §2.3, §3.1).
//!
//! Each node maintains a *working set*: the sequence numbers of packets it
//! has received over some recent window. The working set backs the node's
//! summary ticket and Bloom filter, and is pruned as old packets stop being
//! useful for reconstruction so that the Bloom filter's population stays
//! bounded.
//!
//! The set is a sliding-window bitmap: one bit per sequence number between
//! the oldest and the newest held, in 64-bit words at a 64-aligned base. A
//! stream fills the window densely and pruning only ever cuts it from below,
//! so inserts, lookups and prunes are word operations and iteration walks
//! set bits in increasing order. Callers can AND against the raw words
//! ([`WorkingSet::word`]), which is how reconciliation intersects a
//! receiver's wanted keys with what a sender holds.

use std::collections::vec_deque;
use std::collections::VecDeque;

/// A set of received packet sequence numbers over a sliding window.
///
/// Memory is one bit per sequence number spanned by the held elements, so
/// the window must stay bounded (Bullet prunes it every housekeeping tick).
#[derive(Clone, Debug, Default)]
pub struct WorkingSet {
    /// Bit `b` of `words[i]` marks sequence number `base + 64 * i + b`.
    /// When non-empty, the first and last words are non-zero, so the
    /// extremes are read off the two ends.
    words: VecDeque<u64>,
    /// Sequence number of bit 0 of `words[0]`; a multiple of 64.
    base: u64,
    /// Number of set bits.
    len: usize,
    /// Sequence numbers below this have been pruned and are no longer
    /// represented (they may or may not have been received).
    low_watermark: u64,
}

impl WorkingSet {
    /// Creates an empty working set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the word holding `seq`, if it lies inside the window.
    fn index_of(&self, seq: u64) -> Option<usize> {
        let offset = seq.checked_sub(self.base)? / 64;
        usize::try_from(offset)
            .ok()
            .filter(|&i| i < self.words.len())
    }

    /// Inserts a received sequence number. Returns `true` if it was new.
    ///
    /// Sequence numbers below the low watermark are ignored: they fall
    /// outside the window the node still cares about.
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq < self.low_watermark {
            return false;
        }
        let word_base = seq & !63;
        if self.words.is_empty() {
            self.base = word_base;
            self.words.push_back(0);
        } else if word_base < self.base {
            let extra = (self.base - word_base) / 64;
            for _ in 0..extra {
                self.words.push_front(0);
            }
            self.base = word_base;
        }
        let index = usize::try_from((word_base - self.base) / 64)
            .expect("the window spans fewer than usize::MAX words");
        if index >= self.words.len() {
            self.words.resize(index + 1, 0);
        }
        let bit = 1u64 << (seq & 63);
        let word = &mut self.words[index];
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        true
    }

    /// Whether `seq` is present in the working set.
    pub fn contains(&self, seq: u64) -> bool {
        self.index_of(seq)
            .is_some_and(|i| self.words[i] & (1u64 << (seq & 63)) != 0)
    }

    /// The 64 membership bits for sequence numbers
    /// `[word_base, word_base + 64)`: bit `b` is set when
    /// `word_base + b` is held. `word_base` must be a multiple of 64;
    /// words outside the window are zero.
    pub fn word(&self, word_base: u64) -> u64 {
        debug_assert_eq!(word_base % 64, 0, "word_base must be 64-aligned");
        self.index_of(word_base).map_or(0, |i| self.words[i])
    }

    /// Number of sequence numbers currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the working set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The smallest sequence number still held, if any.
    pub fn min_seq(&self) -> Option<u64> {
        let &first = self.words.front()?;
        Some(self.base + u64::from(first.trailing_zeros()))
    }

    /// The largest sequence number held, if any.
    pub fn max_seq(&self) -> Option<u64> {
        let &last = self.words.back()?;
        let last_base = self.base + 64 * (self.words.len() as u64 - 1);
        Some(last_base + 63 - u64::from(last.leading_zeros()))
    }

    /// The window `(low, high)` of sequence numbers this node currently cares
    /// about: `low` is the pruning watermark, `high` the largest received.
    pub fn range(&self) -> (u64, u64) {
        (
            self.low_watermark,
            self.max_seq().unwrap_or(self.low_watermark),
        )
    }

    /// The low watermark (lowest sequence number still represented).
    pub fn low_watermark(&self) -> u64 {
        self.low_watermark
    }

    /// Removes all sequence numbers below `low` and raises the watermark.
    ///
    /// This is the "removing older items that are not needed for data
    /// reconstruction" step the paper describes; it bounds both memory and
    /// the Bloom filter population.
    pub fn prune_below(&mut self, low: u64) {
        if low <= self.low_watermark {
            return;
        }
        self.low_watermark = low;
        if low <= self.base {
            return;
        }
        let whole = usize::try_from((low - self.base) / 64)
            .map_or(self.words.len(), |n| n.min(self.words.len()));
        for word in self.words.drain(..whole) {
            self.len -= word.count_ones() as usize;
        }
        self.base += 64 * whole as u64;
        if let Some(first) = self.words.front_mut() {
            // `low` now falls inside the first word.
            let keep = !0u64 << (low - self.base);
            self.len -= (*first & !keep).count_ones() as usize;
            *first &= keep;
        }
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += 64;
        }
    }

    /// The held sequence number with exactly `n` newer ones above it.
    fn nth_newest(&self, n: usize) -> Option<u64> {
        let mut remaining = n;
        for (i, &word) in self.words.iter().enumerate().rev() {
            let ones = word.count_ones() as usize;
            if remaining < ones {
                let mut word = word;
                for _ in 0..remaining {
                    word &= !(1u64 << (63 - word.leading_zeros()));
                }
                let word_base = self.base + 64 * i as u64;
                return Some(word_base + 63 - u64::from(word.leading_zeros()));
            }
            remaining -= ones;
        }
        None
    }

    /// Keeps only the most recent `max_len` sequence numbers, pruning older
    /// ones. `max_len == 0` empties the set and raises the watermark past
    /// the newest held sequence number. Returns the new low watermark.
    pub fn prune_to_len(&mut self, max_len: usize) -> u64 {
        if self.len > max_len {
            let cutoff = if max_len == 0 {
                self.max_seq()
                    .expect("set is non-empty when len > max_len")
                    .saturating_add(1)
            } else {
                self.nth_newest(max_len - 1).expect("len checked above")
            };
            self.prune_below(cutoff);
        }
        self.low_watermark
    }

    /// Iterates over held sequence numbers in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter_range(0, u64::MAX)
    }

    /// Sequence numbers in `[low, high]`, in increasing order.
    pub fn iter_range(&self, low: u64, high: u64) -> impl Iterator<Item = u64> + '_ {
        let empty = RangeBits {
            words: self.words.range(..0),
            bits: SetBits::default(),
            last_mask: 0,
        };
        let Some(max) = self.max_seq() else {
            return empty;
        };
        let (low, high) = (low.max(self.base), high.min(max));
        if low > high {
            return empty;
        }
        let first = ((low - self.base) / 64) as usize;
        let last = ((high - self.base) / 64) as usize;
        let mut words = self.words.range(first..=last);
        let last_mask = !0u64 >> (63 - (high & 63));
        let mut word = words.next().copied().unwrap_or(0) & (!0u64 << (low & 63));
        if first == last {
            word &= last_mask;
        }
        RangeBits {
            words,
            bits: SetBits::new(self.base + 64 * first as u64, word),
            last_mask,
        }
    }

    /// Counts missing sequence numbers in `[low, high]` (gaps in the set).
    pub fn missing_in_range(&self, low: u64, high: u64) -> u64 {
        if high < low {
            return 0;
        }
        let span = high - low + 1;
        let held = self.iter_range(low, high).count() as u64;
        span - held
    }
}

/// The set bits of one bitmap word, as sequence numbers in increasing
/// order.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SetBits {
    /// Sequence number of bit 0.
    word_base: u64,
    /// Bits not yet yielded.
    bits: u64,
}

impl SetBits {
    /// The set bits of `bits`, where bit 0 stands for `word_base`.
    pub(crate) fn new(word_base: u64, bits: u64) -> Self {
        SetBits { word_base, bits }
    }
}

impl Iterator for SetBits {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.bits == 0 {
            return None;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.word_base + u64::from(bit))
    }
}

/// The set bits of a run of window words, the last one masked to the
/// range's upper bound.
struct RangeBits<'a> {
    /// Words after the current one.
    words: vec_deque::Iter<'a, u64>,
    /// The current word's remaining bits.
    bits: SetBits,
    /// Mask applied to the final word.
    last_mask: u64,
}

impl Iterator for RangeBits<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if let Some(seq) = self.bits.next() {
                return Some(seq);
            }
            let &word = self.words.next()?;
            let word = if self.words.len() == 0 {
                word & self.last_mask
            } else {
                word
            };
            self.bits = SetBits::new(self.bits.word_base + 64, word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut ws = WorkingSet::new();
        assert!(ws.insert(5));
        assert!(!ws.insert(5));
        assert!(ws.contains(5));
        assert!(!ws.contains(6));
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn range_tracks_extremes() {
        let mut ws = WorkingSet::new();
        for seq in [10, 3, 7, 20] {
            ws.insert(seq);
        }
        assert_eq!(ws.min_seq(), Some(3));
        assert_eq!(ws.max_seq(), Some(20));
        assert_eq!(ws.range(), (0, 20));
    }

    #[test]
    fn prune_below_discards_and_blocks_reinsertion() {
        let mut ws = WorkingSet::new();
        for seq in 0..100 {
            ws.insert(seq);
        }
        ws.prune_below(50);
        assert_eq!(ws.len(), 50);
        assert!(!ws.contains(10));
        assert!(!ws.insert(10), "pruned seqs must not be reinserted");
        assert_eq!(ws.low_watermark(), 50);
        assert_eq!(ws.range(), (50, 99));
    }

    #[test]
    fn prune_to_len_keeps_newest() {
        let mut ws = WorkingSet::new();
        for seq in 0..1_000 {
            ws.insert(seq);
        }
        ws.prune_to_len(100);
        assert_eq!(ws.len(), 100);
        assert_eq!(ws.min_seq(), Some(900));
        assert_eq!(ws.max_seq(), Some(999));
    }

    #[test]
    fn prune_to_len_zero_empties_without_panicking() {
        // Regression: `max_len - 1` underflowed and panicked for max_len=0.
        let mut ws = WorkingSet::new();
        for seq in 10..20 {
            ws.insert(seq);
        }
        let watermark = ws.prune_to_len(0);
        assert!(ws.is_empty());
        assert_eq!(watermark, 20, "watermark passes the newest pruned seq");
        assert!(!ws.insert(19), "pruned seqs stay pruned");
        assert!(ws.insert(20), "new seqs above the watermark are accepted");

        // On an empty set it is a no-op.
        let mut empty = WorkingSet::new();
        assert_eq!(empty.prune_to_len(0), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn missing_in_range_counts_gaps() {
        let mut ws = WorkingSet::new();
        for seq in [0, 1, 2, 5, 9] {
            ws.insert(seq);
        }
        assert_eq!(ws.missing_in_range(0, 9), 5);
        assert_eq!(ws.missing_in_range(0, 2), 0);
        assert_eq!(ws.missing_in_range(9, 0), 0);
    }

    #[test]
    fn iter_range_is_ordered_and_bounded() {
        let mut ws = WorkingSet::new();
        for seq in [8, 2, 6, 4, 10] {
            ws.insert(seq);
        }
        let got: Vec<u64> = ws.iter_range(3, 9).collect();
        assert_eq!(got, vec![4, 6, 8]);
    }

    #[test]
    fn window_grows_in_both_directions_across_words() {
        let mut ws = WorkingSet::new();
        for seq in [200, 70, 500, 0, 63, 64] {
            assert!(ws.insert(seq));
        }
        assert_eq!(ws.iter().collect::<Vec<_>>(), vec![0, 63, 64, 70, 200, 500]);
        assert_eq!(
            ws.iter_range(63, 200).collect::<Vec<_>>(),
            vec![63, 64, 70, 200]
        );
        assert_eq!(ws.word(64), (1 << 0) | (1 << 6));
        assert_eq!(ws.word(1 << 20), 0, "words outside the window are empty");
        ws.prune_below(65);
        assert_eq!(ws.min_seq(), Some(70));
        assert_eq!(ws.len(), 3);
        assert_eq!(ws.word(0), 0);
    }

    #[test]
    fn prune_to_len_counts_across_words() {
        let mut ws = WorkingSet::new();
        for seq in (0..400).step_by(3) {
            ws.insert(seq);
        }
        ws.prune_to_len(50);
        assert_eq!(ws.len(), 50);
        assert_eq!(ws.min_seq(), Some(399 - 49 * 3));
        assert_eq!(ws.low_watermark(), 399 - 49 * 3);
    }
}
