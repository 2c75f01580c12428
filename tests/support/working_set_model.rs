//! Reference model of the working set.
//!
//! A plain `BTreeSet` with the library `WorkingSet`'s documented semantics:
//! a low watermark below which inserts are refused, pruning by watermark or
//! to the newest `n` elements, and ordered iteration. The property tests
//! drive it side by side with the bitmap implementation and compare every
//! observable after every step.

use std::collections::BTreeSet;

/// The reference working set.
#[derive(Clone, Debug, Default)]
pub struct ModelWorkingSet {
    seqs: BTreeSet<u64>,
    low_watermark: u64,
}

impl ModelWorkingSet {
    pub fn insert(&mut self, seq: u64) -> bool {
        seq >= self.low_watermark && self.seqs.insert(seq)
    }

    pub fn contains(&self, seq: u64) -> bool {
        self.seqs.contains(&seq)
    }

    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    pub fn min_seq(&self) -> Option<u64> {
        self.seqs.first().copied()
    }

    pub fn max_seq(&self) -> Option<u64> {
        self.seqs.last().copied()
    }

    pub fn low_watermark(&self) -> u64 {
        self.low_watermark
    }

    pub fn prune_below(&mut self, low: u64) {
        if low > self.low_watermark {
            self.seqs = self.seqs.split_off(&low);
            self.low_watermark = low;
        }
    }

    pub fn prune_to_len(&mut self, max_len: usize) -> u64 {
        if self.seqs.len() > max_len {
            let cutoff = match max_len {
                0 => self.max_seq().expect("non-empty").saturating_add(1),
                n => *self.seqs.iter().rev().nth(n - 1).expect("len checked"),
            };
            self.prune_below(cutoff);
        }
        self.low_watermark
    }

    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.seqs.iter().copied()
    }

    /// Elements in `[low, high]`; empty when `low > high`.
    pub fn iter_range(&self, low: u64, high: u64) -> Vec<u64> {
        if low > high {
            return Vec::new();
        }
        self.seqs.range(low..=high).copied().collect()
    }

    pub fn missing_in_range(&self, low: u64, high: u64) -> u64 {
        if high < low {
            return 0;
        }
        high - low + 1 - self.iter_range(low, high).len() as u64
    }
}
