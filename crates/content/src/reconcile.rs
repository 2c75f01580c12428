//! Approximate reconciliation between a sending peer and a receiver
//! (paper §2.3, §3.2).
//!
//! The receiver installs a Bloom filter describing its working set at each
//! sending peer, together with the sequence range it currently cares about
//! and a `(row, stripe)` assignment that partitions the sequence space among
//! its senders. A sender then forwards the keys it holds that fall in the
//! range, match its assigned row, and do not appear in the filter.

use std::sync::{Arc, OnceLock};

use crate::bloom::BloomFilter;
use crate::working_set::{SetBits, WorkingSet};

/// The reconciliation state a receiver installs at one sending peer.
///
/// The Bloom filter is behind an `Arc`: a refresh tick builds one filter
/// describing the receiver's working set and installs it at *every* sending
/// peer (only the `(stripe, row)` assignment differs per sender), so the
/// per-sender requests — and the control messages carrying them through the
/// simulator — share the ~2 KB bit array instead of cloning it. Cloning a
/// request is a pointer bump; [`ReconcileRequest::wire_bytes`] still counts
/// the full filter, so modelled control traffic is unchanged.
///
/// A request is immutable once built. The sender serves it many times (every
/// peer-service tick until the next refresh), so on first use it caches its
/// *wanted mask*: one bit per sequence number of `[low, high]`, set for the
/// keys on the assigned row that the filter does not describe. Serving then
/// ANDs that mask against the sender's working set word by word instead of
/// probing the filter again. The mask depends on the request alone, never
/// on the sender's holdings, and costs one bit per sequence number of the
/// range (a receiver's working-set window).
#[derive(Clone, Debug)]
pub struct ReconcileRequest {
    filter: Arc<BloomFilter>,
    low: u64,
    high: u64,
    stripe: u64,
    row: u64,
    /// Wanted mask over `[low & !63, high]`, built on first use.
    wanted: OnceLock<Box<[u64]>>,
}

impl ReconcileRequest {
    /// Creates a request covering `[low, high]` striped over `stripe` senders
    /// with this sender owning `row`. Accepts either an owned filter or an
    /// already-shared `Arc<BloomFilter>` (the multi-sender refresh path).
    pub fn new(
        filter: impl Into<Arc<BloomFilter>>,
        low: u64,
        high: u64,
        stripe: u64,
        row: u64,
    ) -> Self {
        let stripe = stripe.max(1);
        ReconcileRequest {
            filter: filter.into(),
            low,
            high,
            stripe,
            row: row % stripe,
            wanted: OnceLock::new(),
        }
    }

    /// Bloom filter over the receiver's working set (shared across the
    /// receiver's senders; see the type docs).
    pub fn filter(&self) -> &Arc<BloomFilter> {
        &self.filter
    }

    /// Lowest sequence number the receiver is still interested in.
    pub fn low(&self) -> u64 {
        self.low
    }

    /// Highest sequence number the receiver is interested in.
    pub fn high(&self) -> u64 {
        self.high
    }

    /// Total number of senders the receiver currently has (the number of
    /// rows in its sequence matrix, Fig. 4).
    pub fn stripe(&self) -> u64 {
        self.stripe
    }

    /// The row of the matrix assigned to this sender: forward only keys with
    /// `key % stripe == row`.
    pub fn row(&self) -> u64 {
        self.row
    }

    /// Whether `key` matches this request (in range, on the assigned row, and
    /// not already described by the receiver's Bloom filter).
    pub fn wants(&self, key: u64) -> bool {
        key >= self.low
            && key <= self.high
            && key % self.stripe == self.row
            && !self.filter.contains(key)
    }

    /// The wanted mask: bit `b` of word `i` is set when
    /// `(low & !63) + 64 * i + b` is wanted (see [`Self::wants`]).
    fn wanted(&self) -> &[u64] {
        self.wanted.get_or_init(|| {
            let base = self.low & !63;
            let Some(span) = self.high.checked_sub(base) else {
                return Box::default();
            };
            let words = usize::try_from(span / 64 + 1).expect("request range fits in memory");
            let mut mask = vec![0u64; words];
            // The first key at or above `low` on the assigned row.
            let lag = self.low % self.stripe;
            let skip = if self.row >= lag {
                self.row - lag
            } else {
                self.stripe - (lag - self.row)
            };
            let mut key = self.low.checked_add(skip);
            while let Some(k) = key.filter(|&k| k <= self.high) {
                if !self.filter.contains(k) {
                    let offset = k - base;
                    mask[(offset / 64) as usize] |= 1u64 << (offset % 64);
                }
                key = k.checked_add(self.stripe);
            }
            mask.into_boxed_slice()
        })
    }

    /// Wire size of the request in bytes: the Bloom filter plus range and
    /// striping fields.
    pub fn wire_bytes(&self) -> u32 {
        self.filter.wire_bytes() + 24
    }
}

/// Computes the keys a sender holding `have` should transmit for `request`,
/// up to `limit` keys, lowest sequence numbers first.
///
/// This is the sender-side half of approximate reconciliation: the result
/// contains no keys the receiver provably has (no false negatives in the
/// Bloom filter) but may omit keys the receiver is missing if the filter
/// returned a false positive for them.
pub fn missing_keys(have: &WorkingSet, request: &ReconcileRequest, limit: usize) -> Vec<u64> {
    missing_keys_iter(have, request, limit).collect()
}

/// Iterator form of [`missing_keys`], for callers that stream the keys into
/// a reusable buffer instead of allocating a fresh `Vec` per peer-service
/// tick. Yields the set bits of the request's wanted mask ANDed with `have`.
pub fn missing_keys_iter<'a>(
    have: &'a WorkingSet,
    request: &'a ReconcileRequest,
    limit: usize,
) -> impl Iterator<Item = u64> + 'a {
    let base = request.low & !63;
    request
        .wanted()
        .iter()
        .enumerate()
        .flat_map(move |(i, &wanted)| {
            let word_base = base + 64 * i as u64;
            SetBits::new(word_base, wanted & have.word(word_base))
        })
        .take(limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_of(keys: &[u64]) -> BloomFilter {
        let mut bf = BloomFilter::for_capacity(keys.len().max(16), 0.01);
        for &k in keys {
            bf.insert(k);
        }
        bf
    }

    fn working_set_of(range: std::ops::Range<u64>) -> WorkingSet {
        let mut ws = WorkingSet::new();
        for k in range {
            ws.insert(k);
        }
        ws
    }

    #[test]
    fn sender_offers_only_missing_keys() {
        let sender = working_set_of(0..100);
        let receiver_has: Vec<u64> = (0..50).collect();
        let request = ReconcileRequest::new(filter_of(&receiver_has), 0, 99, 1, 0);
        let offered = missing_keys(&sender, &request, usize::MAX);
        // Nothing the receiver already has may be offered.
        for key in &offered {
            assert!(!receiver_has.contains(key));
        }
        // Most of 50..100 should be offered (false positives may hide a few).
        assert!(offered.len() >= 45, "offered only {} keys", offered.len());
    }

    #[test]
    fn striping_partitions_the_sequence_space() {
        let sender = working_set_of(0..100);
        let empty = BloomFilter::new(1_024, 4);
        let r0 = ReconcileRequest::new(empty.clone(), 0, 99, 4, 1);
        let offered = missing_keys(&sender, &r0, usize::MAX);
        assert!(!offered.is_empty());
        assert!(offered.iter().all(|k| k % 4 == 1));
    }

    #[test]
    fn range_bounds_are_respected() {
        let sender = working_set_of(0..1_000);
        let empty = BloomFilter::new(1_024, 4);
        let request = ReconcileRequest::new(empty, 200, 299, 1, 0);
        let offered = missing_keys(&sender, &request, usize::MAX);
        assert_eq!(offered.len(), 100);
        assert!(offered.iter().all(|&k| (200..300).contains(&k)));
    }

    #[test]
    fn limit_truncates_lowest_first() {
        let sender = working_set_of(0..100);
        let empty = BloomFilter::new(1_024, 4);
        let request = ReconcileRequest::new(empty, 0, 99, 1, 0);
        let offered = missing_keys(&sender, &request, 10);
        assert_eq!(offered, (0..10).collect::<Vec<u64>>());
    }

    /// The departed-sender recovery property behind Bullet's churn repair:
    /// while a dead sender still owns row `r` of the stripe, the keys of
    /// that row are requested from nobody else — but as soon as the
    /// receiver restripes its requests over the surviving senders, every
    /// one of those keys becomes requestable again. A stale Bloom filter
    /// (or stale row assignment) must suppress re-requests only until the
    /// next refresh, never permanently.
    #[test]
    fn restriping_after_a_departed_sender_reexposes_its_row() {
        let sender = working_set_of(0..200);
        let receiver_has: Vec<u64> = (0..40).collect();
        // Two senders: the live one owns row 0, the (about to die) one row 1.
        let live_before = ReconcileRequest::new(filter_of(&receiver_has), 0, 199, 2, 0);
        let dead_row: Vec<u64> = (40..200).filter(|k| k % 2 == 1).collect();
        let offered_before = missing_keys(&sender, &live_before, usize::MAX);
        for key in &dead_row {
            assert!(
                !offered_before.contains(key),
                "key {key} of the dead row leaked before the restripe"
            );
        }
        // Sender 1 departs; the receiver rebuilds its request with stripe 1.
        let live_after = ReconcileRequest::new(filter_of(&receiver_has), 0, 199, 1, 0);
        let offered_after = missing_keys(&sender, &live_after, usize::MAX);
        for key in &dead_row {
            assert!(
                offered_after.contains(key) || receiver_has.contains(key),
                "key {key} stayed suppressed after the restripe"
            );
        }
    }

    /// A refreshed (rebuilt) filter stops suppressing keys the receiver
    /// lost interest in advertising: re-requests resume once the stale
    /// filter is replaced, even for keys a false positive used to hide.
    #[test]
    fn filter_refresh_unsuppresses_previously_hidden_keys() {
        let sender = working_set_of(0..100);
        // A filter that (wrongly, from the receiver's perspective) claims
        // to hold everything — e.g. captured before the receiver pruned
        // its working set, or from a previous session before a rejoin.
        let all: Vec<u64> = (0..100).collect();
        let stale = ReconcileRequest::new(filter_of(&all), 0, 99, 1, 0);
        assert!(missing_keys(&sender, &stale, usize::MAX).is_empty());
        // The refreshed request carries the receiver's true (empty) state.
        let refreshed = ReconcileRequest::new(filter_of(&[]), 0, 99, 1, 0);
        assert_eq!(missing_keys(&sender, &refreshed, usize::MAX).len(), 100);
    }

    /// Per-sender requests built from one shared filter behave exactly like
    /// requests owning private copies, and cloning them must not copy the
    /// filter (the refresh-tick enqueue path is a pointer bump).
    #[test]
    fn requests_share_one_filter_across_senders() {
        let filter = Arc::new(filter_of(&(0..50).collect::<Vec<u64>>()));
        let bytes = ReconcileRequest::new(filter.clone(), 0, 99, 1, 0).wire_bytes();
        let rows: Vec<ReconcileRequest> = (0..4)
            .map(|row| ReconcileRequest::new(filter.clone(), 0, 99, 4, row))
            .collect();
        for (row, req) in rows.iter().enumerate() {
            let owned = ReconcileRequest::new(
                filter_of(&(0..50).collect::<Vec<u64>>()),
                0,
                99,
                4,
                row as u64,
            );
            for key in 0..100 {
                assert_eq!(req.wants(key), owned.wants(key), "row {row} key {key}");
            }
            assert_eq!(
                req.wire_bytes(),
                bytes,
                "wire size must count the full filter"
            );
            assert!(
                Arc::ptr_eq(req.filter(), &filter),
                "row {row} copied the filter"
            );
        }
        let cloned = rows[0].clone();
        assert!(
            Arc::ptr_eq(cloned.filter(), &filter),
            "clone copied the filter"
        );
    }

    #[test]
    fn zero_stripe_is_coerced_to_one() {
        let request = ReconcileRequest::new(BloomFilter::new(64, 2), 0, 10, 0, 5);
        assert_eq!(request.stripe(), 1);
        assert_eq!(request.row(), 0);
        assert!(request.wants(3));
    }

    #[test]
    fn wants_respects_all_three_conditions() {
        let receiver_has = [4u64];
        let request = ReconcileRequest::new(filter_of(&receiver_has), 2, 8, 2, 0);
        assert!(request.wants(6));
        assert!(!request.wants(4), "already held");
        assert!(!request.wants(5), "wrong row");
        assert!(!request.wants(10), "out of range");
    }
}
