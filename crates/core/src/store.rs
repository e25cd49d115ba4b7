//! Bounded snapshot store: compact serialization of factor matrices.
//!
//! The paper stresses that the online algorithm runs with "limited memory
//! usage" — only the decayed window of past results is retained. This
//! store backs that claim operationally: factor snapshots are serialized
//! to compact byte buffers and evicted FIFO beyond a configurable budget,
//! so long streams cannot grow memory without bound.

use std::collections::BTreeMap;

use bytes::Bytes;
use tgs_linalg::DenseMatrix;

use crate::codec::{Reader, Writer};

/// Serializes a dense matrix: `rows: u64 | cols: u64 | data: f64-LE…`
/// (the codec's [`Writer::matrix`] layout).
pub fn encode_matrix(m: &DenseMatrix) -> Bytes {
    let mut w = Writer::with_capacity(16 + 8 * m.as_slice().len());
    w.matrix(m);
    Bytes::from(w.finish())
}

/// Inverse of [`encode_matrix`]. Returns `None` on malformed input.
pub fn decode_matrix(bytes: Bytes) -> Option<DenseMatrix> {
    let mut r = Reader::new(bytes.as_slice());
    let m = r.matrix("matrix").ok()?;
    r.done().ok()?;
    Some(m)
}

/// A FIFO store of factor snapshots keyed by timestamp, bounded by a byte
/// budget. Every lookup, insert and removal is `O(log n)` in the
/// retained count.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    budget_bytes: usize,
    used_bytes: usize,
    /// `(timestamp, bytes)` by insertion sequence number: iteration
    /// order is insertion (eviction) order.
    entries: BTreeMap<u64, (u64, Bytes)>,
    /// Timestamp → its entry's sequence number.
    seq_of: BTreeMap<u64, u64>,
    /// Sequence number of the next new timestamp.
    next_seq: u64,
}

impl SnapshotStore {
    /// Creates a store with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            used_bytes: 0,
            entries: BTreeMap::new(),
            seq_of: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently used.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Stores a matrix under `timestamp`, evicting the oldest snapshots
    /// until the budget is met. Re-putting an existing timestamp
    /// *overwrites* it in place (the old entry's bytes are released, not
    /// double-counted). A single snapshot larger than the whole budget is
    /// still stored (the budget then holds exactly one entry).
    pub fn put(&mut self, timestamp: u64, matrix: &DenseMatrix) {
        self.push_encoded(timestamp, encode_matrix(matrix));
    }

    /// Retrieves and decodes the snapshot stored under `timestamp`.
    pub fn get(&self, timestamp: u64) -> Option<DenseMatrix> {
        let seq = self.seq_of.get(&timestamp)?;
        decode_matrix(self.entries[seq].1.clone())
    }

    /// Timestamps currently retained, in ascending timestamp order
    /// (insertion order governs eviction, not this listing).
    pub fn timestamps(&self) -> Vec<u64> {
        self.seq_of.keys().copied().collect()
    }

    /// The most recent retained snapshot (largest timestamp), decoded.
    pub fn latest(&self) -> Option<(u64, DenseMatrix)> {
        let (&t, seq) = self.seq_of.last_key_value()?;
        decode_matrix(self.entries[seq].1.clone()).map(|m| (t, m))
    }

    /// Iterates the retained `(timestamp, encoded bytes)` entries in
    /// insertion (eviction) order. `Bytes` clones are cheap reference
    /// bumps; decode on demand with [`decode_matrix`].
    pub fn iter(&self) -> impl Iterator<Item = (u64, Bytes)> + '_ {
        self.entries.values().map(|(t, b)| (*t, b.clone()))
    }

    /// Removes the snapshot stored under `timestamp`, returning whether
    /// one was present. No eviction runs (removal only frees budget) —
    /// this is the raw half of delta-checkpoint reconciliation, where a
    /// base store is edited into an exact target store.
    pub fn remove(&mut self, timestamp: u64) -> bool {
        let Some(seq) = self.seq_of.remove(&timestamp) else {
            return false;
        };
        if let Some((_, old)) = self.entries.remove(&seq) {
            self.used_bytes -= old.len();
        }
        true
    }

    /// Stores pre-encoded snapshot bytes under `timestamp` with the same
    /// overwrite/eviction semantics as [`SnapshotStore::put`] — the
    /// append half of delta-checkpoint reconciliation, replaying the
    /// bytes another store produced without a decode/encode round trip.
    pub fn push_encoded(&mut self, timestamp: u64, encoded: Bytes) {
        self.used_bytes += encoded.len();
        match self.seq_of.get(&timestamp) {
            Some(seq) => {
                let slot = self.entries.get_mut(seq).expect("indexed entry exists");
                self.used_bytes -= slot.1.len();
                slot.1 = encoded;
            }
            None => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.seq_of.insert(timestamp, seq);
                self.entries.insert(seq, (timestamp, encoded));
            }
        }
        while self.used_bytes > self.budget_bytes && self.entries.len() > 1 {
            if let Some((_, (t, old))) = self.entries.pop_first() {
                self.seq_of.remove(&t);
                self.used_bytes -= old.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    #[test]
    fn roundtrip_exact() {
        let m = DenseMatrix::from_vec(2, 3, vec![1.5, -2.0, 0.0, 3.25, 1e-9, 7.0]).unwrap();
        let decoded = decode_matrix(encode_matrix(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_matrix(Bytes::from_static(b"oops")).is_none());
        // header claims more data than present
        let mut buf = BytesMut::new();
        buf.put_u64_le(10);
        buf.put_u64_le(10);
        buf.put_f64_le(1.0);
        assert!(decode_matrix(buf.freeze()).is_none());
    }

    #[test]
    fn store_put_get() {
        let mut store = SnapshotStore::new(1 << 20);
        let m = DenseMatrix::filled(4, 3, 0.25);
        store.put(7, &m);
        assert_eq!(store.get(7).unwrap(), m);
        assert!(store.get(8).is_none());
    }

    #[test]
    fn store_evicts_oldest_beyond_budget() {
        // each 1×1 matrix costs 16 + 8 = 24 bytes
        let mut store = SnapshotStore::new(60);
        store.put(1, &DenseMatrix::filled(1, 1, 1.0));
        store.put(2, &DenseMatrix::filled(1, 1, 2.0));
        store.put(3, &DenseMatrix::filled(1, 1, 3.0));
        assert_eq!(store.timestamps(), vec![2, 3]);
        assert!(store.get(1).is_none());
        assert!(store.used_bytes() <= 60);
    }

    #[test]
    fn put_overwrites_existing_timestamp() {
        let mut store = SnapshotStore::new(1 << 20);
        store.put(5, &DenseMatrix::filled(1, 1, 1.0));
        let used_once = store.used_bytes();
        store.put(5, &DenseMatrix::filled(1, 1, 9.0));
        assert_eq!(store.len(), 1, "re-put must not duplicate the entry");
        assert_eq!(store.used_bytes(), used_once, "bytes must not double-count");
        assert_eq!(store.get(5).unwrap().get(0, 0), 9.0);
    }

    #[test]
    fn timestamps_sorted_latest_and_iter() {
        let mut store = SnapshotStore::new(1 << 20);
        store.put(9, &DenseMatrix::filled(1, 1, 9.0));
        store.put(3, &DenseMatrix::filled(1, 1, 3.0));
        store.put(6, &DenseMatrix::filled(1, 1, 6.0));
        assert_eq!(store.timestamps(), vec![3, 6, 9]);
        let (t, m) = store.latest().unwrap();
        assert_eq!(t, 9);
        assert_eq!(m.get(0, 0), 9.0);
        // iter preserves insertion order and round-trips through decode
        let decoded: Vec<(u64, f64)> = store
            .iter()
            .map(|(t, b)| (t, decode_matrix(b).unwrap().get(0, 0)))
            .collect();
        assert_eq!(decoded, vec![(9, 9.0), (3, 3.0), (6, 6.0)]);
    }

    #[test]
    fn remove_and_push_encoded_reconcile_exactly() {
        let mut a = SnapshotStore::new(1 << 20);
        a.put(1, &DenseMatrix::filled(1, 1, 1.0));
        a.put(2, &DenseMatrix::filled(1, 1, 2.0));
        a.put(3, &DenseMatrix::filled(1, 1, 3.0));
        let mut b = SnapshotStore::new(1 << 20);
        b.put(2, &DenseMatrix::filled(1, 1, 2.0));
        b.put(3, &DenseMatrix::filled(1, 1, 3.0));
        b.put(4, &DenseMatrix::filled(1, 1, 4.0));
        // Edit `a` into `b`: drop 1, append 4's encoded bytes.
        assert!(a.remove(1));
        assert!(!a.remove(1), "second removal is a no-op");
        let appended: Vec<(u64, Bytes)> = b.iter().filter(|(t, _)| *t == 4).collect();
        for (t, bytes) in appended {
            a.push_encoded(t, bytes);
        }
        let av: Vec<(u64, Bytes)> = a.iter().collect();
        let bv: Vec<(u64, Bytes)> = b.iter().collect();
        assert_eq!(av, bv, "reconciled store matches entry-for-entry");
        assert_eq!(a.used_bytes(), b.used_bytes());
    }

    #[test]
    fn push_encoded_evicts_like_put() {
        // each 1×1 matrix costs 16 + 8 = 24 bytes
        let mut store = SnapshotStore::new(60);
        for t in 1..=3u64 {
            store.push_encoded(t, encode_matrix(&DenseMatrix::filled(1, 1, t as f64)));
        }
        assert_eq!(store.timestamps(), vec![2, 3]);
        assert!(store.used_bytes() <= 60);
    }

    #[test]
    fn eviction_follows_insertion_order_through_reputs_and_removes() {
        // each 1×1 matrix costs 16 + 8 = 24 bytes: the budget holds three
        let one = |v: f64| DenseMatrix::filled(1, 1, v);
        let order = |s: &SnapshotStore| s.iter().map(|(t, _)| t).collect::<Vec<_>>();
        let mut store = SnapshotStore::new(72);
        // Out-of-order timestamps: the first inserted goes first.
        for t in [30, 10, 20, 5] {
            store.put(t, &one(t as f64));
        }
        assert_eq!(order(&store), vec![10, 20, 5]);
        assert_eq!(store.timestamps(), vec![5, 10, 20]);
        assert_eq!(store.latest().unwrap().0, 20);
        assert!(store.get(30).is_none());
        // A re-put of a retained entry keeps its place.
        store.put(10, &one(11.0));
        assert_eq!(order(&store), vec![10, 20, 5]);
        assert_eq!(store.get(10).unwrap().get(0, 0), 11.0);
        // A re-put after eviction lands at the back.
        store.put(30, &one(31.0));
        assert_eq!(order(&store), vec![20, 5, 30]);
        assert_eq!(store.get(30).unwrap().get(0, 0), 31.0);
        // A remove frees its bytes; a push then appends at the back.
        assert!(store.remove(5));
        assert_eq!((store.len(), store.used_bytes()), (2, 48));
        store.push_encoded(5, encode_matrix(&one(6.0)));
        assert_eq!(order(&store), vec![20, 30, 5]);
        assert_eq!(store.get(5).unwrap().get(0, 0), 6.0);
        assert_eq!((store.len(), store.used_bytes()), (3, 72));
    }

    #[test]
    fn store_keeps_oversized_single_entry() {
        let mut store = SnapshotStore::new(8);
        store.put(1, &DenseMatrix::filled(10, 10, 1.0));
        assert_eq!(store.len(), 1);
        assert!(store.get(1).is_some());
    }
}
