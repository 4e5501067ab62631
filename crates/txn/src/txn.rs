//! Transactions over sharded keys.
//!
//! A transaction body is laid out once and then only read: the client
//! builds it, every participant decodes it, shards walk it at prepare and
//! at finish, the audit keeps it. Its read and write sets are therefore
//! [`FlatMap`]s — one sorted, deduplicated run of `(Key, V)` pairs each,
//! a single allocation of exactly the pairs (none when empty) — offering
//! the `BTreeMap` calls the workspace uses. Sorted means *canonical*:
//! equal transactions encode to equal bytes, and the participant shards
//! fall out of one merge pass over the two key runs
//! ([`Transaction::shard_iter`]).

use ac_sim::wire::MAX_WIRE_ELEMS;
use ac_sim::{wire_enum, wire_struct, Wire, WireError};

/// A key: `(shard, key-within-shard)`. Sharding is explicit so workloads can
//  control cross-shard spans precisely.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// Owning shard.
    pub shard: usize,
    /// Key within the shard.
    pub k: u64,
}

impl Key {
    /// Key `k` on `shard`.
    pub fn new(shard: usize, k: u64) -> Key {
        Key { shard, k }
    }
}

/// Transaction identifier.
pub type TxnId = u64;

/// A write effect. `Put` installs a value (blind write); `Add` increments
/// the current value (read-modify-write, e.g. a debit/credit), which is
/// what makes transfer workloads conserve money under concurrency.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Install the value (blind write).
    Put(i64),
    /// Increment the current value (read-modify-write).
    Add(i64),
}

/// A map from [`Key`] to `V` stored as one run of pairs in ascending key
/// order, each key once. Lookups are binary searches, iteration is a
/// slice walk, and inserting into the middle shifts the tail — the right
/// trade for read and write sets of a handful of keys that are built once
/// and read many times.
#[derive(Clone, PartialEq, Eq)]
pub struct FlatMap<V> {
    /// Strictly ascending by key.
    pairs: Vec<(Key, V)>,
}

impl<V> Default for FlatMap<V> {
    fn default() -> Self {
        FlatMap::new()
    }
}

/// Borrowing iterator over a [`FlatMap`], ascending by key.
pub type Iter<'a, V> =
    std::iter::Map<std::slice::Iter<'a, (Key, V)>, fn(&'a (Key, V)) -> (&'a Key, &'a V)>;

impl<V> FlatMap<V> {
    /// An empty map (no allocation).
    pub fn new() -> FlatMap<V> {
        FlatMap { pairs: Vec::new() }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the map holds no key.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Map `key` to `value`, returning the value it replaces, if any.
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        // Keys mostly arrive ascending (a canonical encoding, a generator
        // walking shards in order): the append case skips the search.
        if self.pairs.last().is_none_or(|(last, _)| *last < key) {
            self.pairs.push((key, value));
            return None;
        }
        match self.pairs.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut self.pairs[i].1, value)),
            Err(i) => {
                self.pairs.insert(i, (key, value));
                None
            }
        }
    }

    /// The value `key` maps to.
    pub fn get(&self, key: &Key) -> Option<&V> {
        let i = self.pairs.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
        Some(&self.pairs[i].1)
    }

    /// `(key, value)` pairs, ascending by key.
    pub fn iter(&self) -> Iter<'_, V> {
        self.pairs.iter().map(|(k, v)| (k, v))
    }

    /// Keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.pairs.iter().map(|(k, _)| k)
    }

    /// Values, in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.pairs.iter().map(|(_, v)| v)
    }
}

impl<'a, V> IntoIterator for &'a FlatMap<V> {
    type Item = (&'a Key, &'a V);
    type IntoIter = Iter<'a, V>;
    fn into_iter(self) -> Iter<'a, V> {
        self.iter()
    }
}

impl<V> FromIterator<(Key, V)> for FlatMap<V> {
    /// Later pairs replace earlier ones with the same key.
    fn from_iter<I: IntoIterator<Item = (Key, V)>>(iter: I) -> Self {
        let mut map = FlatMap::new();
        for (key, value) in iter {
            map.insert(key, value);
        }
        map
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for FlatMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// `u32` pair count, then the pairs in ascending key order — the bytes of
/// the `Vec<(Key, V)>` a `BTreeMap` iterates to.
impl<V: Wire> Wire for FlatMap<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.pairs.len() as u32).encode(buf);
        for (k, v) in &self.pairs {
            k.encode(buf);
            v.encode(buf);
        }
    }

    /// Builds the map straight from the input. Bytes need not be
    /// canonical: pairs out of order are sorted in and a repeated key
    /// keeps its **last** value, which is what collecting the pairs into
    /// a `BTreeMap` yielded — so every input decodes to the value it
    /// always decoded to, and re-encodes canonically.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = u32::decode(buf)?;
        if n > MAX_WIRE_ELEMS {
            return Err(WireError::Invalid("map length over sanity cap"));
        }
        // Exact for any honest input; a lying length prefix reserves at
        // most 1024 pairs before the input runs out.
        let mut map = FlatMap {
            pairs: Vec::with_capacity(n.min(1024) as usize),
        };
        for _ in 0..n {
            let key = Key::decode(buf)?;
            map.insert(key, V::decode(buf)?);
        }
        Ok(map)
    }
}

/// A read-write transaction: reads are validated against the versions seen
/// at execute time; writes install new values on commit.
#[derive(Clone, Debug, Default)]
pub struct Transaction {
    /// Unique transaction id.
    pub id: TxnId,
    /// Key -> version observed when the transaction executed.
    pub reads: FlatMap<u64>,
    /// Key -> write effect.
    pub writes: FlatMap<WriteOp>,
}

impl Transaction {
    /// An empty transaction with id `id`.
    pub fn new(id: TxnId) -> Transaction {
        Transaction {
            id,
            reads: FlatMap::new(),
            writes: FlatMap::new(),
        }
    }

    /// Record a read of `key` at `version` (builder style).
    pub fn with_read(mut self, key: Key, version: u64) -> Transaction {
        self.reads.insert(key, version);
        self
    }

    /// Record a blind write of `value` to `key` (builder style).
    pub fn with_write(mut self, key: Key, value: i64) -> Transaction {
        self.writes.insert(key, WriteOp::Put(value));
        self
    }

    /// Record an increment of `key` by `delta` (builder style).
    pub fn with_add(mut self, key: Key, delta: i64) -> Transaction {
        self.writes.insert(key, WriteOp::Add(delta));
        self
    }

    /// The distinct shards this transaction touches, ascending: one merge
    /// pass over the two sorted key runs, no allocation.
    pub fn shard_iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut reads = self.reads.keys().map(|k| k.shard).peekable();
        let mut writes = self.writes.keys().map(|k| k.shard).peekable();
        let mut last = None;
        std::iter::from_fn(move || loop {
            let shard = match (reads.peek(), writes.peek()) {
                (Some(r), Some(w)) if r <= w => reads.next(),
                (Some(_), None) => reads.next(),
                _ => writes.next(),
            }?;
            if last.replace(shard) != Some(shard) {
                return Some(shard);
            }
        })
    }

    /// The distinct shards this transaction touches, ascending.
    pub fn shards(&self) -> Vec<usize> {
        self.shard_iter().collect()
    }

    /// Whether a shard participates in this transaction.
    pub fn touches(&self, shard: usize) -> bool {
        self.reads
            .keys()
            .chain(self.writes.keys())
            .any(|k| k.shard == shard)
    }
}

wire_struct!(Key { shard, k });

wire_enum!(WriteOp { 0 => Put(v), 1 => Add(d) });

// The maps are sorted, so equal transactions encode to equal bytes.
wire_struct!(Transaction { id, reads, writes });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_deduplicated_and_sorted() {
        let t = Transaction::new(1)
            .with_read(Key::new(2, 0), 0)
            .with_write(Key::new(0, 1), 5)
            .with_write(Key::new(2, 3), 7);
        assert_eq!(t.shards(), vec![0, 2]);
        assert!(t.touches(0));
        assert!(t.touches(2));
        assert!(!t.touches(1));
    }
}
