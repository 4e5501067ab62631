//! Slab: a `u64 → T` map tuned for the live service's hot path.
//!
//! A node looks one of these up for **every envelope** (instance id →
//! automaton, transaction id → route) and its shard several times per
//! transaction (key → cell, key → lock, transaction → lock stamp). `std`'s
//! `HashMap` pays SipHash on every probe and scatters entries across a
//! large table; an ordered map pays a tree walk and a node allocation
//! every few inserts. This slab keeps the values in a **dense `Vec`**
//! (slots recycled through a free list, so long-running services stay
//! compact) and resolves `id → dense index` through a minimal
//! open-addressing table hashed with a SplitMix64 finalizer — a couple of
//! multiplies instead of a full SipHash permutation. Removal shifts the
//! probe run back instead of leaving a tombstone, so a bounded working
//! set under endless insert/remove churn never rebuilds the table, a miss
//! stops at the first empty cell, and steady state allocates nothing. The
//! table doubles (re-placing every cell by its stored hash) when live
//! entries pass 3/4 of it; it is never pre-sized.
//!
//! Identifiers are arbitrary `u64`s: transaction ids arrive in whatever
//! order the network delivers them (a peer's vote envelope can outrun the
//! client's `Begin`), so there is no dense-key fast path to exploit — the
//! fast-hash table IS the lookup path for out-of-order and in-order ids
//! alike. Nothing here has an order: iteration and `Debug` follow the
//! table.
//!
//! It lives in `ac-sim`, at the bottom of the crate graph, because both
//! `ac-runtime` (which re-exports it) and `ac-txn` use it.

/// Slot value marking an empty index cell.
const EMPTY: u32 = u32::MAX;

/// SplitMix64 finalizer: a fast, well-mixed `u64 → u64` hash (the same
/// mixer the vendored `rand` seeds with).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One index cell: a key, the dense slab index it maps to (`EMPTY` when
/// the cell is free) and the low half of the key's hash, kept so that
/// neither a removal's shift nor a table doubling re-hashes anything.
#[derive(Copy, Clone)]
struct Cell {
    key: u64,
    value: u32,
    hash: u32,
}

/// Open-addressing `u64 → u32` index with linear probing and
/// **backward-shift deletion**: a removal closes the gap it leaves by
/// moving later members of the probe run back, so the table holds live
/// entries and empty cells only. Insert/remove churn over a bounded
/// working set therefore never rebuilds the table — the capacity doubles
/// only when live entries pass 3/4 of it, and steady state allocates
/// nothing.
#[derive(Clone)]
struct FastIndex {
    cells: Vec<Cell>,
    /// Power-of-two capacity minus one (below 2³², so a cell's stored
    /// half-hash names its home cell).
    mask: usize,
    /// Live entries.
    len: usize,
}

impl FastIndex {
    fn with_capacity_pow2(cap: usize) -> FastIndex {
        assert!(cap.is_power_of_two() && cap <= 1 << 32);
        let free = Cell {
            key: 0,
            value: EMPTY,
            hash: 0,
        };
        FastIndex {
            cells: vec![free; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// The cell holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mut i = mix(key) as usize & self.mask;
        loop {
            let cell = &self.cells[i];
            if cell.value == EMPTY {
                return None;
            }
            if cell.key == key {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn get(&self, key: u64) -> Option<u32> {
        self.find(key).map(|i| self.cells[i].value)
    }

    /// Insert `key → value`; the caller guarantees `key` is absent.
    fn insert(&mut self, key: u64, value: u32) {
        debug_assert!(value != EMPTY);
        if (self.len + 1) * 4 > self.cells.len() * 3 {
            self.grow();
        }
        let hash = mix(key) as u32;
        self.place(Cell { key, value, hash });
        self.len += 1;
    }

    /// Put `cell` into the first free cell of its probe run.
    #[inline]
    fn place(&mut self, cell: Cell) {
        let mut i = cell.hash as usize & self.mask;
        while self.cells[i].value != EMPTY {
            debug_assert!(self.cells[i].key != cell.key, "duplicate key");
            i = (i + 1) & self.mask;
        }
        self.cells[i] = cell;
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        let mut hole = self.find(key)?;
        let value = self.cells[hole].value;
        // Close the gap: a later member of the run moves back into the
        // hole unless its home cell lies after the hole (cyclically), in
        // which case a probe for it never crosses the hole.
        let mut j = (hole + 1) & self.mask;
        while self.cells[j].value != EMPTY {
            let home = self.cells[j].hash as usize & self.mask;
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.cells[hole] = self.cells[j];
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.cells[hole].value = EMPTY;
        self.len -= 1;
        Some(value)
    }

    /// Double the table (live entries passed 3/4 of it).
    fn grow(&mut self) {
        let bigger = FastIndex::with_capacity_pow2(self.cells.len() * 2);
        let old = std::mem::replace(&mut self.cells, bigger.cells);
        self.mask = bigger.mask;
        for cell in old {
            if cell.value != EMPTY {
                self.place(cell);
            }
        }
    }
}

/// A dense, free-list-recycling map from `u64` ids to `T` — the
/// demultiplexer's state store, the node's transaction table, the shard's
/// key → cell and key → lock tables. See the module docs for the design.
#[derive(Clone)]
pub struct Slab<T> {
    /// Dense storage; `None` cells are on the free list.
    entries: Vec<Option<T>>,
    /// Recycled indices, reused LIFO (hot cache lines first).
    free: Vec<u32>,
    /// `u64 → entries index`.
    index: FastIndex,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            index: FastIndex::with_capacity_pow2(16),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether the slab holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: u64) -> bool {
        self.index.get(id).is_some()
    }

    /// Insert `value` under `id`, returning the dense index it landed on.
    /// `id` must not already be present (checked in debug builds).
    pub fn insert(&mut self, id: u64, value: T) -> usize {
        debug_assert!(!self.contains(id), "instance id inserted twice");
        let idx = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = Some(value);
                i
            }
            None => {
                self.entries.push(Some(value));
                (self.entries.len() - 1) as u32
            }
        };
        self.index.insert(id, idx);
        idx as usize
    }

    /// Shared access to `id`'s entry.
    pub fn get(&self, id: u64) -> Option<&T> {
        let idx = self.index.get(id)?;
        self.entries[idx as usize].as_ref()
    }

    /// Mutable access to `id`'s entry.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let idx = self.index.get(id)?;
        self.entries[idx as usize].as_mut()
    }

    /// Mutable access to `id`'s entry, inserting `make()` first when `id`
    /// is absent (`BTreeMap::entry(..).or_insert_with(..)`).
    pub fn get_or_insert_with(&mut self, id: u64, make: impl FnOnce() -> T) -> &mut T {
        let idx = match self.index.get(id) {
            Some(idx) => idx as usize,
            None => self.insert(id, make()),
        };
        self.entries[idx].as_mut().expect("indexed slot is live")
    }

    /// Remove `id`'s entry, recycling its slot onto the free list.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let idx = self.index.remove(id)?;
        let value = self.entries[idx as usize].take();
        debug_assert!(value.is_some(), "index and storage out of sync");
        self.free.push(idx);
        value
    }

    /// Iterate over live entries (arbitrary order).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().filter_map(|e| e.as_ref())
    }
}

/// `{id: value, ..}` in index order — a hash order, stable for one slab
/// but meaningless across two.
impl<T: std::fmt::Debug> std::fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live = self.index.cells.iter().filter(|c| c.value != EMPTY);
        f.debug_map()
            .entries(live.filter_map(|c| Some((c.key, self.entries[c.value as usize].as_ref()?))))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: Slab<String> = Slab::new();
        assert!(s.is_empty());
        s.insert(7, "seven".into());
        s.insert(0, "zero".into()); // id 0 is a valid instance id
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(7).map(String::as_str), Some("seven"));
        assert_eq!(s.get_mut(0).map(|v| v.push('!')), Some(()));
        assert_eq!(s.remove(0).as_deref(), Some("zero!"));
        assert!(!s.contains(0));
        assert_eq!(s.remove(0), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn free_list_recycles_dense_slots() {
        let mut s: Slab<u64> = Slab::new();
        let a = s.insert(1, 10);
        let _b = s.insert(2, 20);
        s.remove(1);
        // The freed dense slot is reused by the next insert.
        let c = s.insert(3, 30);
        assert_eq!(c, a);
        assert_eq!(s.get(3), Some(&30));
        assert_eq!(s.get(2), Some(&20));
        assert_eq!(s.entries.len(), 2, "storage stays dense under churn");
    }

    #[test]
    fn survives_heavy_churn_with_sparse_ids() {
        // Deterministic churn over ids that collide-and-probe: growth
        // and backward-shift removal inside long probe runs get exercised.
        let mut s: Slab<u64> = Slab::new();
        let id = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for round in 0..20u64 {
            for i in 0..100 {
                s.insert(id(round * 100 + i), round * 100 + i);
            }
            for i in 0..100 {
                if i % 3 != 0 {
                    assert_eq!(s.remove(id(round * 100 + i)), Some(round * 100 + i));
                }
            }
        }
        // Survivors: every (round, i) with i % 3 == 0.
        let mut expect = 0;
        for round in 0..20u64 {
            for i in 0..100 {
                if i % 3 == 0 {
                    assert_eq!(s.get(id(round * 100 + i)), Some(&(round * 100 + i)));
                    expect += 1;
                }
            }
        }
        assert_eq!(s.len(), expect);
        assert_eq!(s.values().count(), expect);
        // Dense storage never grew past the high-water mark of one round.
        assert!(
            s.entries.len() <= 100 + expect,
            "dense storage leaked slots: {}",
            s.entries.len()
        );
    }

    #[test]
    fn index_stays_bounded_under_unique_key_churn() {
        // The service's steady state: every transaction inserts a fresh
        // TxnId and removes it on End, live set bounded. Removal leaves
        // no residue, so the index must stay at its smallest size rather
        // than grow with the total transaction count.
        let mut s: Slab<u64> = Slab::new();
        for i in 0..100_000u64 {
            s.insert(i, i);
            if i >= 8 {
                s.remove(i - 8); // keep ~8 live
            }
        }
        assert_eq!(s.len(), 8);
        assert!(
            s.index.cells.len() <= 64,
            "index grew unboundedly under churn: {} cells for {} live entries",
            s.index.cells.len(),
            s.len()
        );
        assert_eq!(s.entries.len() as u64, 9, "dense storage high-water mark");
    }

    #[test]
    fn removal_shifts_the_run_back_and_leaves_no_residue() {
        // Twelve ids churning in the smallest table (16 cells, never more
        // than twelve live): probe runs are long, wrap around the end of
        // the table and lose members from their middle. Every lookup must
        // still agree with a model, and the table must never grow.
        use std::collections::HashMap;
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut s: Slab<u64> = Slab::new();
        let id = |i: u64| (i % 12).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for i in 0..20_000u64 {
            *s.get_or_insert_with(id(i), || 0) += 1;
            *model.entry(id(i)).or_insert(0) += 1;
            if i % 3 != 1 {
                let gone = id(i.wrapping_mul(7) / 3);
                assert_eq!(s.remove(gone), model.remove(&gone));
            }
            for probe in 0..12 {
                assert_eq!(s.get(id(probe)), model.get(&id(probe)), "after op {i}");
            }
        }
        assert_eq!(s.index.cells.len(), 16, "churn never rebuilds or grows");
        assert_eq!(s.len(), model.len());

        let mut copy = s.clone();
        let before = format!("{s:?}");
        copy.get_or_insert_with(999, || 7);
        assert_eq!(format!("{s:?}"), before, "a clone shares nothing");
        assert_eq!(copy.len(), s.len() + 1);
        assert!(format!("{copy:?}").contains("999: 7"));
    }

    #[test]
    fn agrees_with_std_hashmap_under_random_ops() {
        use std::collections::HashMap;
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut s: Slab<u64> = Slab::new();
        let mut rng = 0x1234_5678_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..20_000 {
            let id = next() % 512; // small key space -> heavy churn
            match next() % 3 {
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(id) {
                        e.insert(id * 3);
                        s.insert(id, id * 3);
                    }
                }
                1 => {
                    assert_eq!(s.remove(id), model.remove(&id));
                }
                _ => {
                    assert_eq!(s.get(id), model.get(&id));
                }
            }
        }
        assert_eq!(s.len(), model.len());
    }
}
