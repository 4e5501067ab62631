//! Small-buffer-inlined vectors for per-transaction state.
//!
//! Almost everything a node keeps per transaction is sized by the
//! transaction's participant group — two to four entries: the participant
//! list, one flag or vote per rank in the protocol automaton, the
//! envelopes that outran a `Begin`. With a plain `Vec` each of those costs
//! a heap allocation per transaction *and per participant* on the hot
//! path. The two types here store the first `N` elements inline and only
//! spill to the heap on overflow, so the common case allocates nothing:
//!
//! * [`InlineVec`] holds any `T` (slots are `Option<T>`) and offers
//!   `push`, `len` and a consuming iterator — the early-envelope buffer;
//! * [`SmallVec`] holds `Copy + Default` values and **derefs to a slice**
//!   — participant lists, per-rank flags and votes, and the vote bundle a
//!   PaxosCommit acceptor sends. It encodes on the wire exactly like a
//!   `Vec`.
//!
//! They live at the bottom of the crate graph because the protocol
//! automata (`ac-commit`), the workload generator (`ac-txn`) and the
//! service (`ac-cluster`, which re-exports this module) all use them.

use crate::wire::{Wire, WireError, MAX_WIRE_ELEMS};

/// A vector whose first `N` elements live inline (no heap allocation);
/// pushes beyond `N` spill the whole buffer to a `Vec`.
#[derive(Debug)]
pub enum InlineVec<T, const N: usize = 4> {
    /// All elements inline: `slots[..len]` are `Some`.
    Inline {
        /// Fixed inline storage; populated prefix is `Some`.
        slots: [Option<T>; N],
        /// Number of populated slots.
        len: usize,
    },
    /// Spilled to the heap after overflowing the inline capacity.
    Heap(Vec<T>),
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty buffer (inline, no allocation).
    pub fn new() -> InlineVec<T, N> {
        InlineVec::Inline {
            slots: std::array::from_fn(|_| None),
            len: 0,
        }
    }

    /// Number of buffered elements.
    pub fn len(&self) -> usize {
        match self {
            InlineVec::Inline { len, .. } => *len,
            InlineVec::Heap(v) => v.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the buffer has spilled to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self, InlineVec::Heap(_))
    }

    /// Append `value`, spilling to the heap when the inline capacity
    /// overflows.
    pub fn push(&mut self, value: T) {
        match self {
            InlineVec::Inline { slots, len } if *len < N => {
                slots[*len] = Some(value);
                *len += 1;
            }
            InlineVec::Inline { slots, .. } => {
                let mut vec: Vec<T> = Vec::with_capacity(2 * N);
                for s in slots.iter_mut() {
                    vec.push(s.take().expect("full inline buffer"));
                }
                vec.push(value);
                *self = InlineVec::Heap(vec);
            }
            InlineVec::Heap(vec) => vec.push(value),
        }
    }
}

/// Consuming iterator over an [`InlineVec`], in push order.
pub enum IntoIter<T, const N: usize> {
    /// Iterating the inline slots.
    Inline(std::array::IntoIter<Option<T>, N>),
    /// Iterating the spilled heap buffer.
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        match self {
            // The populated prefix is `Some`; the first `None` slot ends
            // the iteration.
            IntoIter::Inline(it) => it.next().flatten(),
            IntoIter::Heap(it) => it.next(),
        }
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> IntoIter<T, N> {
        match self {
            InlineVec::Inline { slots, .. } => IntoIter::Inline(slots.into_iter()),
            InlineVec::Heap(vec) => IntoIter::Heap(vec.into_iter()),
        }
    }
}

/// A vector of small `Copy` values — participant ranks, per-rank flags,
/// per-rank votes — whose first `N` elements live inline and which
/// **derefs to a slice**: indexing, `iter`, `position`, `contains`, `all`
/// are the slice's own. Pushing beyond `N` spills the whole buffer to a
/// `Vec` and stays correct at any length.
///
/// The sibling of [`InlineVec`] for the case where every slot can be
/// pre-filled with `T::default()`: that is what lets the populated prefix
/// be handed out as `&[T]` without `unsafe`. Its [`Wire`] bytes are
/// `Vec<T>`'s.
#[derive(Clone)]
pub struct SmallVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `items[..len]` are the elements; the rest is filler, never exposed.
    Inline {
        len: u32,
        items: [T; N],
    },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// An empty vector (inline, no allocation).
    pub fn new() -> SmallVec<T, N> {
        SmallVec(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }

    /// `n` copies of `value` (`vec![value; n]`, inline while `n ≤ N`).
    pub fn from_elem(value: T, n: usize) -> SmallVec<T, N> {
        if n <= N {
            // The filler beyond `len` is never handed out; any `T` does.
            SmallVec(Repr::Inline {
                len: n as u32,
                items: [value; N],
            })
        } else {
            SmallVec(Repr::Heap(vec![value; n]))
        }
    }

    /// Whether the vector has spilled to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }

    /// Append `value`, spilling to the heap when the inline capacity
    /// overflows.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = value;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut vec = Vec::with_capacity(2 * N + 1);
                vec.extend_from_slice(&items[..]);
                vec.push(value);
                self.0 = Repr::Heap(vec);
            }
            Repr::Heap(vec) => vec.push(value),
        }
    }
}

impl<T, const N: usize> std::ops::Deref for SmallVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Heap(vec) => vec,
        }
    }
}

impl<T, const N: usize> std::ops::DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Heap(vec) => vec,
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SmallVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.iter()
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Wire + Copy + Default, const N: usize> Wire for SmallVec<T, N> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = u32::decode(buf)?;
        if n > MAX_WIRE_ELEMS {
            return Err(WireError::Invalid("vec length over sanity cap"));
        }
        // Grows by pushing, so a lying length prefix reserves nothing.
        let mut out = SmallVec::new();
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.len(), 4);
        assert!(!v.spilled());
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn spills_and_preserves_order() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        assert!(v.spilled());
        assert_eq!(
            v.into_iter().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_iterates_nothing() {
        let v: InlineVec<String, 2> = InlineVec::new();
        assert_eq!(v.into_iter().count(), 0);
    }

    #[test]
    fn works_with_non_copy_payloads() {
        let mut v: InlineVec<String, 2> = InlineVec::new();
        v.push("a".into());
        v.push("b".into());
        v.push("c".into()); // spills
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn small_vec_is_a_slice_inline_and_spilled() {
        let mut v: SmallVec<usize, 4> = SmallVec::new();
        assert!(v.is_empty() && !v.spilled());
        for i in 0..4 {
            v.push(i * 10);
        }
        assert!(!v.spilled(), "four elements fit inline");
        assert_eq!(v[..], [0, 10, 20, 30]);
        assert_eq!(v.iter().position(|&x| x == 20), Some(2));
        v.push(40); // spills
        assert!(v.spilled());
        assert_eq!(v[..], [0, 10, 20, 30, 40]);
        v[1] = 11;
        assert_eq!(v.get(1), Some(&11));
        assert_eq!(v.get(5), None);
    }

    #[test]
    fn small_vec_from_elem_matches_the_vec_macro() {
        for n in [0, 1, 7, 8, 9, 64] {
            let mut v: SmallVec<bool, 8> = SmallVec::from_elem(false, n);
            assert_eq!(v.len(), n);
            assert_eq!(v.spilled(), n > 8);
            assert!(v.iter().all(|&b| !b));
            if n > 0 {
                v[n - 1] = true;
                assert_eq!(v.iter().filter(|&&b| b).count(), 1);
            }
        }
    }

    #[test]
    fn small_vec_encodes_like_a_vec_and_refuses_an_absurd_length() {
        for n in 0..10usize {
            let model: Vec<(usize, bool)> = (0..n).map(|i| (i * 3, i % 2 == 0)).collect();
            let v: SmallVec<(usize, bool), 4> = model.iter().copied().collect();
            assert_eq!(v.to_wire(), model.to_wire(), "{n} elements");
            let back = SmallVec::<(usize, bool), 4>::from_wire(&model.to_wire()).unwrap();
            assert_eq!(back, v);
            assert_eq!(back.spilled(), n > 4);
        }
        let mut s = &(MAX_WIRE_ELEMS + 1).to_wire()[..];
        assert!(matches!(
            SmallVec::<u64, 4>::decode(&mut s),
            Err(WireError::Invalid(_))
        ));
        // A length prefix the input cannot back is a truncation, reached
        // without reserving for it.
        let mut s = &MAX_WIRE_ELEMS.to_wire()[..];
        assert_eq!(
            SmallVec::<u64, 4>::decode(&mut s),
            Err(WireError::Truncated)
        );
    }
}
