//! The robustness taxonomy of Table 1.
//!
//! An atomic commit problem variant is a pair `(X, Y)` of property subsets
//! of `{A, V, T}`: the protocol must (a) solve NBAC in every failure-free
//! execution, (b) satisfy `X` in every crash-failure execution and (c)
//! satisfy `Y` in every network-failure execution. Since every crash-failure
//! execution is also reachable in the network-failure system, a property in
//! `Y` is automatically in `X`; cells with `Y ⊄ X` are "empty" and reduce to
//! `(X ∪ Y, Y)`. That leaves the 27 non-empty cells of Table 1.
//!
//! The tight bounds proved in the paper (Theorems 1 and 2, tightness by
//! Theorems 3 and 4):
//!
//! * delays: `d = 2` iff `X = {A,V,T}` and `A ∈ Y`; otherwise `d = 1`;
//! * messages: `m = 2n−2+f` in the `d = 2` group; else `m = 2n−2` if
//!   `V ∈ Y`; else `m = n−1+f` if `V ∈ X`; else `m = 0`.
//!
//! Theorem 5 adds: any protocol of the `d = 2` group that actually decides
//! within two delays exchanges at least `2fn` messages in nice executions —
//! the bound INBAC meets.

use std::fmt;

/// A subset of the NBAC properties {Agreement, Validity, Termination},
/// packed into three bits.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropSet(u8);

impl PropSet {
    /// No guarantee.
    pub const EMPTY: PropSet = PropSet(0);
    /// Agreement only.
    pub const A: PropSet = PropSet(0b001);
    /// Validity only.
    pub const V: PropSet = PropSet(0b010);
    /// Termination only.
    pub const T: PropSet = PropSet(0b100);
    /// Agreement + validity.
    pub const AV: PropSet = PropSet(0b011);
    /// Agreement + termination.
    pub const AT: PropSet = PropSet(0b101);
    /// Validity + termination.
    pub const VT: PropSet = PropSet(0b110);
    /// All three: full NBAC.
    pub const AVT: PropSet = PropSet(0b111);

    /// All eight subsets, in Table 1's column order (∅, A, V, T, AV, AT,
    /// VT, AVT).
    pub fn all() -> [PropSet; 8] {
        [
            Self::EMPTY,
            Self::A,
            Self::V,
            Self::T,
            Self::AV,
            Self::AT,
            Self::VT,
            Self::AVT,
        ]
    }

    /// Whether every property in `other` is also in `self`.
    #[inline]
    pub fn contains(self, other: PropSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// The properties in either set.
    #[inline]
    pub fn union(self, other: PropSet) -> PropSet {
        PropSet(self.0 | other.0)
    }

    /// Whether agreement is guaranteed.
    #[inline]
    pub fn has_agreement(self) -> bool {
        self.contains(Self::A)
    }

    /// Whether validity is guaranteed.
    #[inline]
    pub fn has_validity(self) -> bool {
        self.contains(Self::V)
    }

    /// Whether termination is guaranteed.
    #[inline]
    pub fn has_termination(self) -> bool {
        self.contains(Self::T)
    }
}

impl fmt::Debug for PropSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Self::EMPTY {
            return write!(f, "∅");
        }
        if self.has_agreement() {
            write!(f, "A")?;
        }
        if self.has_validity() {
            write!(f, "V")?;
        }
        if self.has_termination() {
            write!(f, "T")?;
        }
        Ok(())
    }
}

impl fmt::Display for PropSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One cell of Table 1: guarantees `cf` in crash-failure executions and
/// `nf` in network-failure executions (plus NBAC in failure-free ones).
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Guarantees in crash-failure (synchronous) executions.
    pub cf: PropSet,
    /// Guarantees in network-failure (eventually synchronous) executions.
    pub nf: PropSet,
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.cf, self.nf)
    }
}

impl Cell {
    /// The cell guaranteeing `cf` under crash failures and `nf` under
    /// network failures.
    pub fn new(cf: PropSet, nf: PropSet) -> Cell {
        Cell { cf, nf }
    }

    /// Indulgent atomic commit (Definition 3): every network-failure
    /// execution solves NBAC — the most robust cell.
    pub const INDULGENT: Cell = Cell {
        cf: PropSet::AVT,
        nf: PropSet::AVT,
    };

    /// Synchronous NBAC: NBAC in every crash-failure execution; in Table 1
    /// terms the paper's (AVT, T) column covers its message-optimal side.
    pub const SYNC_NBAC: Cell = Cell {
        cf: PropSet::AVT,
        nf: PropSet::EMPTY,
    };

    /// Whether agreement holds in every execution the cell covers, crash-
    /// and network-failure alike: then any one process's decision is every
    /// process's, and a client may take its outcome from the first reply.
    pub fn always_agrees(self) -> bool {
        self.cf.has_agreement() && self.nf.has_agreement()
    }

    /// Whether this cell is non-empty in Table 1 (`nf ⊆ cf`).
    pub fn is_canonical(self) -> bool {
        self.cf.contains(self.nf)
    }

    /// Reduce an arbitrary `(X, Y)` pair to its canonical non-empty cell
    /// `(X ∪ Y, Y)` (the paper: "for every empty cell (X, Y), there exists a
    /// non-empty cell (Z, Y) such that X ∪ Y = Z").
    pub fn canonicalize(self) -> Cell {
        Cell {
            cf: self.cf.union(self.nf),
            nf: self.nf,
        }
    }

    /// The 27 non-empty cells, row-major in Table 1's layout (rows = NF
    /// property set, columns = CF property set).
    pub fn all() -> Vec<Cell> {
        let mut cells = Vec::with_capacity(27);
        for nf in PropSet::all() {
            for cf in PropSet::all() {
                let cell = Cell::new(cf, nf);
                if cell.is_canonical() {
                    cells.push(cell);
                }
            }
        }
        cells
    }

    /// `self` is less (or equally) robust than `other`: component-wise
    /// subset. This is the partial order used to group cells for the lower
    /// bounds.
    pub fn le(self, other: Cell) -> bool {
        other.cf.contains(self.cf) && other.nf.contains(self.nf)
    }

    /// Tight bounds for this cell (must be canonical).
    pub fn bounds(self, n: usize, f: usize) -> Bounds {
        assert!(
            self.is_canonical(),
            "bounds of an empty cell: canonicalize first"
        );
        let n = n as u64;
        let f = f as u64;
        let two_delay_group = self.cf == PropSet::AVT && self.nf.has_agreement();
        let delays = if two_delay_group { 2 } else { 1 };
        let messages = if two_delay_group {
            2 * n - 2 + f
        } else if self.nf.has_validity() {
            2 * n - 2
        } else if self.cf.has_validity() {
            n - 1 + f
        } else {
            0
        };
        // Minimum messages achievable by a *delay-optimal* protocol:
        // - d=2 group: 2fn (Theorem 5, tight by INBAC);
        // - cells with validity in CF and d=1: a 1-delay protocol must use
        //   n(n−1) messages (§3.2), hence the trade-off;
        // - cells without validity anywhere: 0NBAC achieves both optima.
        let messages_at_optimal_delay = if two_delay_group {
            2 * f * n
        } else if self.cf.has_validity() {
            n * (n - 1)
        } else {
            0
        };
        Bounds {
            delays,
            messages,
            messages_at_optimal_delay,
        }
    }

    /// Whether the optimal delay and message counts cannot be achieved by
    /// one protocol (the paper: 18 of the 27 variants).
    pub fn has_tradeoff(self, n: usize, f: usize) -> bool {
        let b = self.bounds(n, f);
        b.messages_at_optimal_delay > b.messages
    }
}

/// Tight complexity bounds of one cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Bounds {
    /// Optimal number of message delays in nice executions.
    pub delays: u64,
    /// Optimal number of messages in nice executions.
    pub messages: u64,
    /// Optimal number of messages among *delay-optimal* protocols.
    pub messages_at_optimal_delay: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_27_nonempty_cells() {
        assert_eq!(Cell::all().len(), 27);
        assert!(Cell::all().iter().all(|c| c.is_canonical()));
    }

    #[test]
    fn canonicalize_matches_paper_rule() {
        // (A, V) is empty; it reduces to (AV, V).
        let c = Cell::new(PropSet::A, PropSet::V);
        assert!(!c.is_canonical());
        assert_eq!(c.canonicalize(), Cell::new(PropSet::AV, PropSet::V));
        // Canonical cells are fixed points.
        for c in Cell::all() {
            assert_eq!(c.canonicalize(), c);
        }
    }

    #[test]
    fn delay_bounds_match_table1() {
        let n = 5;
        let f = 2;
        // The four 2-delay cells.
        for nf in [PropSet::A, PropSet::AV, PropSet::AT, PropSet::AVT] {
            assert_eq!(
                Cell::new(PropSet::AVT, nf).bounds(n, f).delays,
                2,
                "nf={nf}"
            );
        }
        // Everything else is 1.
        for c in Cell::all() {
            if !(c.cf == PropSet::AVT && c.nf.has_agreement()) {
                assert_eq!(c.bounds(n, f).delays, 1, "cell {c:?}");
            }
        }
    }

    #[test]
    fn message_bounds_match_table1_row_by_row() {
        // Spot-check every non-empty cell of Table 1 for n=4, f=2:
        // n-1+f = 5, 2n-2 = 6, 2n-2+f = 8.
        let (n, f) = (4usize, 2usize);
        let m = |cf, nf| Cell::new(cf, nf).bounds(n, f).messages;
        use PropSet as P;
        // Row NF = ∅.
        assert_eq!(m(P::EMPTY, P::EMPTY), 0);
        assert_eq!(m(P::A, P::EMPTY), 0);
        assert_eq!(m(P::V, P::EMPTY), 5);
        assert_eq!(m(P::T, P::EMPTY), 0);
        assert_eq!(m(P::AV, P::EMPTY), 5);
        assert_eq!(m(P::AT, P::EMPTY), 0);
        assert_eq!(m(P::VT, P::EMPTY), 5);
        assert_eq!(m(P::AVT, P::EMPTY), 5);
        // Row NF = A.
        assert_eq!(m(P::A, P::A), 0);
        assert_eq!(m(P::AV, P::A), 5);
        assert_eq!(m(P::AT, P::A), 0);
        assert_eq!(m(P::AVT, P::A), 8);
        // Row NF = V.
        assert_eq!(m(P::V, P::V), 6);
        assert_eq!(m(P::AV, P::V), 6);
        assert_eq!(m(P::VT, P::V), 6);
        assert_eq!(m(P::AVT, P::V), 6);
        // Row NF = T.
        assert_eq!(m(P::T, P::T), 0);
        assert_eq!(m(P::AT, P::T), 0);
        assert_eq!(m(P::VT, P::T), 5);
        assert_eq!(m(P::AVT, P::T), 5);
        // Row NF = AV.
        assert_eq!(m(P::AV, P::AV), 6);
        assert_eq!(m(P::AVT, P::AV), 8);
        // Row NF = AT.
        assert_eq!(m(P::AT, P::AT), 0);
        assert_eq!(m(P::AVT, P::AT), 8);
        // Row NF = VT.
        assert_eq!(m(P::VT, P::VT), 6);
        assert_eq!(m(P::AVT, P::VT), 6);
        // Row NF = AVT.
        assert_eq!(m(P::AVT, P::AVT), 8);
    }

    #[test]
    fn exactly_18_cells_have_a_tradeoff() {
        let with_tradeoff = Cell::all().iter().filter(|c| c.has_tradeoff(6, 2)).count();
        assert_eq!(with_tradeoff, 18);
    }

    #[test]
    fn indulgent_cell_bounds() {
        let b = Cell::INDULGENT.bounds(5, 2);
        assert_eq!(b.delays, 2);
        assert_eq!(b.messages, 2 * 5 - 2 + 2);
        assert_eq!(b.messages_at_optimal_delay, 2 * 2 * 5); // 2fn (Theorem 5)
    }

    #[test]
    fn bounds_are_monotone_in_robustness() {
        // More robust cells can only be at least as expensive.
        let (n, f) = (7, 3);
        for a in Cell::all() {
            for b in Cell::all() {
                if a.le(b) {
                    let (ba, bb) = (a.bounds(n, f), b.bounds(n, f));
                    assert!(ba.delays <= bb.delays, "{a:?} vs {b:?}");
                    assert!(ba.messages <= bb.messages, "{a:?} vs {b:?}");
                }
            }
        }
    }

    /// Ten of the fifteen protocols agree in both failure models; the five
    /// whose network-failure column lacks agreement may split there.
    #[test]
    fn always_agrees_splits_the_suite_ten_to_five() {
        use crate::protocols::ProtocolKind::{self, *};
        let (agree, split): (Vec<ProtocolKind>, Vec<ProtocolKind>) = ProtocolKind::all()
            .into_iter()
            .partition(|k| k.cell().always_agrees());
        assert_eq!(
            agree,
            [
                Inbac,
                InbacFastAbort,
                Nbac0,
                ANbac,
                AvNbacDelayOpt,
                AvNbacMsgOpt,
                Nbac2n2f,
                TwoPc,
                PaxosCommit,
                FasterPaxosCommit,
            ]
        );
        assert_eq!(split, [Nbac1, D1cc, ChainNbac, Nbac2n2, ThreePc]);
        assert!(!Cell::new(PropSet::A, PropSet::EMPTY).always_agrees());
        assert!(!Cell::new(PropSet::T, PropSet::A).always_agrees());
    }

    #[test]
    fn propset_display() {
        assert_eq!(PropSet::EMPTY.to_string(), "∅");
        assert_eq!(PropSet::AVT.to_string(), "AVT");
        assert_eq!(PropSet::VT.to_string(), "VT");
        assert_eq!(format!("{:?}", Cell::INDULGENT), "(AVT, AVT)");
    }
}
