//! Binary wire encoding for protocol and service messages.
//!
//! The live service can run its node-to-node links over real sockets
//! (`ac-cluster`'s TCP transport); everything that crosses such a link
//! implements [`Wire`]. The format is deliberately small and fixed:
//!
//! * integers are **little-endian fixed width** (`u64` → 8 bytes, …);
//! * `usize` is encoded as `u64` (the simulator's `ProcessId` is `usize`);
//! * `bool` is one byte, `0` or `1` (any other value is a decode error);
//! * `Option<T>` is a presence byte followed by the payload;
//! * `Vec<T>` is a `u32` element count followed by the elements;
//! * `Box<T>` and `Arc<T>` are `T` (the pointer is not on the wire);
//! * enums are a leading tag byte followed by the variant's fields.
//!
//! A message, record or struct declares its layout once, with
//! [`wire_enum!`](crate::wire_enum) (a tag per variant, then the
//! variant's fields) or [`wire_struct!`](crate::wire_struct) (the
//! fields, no tag). The one table yields both directions of the impl, so
//! `encode` and `decode` cannot disagree on a tag or on the order of the
//! fields:
//!
//! ```
//! #[derive(Debug, PartialEq)]
//! enum Msg {
//!     Ping,
//!     Vote(u64, bool),
//!     Ack { seq: u32 },
//! }
//! ac_sim::wire_enum!(Msg { 0 => Ping, 1 => Vote(txn, yes), 2 => Ack { seq } });
//!
//! #[derive(Debug, PartialEq)]
//! struct Hop { from: u64, msg: Msg }
//! ac_sim::wire_struct!(Hop { from, msg });
//!
//! use ac_sim::Wire;
//! let hop = Hop { from: 3, msg: Msg::Vote(7, true) };
//! assert_eq!(&hop.to_wire()[8..], &[1, 7, 0, 0, 0, 0, 0, 0, 0, 1]);
//! assert_eq!(Hop::from_wire(&hop.to_wire()), Ok(hop));
//! ```
//!
//! A tuple variant or tuple struct names its fields positionally
//! (`Vote(txn, yes)`, `wire_struct!(Wrapper(inner))`); the names only
//! bind the fields inside the generated impl. Tags are part of the wire
//! contract: never renumber one (append-only). An enum may be generic,
//! and may hand every tag it does not list to a variant that wraps
//! another declared enum (see [`wire_enum!`](crate::wire_enum)). Hand-write
//! an impl only for a collection (`SmallVec`) or where decoding does more
//! than read the fields back (`FlatMap` canonicalizes).
//!
//! Decoding consumes from the front of a `&[u8]` slice and never panics:
//! short input yields [`WireError::Truncated`], out-of-range tags or
//! malformed payloads yield [`WireError::Invalid`]. Framing (length
//! prefixes, partial reads, resynchronization) is the transport's job —
//! this module only defines the body encoding.
//!
//! The trait and the two macros live here, at the bottom of the crate
//! graph, so that each crate can declare the layouts of the types it owns
//! (`ac-consensus` for `PaxosMsg`, `ac-commit` for the protocol messages,
//! `ac-txn` for transactions, `ac-obs` for flight events and cluster
//! dumps) without orphan-rule friction.

use std::fmt;

/// Why a [`Wire::decode`] call failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated,
    /// The input was long enough but malformed (bad tag, bad bool byte,
    /// length out of sanity range). Carries a static description of what
    /// was being decoded.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire input truncated"),
            WireError::Invalid(what) => write!(f, "malformed wire value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sanity cap on decoded collection lengths: a `Vec` longer than this is
/// treated as garbage rather than attempted (prevents huge allocations
/// from corrupt or adversarial length fields).
pub const MAX_WIRE_ELEMS: u32 = 1 << 20;

/// A value with a binary wire encoding. See the module docs for the
/// format rules; implementations must guarantee that
/// `decode(encode(v)) == v` and that `decode` consumes exactly the bytes
/// `encode` produced (so values concatenate).
pub trait Wire: Sized {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode a value from the front of `buf`, advancing it past the
    /// consumed bytes. On error `buf`'s position is unspecified.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Convenience: encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decode a value that must occupy `bytes` exactly;
    /// trailing bytes are an error. Forced inline: it adds one check to
    /// `decode`, and a `decode` forced inline (the socket frame's) must
    /// not be returned by value through one more call.
    #[inline(always)]
    fn from_wire(mut bytes: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut bytes)?;
        if bytes.is_empty() {
            Ok(v)
        } else {
            Err(WireError::Invalid("trailing bytes after value"))
        }
    }
}

/// Take `n` bytes off the front of `buf`, or fail with `Truncated`.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let raw = take(buf, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().unwrap()))
            }
        }
    )*};
}

int_wire!(u8, u16, u32, u64, i64);

/// Implement [`Wire`] for an enum from one table of `tag => variant`
/// entries: `encode` pushes the tag byte, then each field in the listed
/// order; `decode` reads them back in the same order (field types are
/// inferred), and an unlisted tag is `WireError::Invalid("<T> tag")`.
/// Variants may be unit (`0 => Help`), tuple (`1 => V(vote)`, one name
/// per field) or struct (`2 => Accept { bal, val }`). See the
/// [module docs](crate::wire) for an example.
///
/// Three optional parts:
/// * type parameters, `Env<M> { … }`, each bound by `Wire`;
/// * a last arm `_ => Inner(inner)`, a pass-through: the one-field
///   variant `Inner` owns every tag the table does not list, and its
///   field writes and reads its own tag (its tags and the table's must
///   not overlap);
/// * attributes before the type, which go on the generated `decode`
///   (`#[inline(always)]` where a large value is returned by value).
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Env<M> { Msg(M), Stop }
/// ac_sim::wire_enum!(Env<M> { 0 => Msg(msg), 1 => Stop });
///
/// #[derive(Debug, PartialEq)]
/// enum Frame<M> { Env(Env<M>), Hello { id: u8 } }
/// ac_sim::wire_enum!(#[inline(always)] Frame<M> { 7 => Hello { id }, _ => Env(env) });
///
/// use ac_sim::Wire;
/// let frame = Frame::Env(Env::Msg(5u8));
/// assert_eq!(frame.to_wire(), [0, 5]);
/// assert_eq!(Frame::from_wire(&[0, 5]), Ok(frame));
/// assert_eq!(Frame::<u8>::from_wire(&[7, 3]), Ok(Frame::Hello { id: 3 }));
/// ```
#[macro_export]
macro_rules! wire_enum {
    // What an unlisted tag decodes to: the pass-through variant, from the
    // bytes that still start with the tag, or an error naming the type.
    (@unlisted $buf:ident $t:ident $pv:ident) => {
        Ok($t::$pv($crate::Wire::decode($buf)?))
    };
    (@unlisted $buf:ident $t:ident) => {
        Err($crate::WireError::Invalid(concat!(stringify!($t), " tag")))
    };
    ($(#[$attr:meta])* $t:ident $(<$($g:ident),+>)? {
        $($tag:literal => $v:ident $(($($a:ident),*))? $({ $($f:ident),* })?),*
        $(, _ => $pv:ident($pa:ident))? $(,)?
    }) => {
        impl$(<$($g: $crate::Wire),+>)? $crate::Wire for $t$(<$($g),+>)? {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $($t::$v $(($($a),*))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($($crate::Wire::encode($a, buf);)*)?
                        $($($crate::Wire::encode($f, buf);)*)?
                    })*
                    $($t::$pv($pa) => $crate::Wire::encode($pa, buf),)?
                }
            }
            $(#[$attr])*
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::WireError> {
                // Peeked, not taken: a pass-through variant reads it again.
                match *buf.first().ok_or($crate::WireError::Truncated)? {
                    $($tag => {
                        *buf = &buf[1..];
                        $($(let $a = $crate::Wire::decode(buf)?;)*)?
                        Ok($t::$v $(($($a),*))? $({ $($f: $crate::Wire::decode(buf)?),* })?)
                    })*
                    _ => $crate::wire_enum!(@unlisted buf $t $($pv)?),
                }
            }
        }
    };
}

/// Implement [`Wire`] for a struct from its field list: the fields in the
/// listed order, no tag. `wire_struct!(T { f, g })` for named fields,
/// `wire_struct!(T(a))` for a tuple struct (one name per field). See the
/// [module docs](crate::wire) for an example.
#[macro_export]
macro_rules! wire_struct {
    ($t:ident { $($f:ident),* $(,)? }) => {
        impl $crate::Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::Wire::encode(&self.$f, buf);)*
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::WireError> {
                // A struct expression evaluates its fields in the order written.
                Ok($t { $($f: $crate::Wire::decode(buf)?),* })
            }
        }
    };
    ($t:ident ($($a:ident),* $(,)?)) => {
        impl $crate::Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                let $t($($a),*) = self;
                $($crate::Wire::encode($a, buf);)*
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::WireError> {
                $(let $a = $crate::Wire::decode(buf)?;)*
                Ok($t($($a),*))
            }
        }
    };
}

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| WireError::Invalid("usize out of range"))
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool byte not 0 or 1")),
        }
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(WireError::Invalid("option byte not 0 or 1")),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        T::decode(buf).map(Box::new)
    }
}

impl<T: Wire> Wire for std::sync::Arc<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        T::decode(buf).map(std::sync::Arc::new)
    }
}

impl<T: Wire> Wire for Vec<T> {
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
        let mut out = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = u32::decode(buf)?;
        if n > MAX_WIRE_ELEMS {
            return Err(WireError::Invalid("string length over sanity cap"));
        }
        let raw = take(buf, n as usize)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::Invalid("string not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_and_concatenate() {
        let mut buf = Vec::new();
        42u8.encode(&mut buf);
        7u32.encode(&mut buf);
        u64::MAX.encode(&mut buf);
        (-5i64).encode(&mut buf);
        true.encode(&mut buf);
        Some(3usize).encode(&mut buf);
        vec![1u64, 2, 3].encode(&mut buf);
        "hi".to_string().encode(&mut buf);

        let mut s = &buf[..];
        assert_eq!(u8::decode(&mut s).unwrap(), 42);
        assert_eq!(u32::decode(&mut s).unwrap(), 7);
        assert_eq!(u64::decode(&mut s).unwrap(), u64::MAX);
        assert_eq!(i64::decode(&mut s).unwrap(), -5);
        assert!(bool::decode(&mut s).unwrap());
        assert_eq!(Option::<usize>::decode(&mut s).unwrap(), Some(3));
        assert_eq!(Vec::<u64>::decode(&mut s).unwrap(), vec![1, 2, 3]);
        assert_eq!(String::decode(&mut s).unwrap(), "hi");
        assert!(s.is_empty());
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let buf = 12345u64.to_wire();
        for cut in 0..buf.len() {
            let mut s = &buf[..cut];
            assert_eq!(u64::decode(&mut s), Err(WireError::Truncated));
        }
    }

    #[test]
    fn malformed_bytes_are_invalid_not_panics() {
        let mut s: &[u8] = &[2];
        assert!(matches!(bool::decode(&mut s), Err(WireError::Invalid(_))));
        // A vec length over the sanity cap must not attempt allocation.
        let mut buf = Vec::new();
        (MAX_WIRE_ELEMS + 1).encode(&mut buf);
        let mut s = &buf[..];
        assert!(matches!(
            Vec::<u64>::decode(&mut s),
            Err(WireError::Invalid(_))
        ));
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Unit,
        Tuple(u8, bool),
        Struct { f: u64, g: Option<u32> },
    }
    crate::wire_enum!(Shape { 0 => Unit, 1 => Tuple(a, b), 7 => Struct { f, g } });

    #[derive(Debug, PartialEq)]
    struct Named {
        f: u16,
        g: Vec<u8>,
    }
    crate::wire_struct!(Named { f, g });

    #[derive(Debug, PartialEq)]
    struct Wrapped(i64, Shape);
    crate::wire_struct!(Wrapped(a, b));

    #[test]
    fn declared_layouts_round_trip_in_table_order() {
        let cases: [(Shape, &[u8]); 3] = [
            (Shape::Unit, &[0]),
            (Shape::Tuple(5, true), &[1, 5, 1]),
            (
                Shape::Struct { f: 2, g: Some(3) },
                &[7, 2, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0],
            ),
        ];
        for (v, bytes) in cases {
            assert_eq!(v.to_wire(), bytes);
            assert_eq!(Shape::from_wire(bytes), Ok(v));
        }
        let named = Named {
            f: 0x0201,
            g: vec![9],
        };
        assert_eq!(named.to_wire(), [1, 2, 1, 0, 0, 0, 9]);
        assert_eq!(Named::from_wire(&named.to_wire()), Ok(named));
        let wrapped = Wrapped(-1, Shape::Tuple(4, false));
        assert_eq!(
            wrapped.to_wire(),
            [255, 255, 255, 255, 255, 255, 255, 255, 1, 4, 0]
        );
        assert_eq!(Wrapped::from_wire(&wrapped.to_wire()), Ok(wrapped));
    }

    #[test]
    fn a_declared_enum_names_itself_on_an_unknown_tag() {
        for tag in [2u8, 6, 8, 255] {
            assert_eq!(
                Shape::from_wire(&[tag]),
                Err(WireError::Invalid("Shape tag"))
            );
        }
    }

    /// Every strict prefix of `v`'s encoding decodes as `Truncated`.
    fn assert_cut_short_is_truncated<T: Wire + fmt::Debug + PartialEq>(v: T) {
        let bytes = v.to_wire();
        for cut in 0..bytes.len() {
            assert_eq!(
                T::from_wire(&bytes[..cut]),
                Err(WireError::Truncated),
                "{v:?} cut at {cut}"
            );
        }
    }

    #[test]
    fn a_declared_layout_cut_short_is_truncated() {
        assert_cut_short_is_truncated(Shape::Unit);
        assert_cut_short_is_truncated(Shape::Tuple(5, true));
        assert_cut_short_is_truncated(Shape::Struct { f: 2, g: Some(3) });
        assert_cut_short_is_truncated(Named {
            f: 1,
            g: vec![2, 3],
        });
        assert_cut_short_is_truncated(Wrapped(7, Shape::Unit));
    }

    #[derive(Debug, PartialEq)]
    enum Env<M> {
        Msg(u8, M),
        Stop,
    }
    crate::wire_enum!(Env<M> { 0 => Msg(a, m), 1 => Stop });

    #[derive(Debug, PartialEq)]
    enum Frame<M> {
        Env(Env<M>),
        Hello { id: u16 },
        Boxed(Box<Named>, std::sync::Arc<u8>),
    }
    crate::wire_enum!(#[inline(always)] Frame<M> {
        5 => Hello { id },
        6 => Boxed(b, a),
        _ => Env(env),
    });

    fn generic_cases() -> [(Frame<bool>, &'static [u8]); 4] {
        let boxed = Frame::Boxed(Box::new(Named { f: 3, g: vec![] }), 4.into());
        [
            (Frame::Env(Env::Msg(9, true)), &[0, 9, 1]),
            (Frame::Env(Env::Stop), &[1]),
            (Frame::Hello { id: 0x0102 }, &[5, 2, 1]),
            (boxed, &[6, 3, 0, 0, 0, 0, 0, 4]),
        ]
    }

    #[test]
    fn a_generic_enum_and_its_pass_through_round_trip_in_table_order() {
        assert_eq!(Env::Msg(2, 7u32).to_wire(), [0, 2, 7, 0, 0, 0]);
        assert_eq!(
            Env::<u32>::from_wire(&[0, 2, 7, 0, 0, 0]),
            Ok(Env::Msg(2, 7))
        );
        for (v, bytes) in generic_cases() {
            assert_eq!(v.to_wire(), bytes);
            assert_eq!(Frame::from_wire(bytes), Ok(v));
        }
    }

    #[test]
    fn an_unlisted_tag_names_the_enum_that_owns_it() {
        // A tag the outer table does not list is the wrapped enum's to
        // refuse: the pass-through takes every unlisted tag.
        for tag in [2u8, 4, 7, 255] {
            assert_eq!(
                Frame::<bool>::from_wire(&[tag]),
                Err(WireError::Invalid("Env tag"))
            );
            assert_eq!(
                Env::<bool>::from_wire(&[tag]),
                Err(WireError::Invalid("Env tag"))
            );
        }
    }

    #[test]
    fn a_generic_or_passed_through_layout_cut_short_is_truncated() {
        assert_cut_short_is_truncated(Env::Msg(1, 2u64));
        for (v, _) in generic_cases() {
            assert_cut_short_is_truncated(v);
        }
    }

    #[test]
    fn from_wire_rejects_trailing_bytes() {
        let mut buf = 1u32.to_wire();
        buf.push(0);
        assert!(matches!(u32::from_wire(&buf), Err(WireError::Invalid(_))));
    }
}
