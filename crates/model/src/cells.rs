//! Small vectors of values that live inside their owner.
//!
//! Both halves of a [`crate::ResultRow`] are an [`InlineCells`]: the
//! [`crate::GroupKey`] keeps one cell in place, the [`crate::AggCells`] up
//! to two, and any other count is boxed (DESIGN.md §32).

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// How an [`InlineCells`] records how many of its inline cells are used.
pub trait InlineLen: Copy {
    /// The length to store for `len` cells in `cap` slots, if this type
    /// keeps that many inline.
    fn new(len: usize, cap: usize) -> Option<Self>;

    /// The number of cells used of `cap`.
    fn get(self, cap: usize) -> usize;
}

/// No length: the cells are inline only when they fill every slot.
impl InlineLen for () {
    #[inline]
    fn new(len: usize, cap: usize) -> Option<()> {
        (len == cap).then_some(())
    }

    #[inline]
    fn get(self, cap: usize) -> usize {
        cap
    }
}

/// A length byte: the cells are inline whenever they fit.
impl InlineLen for u8 {
    #[inline]
    fn new(len: usize, cap: usize) -> Option<u8> {
        u8::try_from(len).ok().filter(|_| len <= cap)
    }

    #[inline]
    fn get(self, _cap: usize) -> usize {
        self.into()
    }
}

/// Cells held in place when `L` can count them in `N` slots — exactly `N`
/// with `L = ()`, up to `N` with `L = u8` — and boxed otherwise.
///
/// It derefs to `[Value]`, the only reader: equality, order, hashing and
/// `Debug` are the slice's, and so exactly those of a `Vec<Value>`. Where
/// the cells live is never observable, and no digest, checksum or order
/// depends on it.
#[derive(Clone)]
pub struct InlineCells<const N: usize, L: InlineLen = ()>(Repr<N, L>);

/// The storage of an [`InlineCells`]; the cell count picks the arm.
/// `Boxed` lives in a niche of the first cell's tag, so the enum is as
/// large as `Inline`.
#[derive(Clone)]
enum Repr<const N: usize, L> {
    /// The first `len` cells; the others are NULL.
    Inline { len: L, cells: [Value; N] },
    Boxed(Box<[Value]>),
}

impl<const N: usize, L: InlineLen> InlineCells<N, L> {
    /// Consume the cells, returning them.
    pub fn into_vec(self) -> Vec<Value> {
        match self.0 {
            Repr::Inline { len, cells } => cells.into_iter().take(len.get(N)).collect(),
            Repr::Boxed(cells) => cells.into_vec(),
        }
    }
}

impl<const N: usize, L: InlineLen> From<Vec<Value>> for InlineCells<N, L> {
    fn from(values: Vec<Value>) -> Self {
        match L::new(values.len(), N) {
            Some(_) => values.into_iter().collect(),
            None => InlineCells(Repr::Boxed(values.into_boxed_slice())),
        }
    }
}

/// Fills the cells in place when the iterator promises at most `N`.
impl<const N: usize, L: InlineLen> FromIterator<Value> for InlineCells<N, L> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        if !matches!(iter.size_hint(), (_, Some(n)) if n <= N) {
            return Vec::from_iter(iter).into();
        }
        let mut n = 0;
        // Slot `i` asks for a value only while every earlier slot got one.
        let cells = std::array::from_fn(|i| match (n == i).then(|| iter.next()).flatten() {
            Some(value) => {
                n += 1;
                value
            }
            None => Value::Null,
        });
        match L::new(n, N) {
            Some(len) => InlineCells(Repr::Inline { len, cells }),
            None => InlineCells(Repr::Boxed(cells.into_iter().take(n).collect())),
        }
    }
}

impl<const N: usize, L: InlineLen> std::ops::Deref for InlineCells<N, L> {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, cells } => &cells[..len.get(N)],
            Repr::Boxed(cells) => cells,
        }
    }
}

impl<const N: usize, L: InlineLen> PartialEq for InlineCells<N, L> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize, L: InlineLen> Eq for InlineCells<N, L> {}

/// Against the `Vec<Value>` the cells replaced, as callers compared it.
impl<const N: usize, L: InlineLen> PartialEq<Vec<Value>> for InlineCells<N, L> {
    fn eq(&self, other: &Vec<Value>) -> bool {
        **self == **other
    }
}

impl<const N: usize, L: InlineLen> PartialOrd for InlineCells<N, L> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize, L: InlineLen> Ord for InlineCells<N, L> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // The slices' order when both fill their slots, with no slice
            // walk: `merge_rows` compares one-column keys so.
            (Repr::Inline { len: a, cells: x }, Repr::Inline { len: b, cells: y })
                if a.get(N) == N && b.get(N) == N =>
            {
                x.cmp(y)
            }
            _ => (**self).cmp(&**other),
        }
    }
}

impl<const N: usize, L: InlineLen> Hash for InlineCells<N, L> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<const N: usize, L: InlineLen> fmt::Debug for InlineCells<N, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod proptests {
    use super::{InlineCells, InlineLen, Repr};
    use crate::{AggQuery, AggSpec, GroupKey, ResultRow, Value};
    use proptest::prelude::*;
    use std::hash::{Hash, Hasher};

    /// A hasher that keeps every byte written to it, so two hashes are
    /// compared write for write rather than through a digest.
    #[derive(Default)]
    struct Written(Vec<u8>);

    impl Hasher for Written {
        fn finish(&self) -> u64 {
            0
        }

        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    fn written(value: &impl Hash) -> Vec<u8> {
        let mut h = Written::default();
        value.hash(&mut h);
        h.0
    }

    /// The row as it was before its cells went inline: every trait derived
    /// over `Vec<Value>`s, `Display` as it was written then.
    mod vec {
        use crate::value::Value;
        use std::fmt;

        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct GroupKey {
            pub values: Vec<Value>,
        }

        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct ResultRow {
            pub key: GroupKey,
            pub aggs: Vec<Value>,
        }

        impl fmt::Display for ResultRow {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let key: Vec<_> = self.key.values.iter().map(Value::to_string).collect();
                write!(f, "⟨{}⟩ →", key.join(", "))?;
                self.aggs.iter().try_for_each(|v| write!(f, " {v}"))
            }
        }
    }

    /// Every `Value` kind, the float and `Int` edges included, from
    /// domains small enough that cells collide.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-2i64..3).prop_map(Value::Int),
            prop_oneof![Just(i64::MIN), Just(i64::MAX), any::<i64>()].prop_map(Value::Int),
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(1.5),
                Just(-1.5)
            ]
            .prop_map(Value::Float),
            "[ab]{0,2}".prop_map(|s: String| Value::Str(s.into())),
        ]
    }

    fn arb_cells() -> impl Strategy<Value = Vec<Value>> {
        proptest::collection::vec(arb_value(), 0..5)
    }

    /// One instantiation against `Vec<Value>`: every trait, both ways in,
    /// and where the cells live.
    fn check<const N: usize, L: InlineLen>(
        a: &[Value],
        b: &[Value],
        inline: fn(usize) -> bool,
    ) -> Result<(), String> {
        let (va, vb) = (a.to_vec(), b.to_vec());
        let from_vec = |v: &Vec<Value>| InlineCells::<N, L>::from(v.clone());
        // A filter's size hint promises at most, not exactly, its count.
        let filtered = |v: &Vec<Value>| -> InlineCells<N, L> { v.iter().filter(|_| true).cloned().collect() };
        let collected = |v: &Vec<Value>| -> InlineCells<N, L> { v.iter().cloned().collect() };
        for (ca, cb) in [(from_vec(&va), filtered(&vb)), (collected(&va), from_vec(&vb))] {
            prop_assert_eq!(&*ca, a);
            prop_assert_eq!(matches!(ca.0, Repr::Inline { .. }), inline(a.len()));
            prop_assert_eq!(ca == cb, va == vb);
            prop_assert_eq!(ca == vb, va == vb);
            prop_assert_eq!(ca.cmp(&cb), va.cmp(&vb));
            prop_assert_eq!(ca.partial_cmp(&cb), va.partial_cmp(&vb));
            prop_assert_eq!(written(&ca), written(&va));
            prop_assert_eq!(format!("{ca:?}"), format!("{va:?}"));
            prop_assert_eq!(format!("{ca:#?}"), format!("{va:#?}"));
            prop_assert_eq!(ca.into_vec(), va.clone());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Keys and aggregates of 0-4 cells at both instantiations, then
        /// as the halves of a row: its traits, `Display` and wire form.
        #[test]
        fn prop_inline_cells_match_the_vec(
            x in (arb_cells(), arb_cells()),
            y in (arb_cells(), arb_cells()),
        ) {
            for (a, b) in [(&x.0, &y.0), (&x.1, &y.1)] {
                check::<1, ()>(a, b, |n| n == 1)?;
                check::<2, u8>(a, b, |n| n <= 2)?;
            }
            let row = |(k, a): &(Vec<Value>, Vec<Value>)| ResultRow::new(GroupKey::new(k.clone()), a.clone());
            let vec_row = |(k, a): &(Vec<Value>, Vec<Value>)| vec::ResultRow {
                key: vec::GroupKey { values: k.clone() },
                aggs: a.clone(),
            };
            let (ra, rb, va, vb) = (row(&x), row(&y), vec_row(&x), vec_row(&y));
            prop_assert_eq!(ra == rb, va == vb);
            prop_assert_eq!(ra.cmp(&rb), va.cmp(&vb));
            prop_assert_eq!(ra.partial_cmp(&rb), va.partial_cmp(&vb));
            prop_assert_eq!(written(&(&ra.key, &ra.aggs)), written(&(&va.key, &va.aggs)));
            prop_assert_eq!(format!("{ra:?}"), format!("{va:?}"));
            prop_assert_eq!(format!("{ra:#?}"), format!("{va:#?}"));
            prop_assert_eq!(ra.to_string(), va.to_string());
            prop_assert_eq!(ra.key.clone().into_values(), x.0.clone());
            if let [v] = ra.key.values() {
                prop_assert_eq!(&GroupKey::one(v.clone()), &ra.key);
            }
            // Wire round trip under a query of the row's shape.
            let query = AggQuery::new((0..x.0.len()).collect(), vec![AggSpec::count_star(); x.1.len()]);
            let wire: Vec<Value> = x.0.iter().chain(&x.1).cloned().collect();
            prop_assert_eq!(ra.clone().into_values(), wire.clone());
            prop_assert_eq!(ResultRow::from_values(&query, wire).unwrap(), ra);
        }
    }
}
