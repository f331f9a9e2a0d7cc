//! Group keys.
//!
//! A [`GroupKey`] is the projection of a tuple onto the GROUP BY columns,
//! owned: the key of a [`crate::ResultRow`]. The engine never hashes one —
//! partitioning, table placement and overflow bucketing hash the key cells
//! where they lie ([`crate::hash`]).

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The GROUP BY key of a tuple: an ordered list of the grouping values.
///
/// A one-column key holds its value inline, so a result row of a
/// one-column GROUP BY is one heap block (its aggregates), not two; wider
/// and empty keys box their values. [`GroupKey::values`] is the only
/// reader, and equality, order, hashing and `Debug` all go through it:
/// each is exactly what a derive over a `Box<[Value]>` field gives, so
/// which arm a key uses is never observable (DESIGN.md §26).
#[derive(Clone)]
pub struct GroupKey(Cells);

/// The storage of a [`GroupKey`]; the key's arity picks the arm. 24 bytes:
/// `Many` lives in a niche of `Value`'s tag.
#[derive(Clone)]
enum Cells {
    One(Value),
    Many(Box<[Value]>),
}

impl GroupKey {
    /// A key over the given values.
    pub fn new(values: Vec<Value>) -> Self {
        match <[Value; 1]>::try_from(values) {
            Ok([value]) => GroupKey::one(value),
            Err(values) => GroupKey(Cells::Many(values.into_boxed_slice())),
        }
    }

    /// A one-column key, held inline rather than in a boxed slice.
    pub fn one(value: Value) -> Self {
        GroupKey(Cells::One(value))
    }

    /// The key's values in grouping order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Cells::One(value) => std::slice::from_ref(value),
            Cells::Many(values) => values,
        }
    }

    /// The key's value when it is a single `Int`.
    #[inline]
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self.0 {
            Cells::One(Value::Int(x)) => Some(x),
            _ => None,
        }
    }

    /// Number of grouping columns (0 for scalar aggregation — the paper's
    /// "number of groups is 1" special case: every tuple has the same
    /// empty key).
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Consume the key, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        match self.0 {
            Cells::One(value) => vec![value],
            Cells::Many(values) => values.into_vec(),
        }
    }
}

impl PartialEq for GroupKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for GroupKey {}

impl PartialOrd for GroupKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupKey {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // What the slice compare returns for two one-element slices:
            // `merge_rows`' comparison on a one-column GROUP BY.
            (Cells::One(a), Cells::One(b)) => a.cmp(b),
            _ => self.values().cmp(other.values()),
        }
    }
}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupKey").field("values", &self.values()).finish()
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_aggregation_key_is_empty_and_unique() {
        let k1 = GroupKey::new(vec![]);
        let k2 = GroupKey::new(vec![]);
        assert_eq!(k1, k2, "scalar aggregation: all tuples share one group");
        assert_eq!(k1.arity(), 0);
    }

    #[test]
    fn display_uses_angle_brackets() {
        let k = GroupKey::new(vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(k.to_string(), "⟨1, x⟩");
    }

    #[test]
    fn one_column_keys_live_inline() {
        assert_eq!(std::mem::size_of::<GroupKey>(), 24);
        assert_eq!(std::mem::size_of::<crate::ResultRow>(), 80);
        assert!(matches!(GroupKey::new(vec![Value::Int(3)]).0, Cells::One(Value::Int(3))));
        assert!(matches!(GroupKey::new(vec![]).0, Cells::Many(_)));
        let two = GroupKey::new(vec![Value::Null, Value::Int(1)]);
        assert_eq!(two.clone().into_values(), two.values());
        assert_eq!(GroupKey::one(Value::Int(3)).into_values(), [Value::Int(3)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::GroupKey;
    use crate::value::Value;
    use proptest::prelude::*;
    use std::hash::{Hash, Hasher};

    /// The key as it was before one-column keys went inline: every trait
    /// derived over one boxed slice. `GroupKey` must behave exactly so.
    mod boxed {
        use crate::value::Value;

        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct GroupKey {
            pub values: Box<[Value]>,
        }
    }

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

    fn written(key: &impl Hash) -> Vec<u8> {
        let mut h = Written::default();
        key.hash(&mut h);
        h.0
    }

    /// Every `Value` kind, from domains small enough that keys collide.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-2i64..3).prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int),
            prop_oneof![Just(0.0), Just(-0.0), Just(f64::NAN), Just(1.5), Just(-1.5)]
                .prop_map(Value::Float),
            "[ab]{0,2}".prop_map(|s: String| Value::Str(s.into_boxed_str())),
        ]
    }

    fn arb_key() -> impl Strategy<Value = Vec<Value>> {
        proptest::collection::vec(arb_value(), 0..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn prop_traits_match_the_boxed_key(a in arb_key(), b in arb_key()) {
            let (ka, kb) = (GroupKey::new(a.clone()), GroupKey::new(b.clone()));
            let boxed = |v: Vec<Value>| boxed::GroupKey { values: v.into_boxed_slice() };
            let (ba, bb) = (boxed(a.clone()), boxed(b));
            prop_assert_eq!(ka == kb, ba == bb);
            prop_assert_eq!(ka.cmp(&kb), ba.cmp(&bb));
            prop_assert_eq!(ka.partial_cmp(&kb), ba.partial_cmp(&bb));
            prop_assert_eq!(written(&ka), written(&ba));
            prop_assert_eq!(format!("{ka:?}"), format!("{ba:?}"));
            prop_assert_eq!(format!("{ka:#?}"), format!("{ba:#?}"));
            prop_assert_eq!(GroupKey::new(a.clone()).into_values(), a);
            if let [v] = ka.values() {
                let one = GroupKey::one(v.clone());
                prop_assert_eq!(written(&one), written(&ka));
                prop_assert_eq!(one.cmp(&kb), ka.cmp(&kb));
            }
        }
    }
}
