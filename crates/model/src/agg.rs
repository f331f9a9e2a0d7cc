//! Aggregate functions and *mergeable* partial states.
//!
//! The paper's algorithms hinge on partial aggregation: the Two Phase
//! family aggregates locally, ships *partial results*, and merges them; the
//! Adaptive Two Phase algorithm additionally requires the merge phase to
//! accept **raw tuples and partial rows interleaved in one hash table**
//! (§3.2: "Both kinds of tuples can be merged into the same hash table").
//!
//! Every function therefore defines three operations:
//!
//! * [`AggState::update`] — fold in a raw input value (SQL semantics:
//!   NULLs are skipped; `COUNT(*)` counts rows);
//! * [`AggState::merge`] / [`AggStates::merge_partial_values`] — fold in
//!   another partial state (associative & commutative — property-tested);
//! * [`AggState::finalize`] — emit the SQL result value.
//!
//! Partial states are encoded as plain [`Value`] columns
//! ([`AggState::to_partial_values`]) so they travel in ordinary tuples
//! through the same pages and messages as raw data — exactly how the
//! paper's implementation forwards "locally aggregated values".

use crate::error::ModelError;
use crate::value::{CellSink, Value};
use std::fmt;

/// Whether a row is a raw input tuple or an encoded partial-aggregate row.
///
/// The paper's merge phases receive "two kinds of tuples … locally
/// aggregated values and … raw (perhaps projected) tuples" (§3.2); this tag
/// travels with every data page on the wire and with every spilled tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKind {
    /// A projected base tuple.
    Raw,
    /// Group-key columns followed by encoded partial-state columns.
    Partial,
}

impl fmt::Display for RowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowKind::Raw => write!(f, "raw"),
            RowKind::Partial => write!(f, "partial"),
        }
    }
}

/// The SQL aggregate functions the paper's workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` (with `input: None`) or `COUNT(col)` (non-NULL count).
    Count,
    /// `SUM(col)` over a numeric column. NULL over empty input.
    Sum,
    /// `AVG(col)` over a numeric column. NULL over empty input.
    Avg,
    /// `MIN(col)` over any orderable column.
    Min,
    /// `MAX(col)` over any orderable column.
    Max,
    /// Population variance `VAR_POP(col)` — an extension beyond the
    /// paper's COUNT/SUM/AVG/MIN/MAX set, included because its partial
    /// state (count, sum, sum of squares) exercises multi-column
    /// mergeability beyond AVG's two columns.
    VarPop,
    /// Population standard deviation `STDDEV_POP(col)` (same state as
    /// [`AggFunc::VarPop`], square-rooted at finalize).
    StddevPop,
}

impl AggFunc {
    /// Number of columns this function's partial state occupies when
    /// encoded into a partial row (AVG needs `sum` and `count`; the
    /// variance family needs `sum`, `sum of squares`, and `count`).
    pub fn partial_arity(self) -> usize {
        match self {
            AggFunc::Avg => 2,
            AggFunc::VarPop | AggFunc::StddevPop => 3,
            _ => 1,
        }
    }

    /// SQL-ish name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::VarPop => "VAR_POP",
            AggFunc::StddevPop => "STDDEV_POP",
        }
    }

    /// All functions (test sweeps).
    pub const ALL: [AggFunc; 7] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::VarPop,
        AggFunc::StddevPop,
    ];
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One aggregate expression in a query: a function over an input column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// The input column index into the (projected) tuple, or `None` for
    /// `COUNT(*)`.
    pub input: Option<usize>,
}

impl AggSpec {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggSpec {
            func: AggFunc::Count,
            input: None,
        }
    }

    /// A function over a column.
    pub fn over(func: AggFunc, column: usize) -> Self {
        AggSpec {
            func,
            input: Some(column),
        }
    }
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.input {
            Some(c) => write!(f, "{}(col{})", self.func, c),
            None => write!(f, "{}(*)", self.func),
        }
    }
}

/// Numeric accumulator that stays integral as long as inputs are integers
/// (i128 so 8M-row i64 sums cannot overflow) and promotes to float when a
/// float arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NumAcc {
    Int(i128),
    Float(f64),
}

impl NumAcc {
    fn zero() -> Self {
        NumAcc::Int(0)
    }

    fn add_value(&mut self, v: &Value, context: &'static str) -> Result<(), ModelError> {
        match v {
            Value::Int(i) => match self {
                NumAcc::Int(acc) => *acc += *i as i128,
                NumAcc::Float(acc) => *acc += *i as f64,
            },
            Value::Float(f) => {
                let cur = self.as_f64();
                *self = NumAcc::Float(cur + f);
            }
            other => {
                return Err(ModelError::TypeMismatch {
                    expected: "numeric",
                    found: other.type_name(),
                    context,
                })
            }
        }
        Ok(())
    }

    fn add_int(&mut self, x: i64) {
        match self {
            NumAcc::Int(acc) => *acc += x as i128,
            NumAcc::Float(acc) => *acc += x as f64,
        }
    }

    fn add_acc(&mut self, other: NumAcc) {
        match (&mut *self, other) {
            (NumAcc::Int(a), NumAcc::Int(b)) => *a += b,
            (NumAcc::Float(a), NumAcc::Float(b)) => *a += b,
            (NumAcc::Int(_), NumAcc::Float(b)) => *self = NumAcc::Float(self.as_f64() + b),
            (NumAcc::Float(a), NumAcc::Int(b)) => *a += b as f64,
        }
    }

    fn as_f64(&self) -> f64 {
        match self {
            NumAcc::Int(i) => *i as f64,
            NumAcc::Float(f) => *f,
        }
    }

    fn to_value(self) -> Value {
        match self {
            // Lazily: `i128 as f64` is a library call, and almost every
            // sum fits.
            NumAcc::Int(i) => match i64::try_from(i) {
                Ok(x) => Value::Int(x),
                Err(_) => Value::Float(i as f64),
            },
            NumAcc::Float(f) => Value::Float(f),
        }
    }

    fn from_value(v: &Value, context: &'static str) -> Result<Option<NumAcc>, ModelError> {
        match v {
            Value::Null => Ok(None),
            Value::Int(i) => Ok(Some(NumAcc::Int(*i as i128))),
            Value::Float(f) => Ok(Some(NumAcc::Float(*f))),
            other => Err(ModelError::TypeMismatch {
                expected: "numeric",
                found: other.type_name(),
                context,
            }),
        }
    }
}

/// The running state of one aggregate function for one group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Row / non-NULL count.
    Count(u64),
    /// Running sum; `None` until the first non-NULL input (SQL: SUM of
    /// nothing is NULL, not 0).
    Sum(Option<NumAccState>),
    /// Running sum and count for AVG.
    Avg { sum: NumAccState, count: u64 },
    /// Current minimum; `None` until the first non-NULL input.
    Min(Option<Value>),
    /// Current maximum; `None` until the first non-NULL input.
    Max(Option<Value>),
    /// Running moments for the variance family: Σx, Σx², non-NULL count.
    /// `stddev` selects the square root at finalize.
    Var {
        /// Σx (floats: variance is inherently floating point).
        sum: f64,
        /// Σx².
        sum_sq: f64,
        /// Non-NULL inputs.
        count: u64,
        /// `true` for STDDEV_POP, `false` for VAR_POP.
        stddev: bool,
    },
}

/// Public opaque wrapper over the numeric accumulator (keeps `NumAcc`
/// private while letting `AggState` derive its traits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumAccState(NumAcc);

impl AggState {
    /// Fresh state for a function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Avg => AggState::Avg {
                sum: NumAccState(NumAcc::zero()),
                count: 0,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::VarPop => AggState::Var {
                sum: 0.0,
                sum_sq: 0.0,
                count: 0,
                stddev: false,
            },
            AggFunc::StddevPop => AggState::Var {
                sum: 0.0,
                sum_sq: 0.0,
                count: 0,
                stddev: true,
            },
        }
    }

    /// The function this state belongs to.
    pub fn func(&self) -> AggFunc {
        match self {
            AggState::Count(_) => AggFunc::Count,
            AggState::Sum(_) => AggFunc::Sum,
            AggState::Avg { .. } => AggFunc::Avg,
            AggState::Min(_) => AggFunc::Min,
            AggState::Max(_) => AggFunc::Max,
            AggState::Var { stddev: false, .. } => AggFunc::VarPop,
            AggState::Var { stddev: true, .. } => AggFunc::StddevPop,
        }
    }

    /// Fold in a raw input value. `input` is `None` for `COUNT(*)`.
    /// SQL semantics: NULL inputs are skipped by every function except
    /// `COUNT(*)`.
    pub fn update(&mut self, input: Option<&Value>) -> Result<(), ModelError> {
        match self {
            AggState::Count(n) => match input {
                None => *n += 1,                    // COUNT(*)
                Some(Value::Null) => {}             // COUNT(col) skips NULL
                Some(_) => *n += 1,
            },
            AggState::Sum(acc) => {
                let v = input.ok_or(ModelError::TypeMismatch {
                    expected: "a column",
                    found: "COUNT(*)-style missing input",
                    context: "SUM update",
                })?;
                if !v.is_null() {
                    match acc {
                        Some(a) => a.0.add_value(v, "SUM update")?,
                        None => {
                            *acc = NumAcc::from_value(v, "SUM update")?.map(NumAccState);
                        }
                    }
                }
            }
            AggState::Avg { sum, count } => {
                let v = input.ok_or(ModelError::TypeMismatch {
                    expected: "a column",
                    found: "COUNT(*)-style missing input",
                    context: "AVG update",
                })?;
                if !v.is_null() {
                    sum.0.add_value(v, "AVG update")?;
                    *count += 1;
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = input.filter(|v| !v.is_null()) {
                    match cur {
                        Some(m) if &*m <= v => {}
                        _ => *cur = Some(v.clone()),
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = input.filter(|v| !v.is_null()) {
                    match cur {
                        Some(m) if &*m >= v => {}
                        _ => *cur = Some(v.clone()),
                    }
                }
            }
            AggState::Var {
                sum,
                sum_sq,
                count,
                ..
            } => {
                let v = input.ok_or(ModelError::TypeMismatch {
                    expected: "a column",
                    found: "COUNT(*)-style missing input",
                    context: "VAR update",
                })?;
                if !v.is_null() {
                    let x = v.as_f64().ok_or(ModelError::TypeMismatch {
                        expected: "numeric",
                        found: v.type_name(),
                        context: "VAR update",
                    })?;
                    *sum += x;
                    *sum_sq += x * x;
                    *count += 1;
                }
            }
        }
        Ok(())
    }

    /// Fold in a raw `Int` input — the validity-free fixed-width arm of
    /// the batched columnar update. Bit-identical to
    /// `update(Some(&Value::Int(x)))`, which is infallible for every
    /// function, so no error channel is needed.
    #[inline]
    pub fn update_int(&mut self, x: i64) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(acc) => match acc {
                Some(a) => a.0.add_int(x),
                None => *acc = Some(NumAccState(NumAcc::Int(x as i128))),
            },
            AggState::Avg { sum, count } => {
                sum.0.add_int(x);
                *count += 1;
            }
            AggState::Min(cur) => {
                let v = Value::Int(x);
                match cur {
                    Some(m) if *m <= v => {}
                    _ => *cur = Some(v),
                }
            }
            AggState::Max(cur) => {
                let v = Value::Int(x);
                match cur {
                    Some(m) if *m >= v => {}
                    _ => *cur = Some(v),
                }
            }
            AggState::Var {
                sum,
                sum_sq,
                count,
                ..
            } => {
                let f = x as f64;
                *sum += f;
                *sum_sq += f * f;
                *count += 1;
            }
        }
    }

    /// Fold in one row of `COUNT(*)` (no input column). Only valid for a
    /// `COUNT` state — the batched path's eligibility check guarantees
    /// that.
    #[inline]
    pub fn update_star(&mut self) {
        match self {
            AggState::Count(n) => *n += 1,
            other => unreachable!("COUNT(*)-style update on {} state", other.func()),
        }
    }

    /// Merge another state of the same function into this one.
    /// Associative and commutative (property-tested below).
    pub fn merge(&mut self, other: &AggState) -> Result<(), ModelError> {
        match (&mut *self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => match (&mut *a, b) {
                (_, None) => {}
                (Some(x), Some(y)) => x.0.add_acc(y.0),
                (None, Some(y)) => *a = Some(*y),
            },
            (
                AggState::Avg { sum: sa, count: ca },
                AggState::Avg { sum: sb, count: cb },
            ) => {
                sa.0.add_acc(sb.0);
                *ca += cb;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(y) = b {
                    match a {
                        Some(x) if &*x <= y => {}
                        _ => *a = Some(y.clone()),
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(y) = b {
                    match a {
                        Some(x) if &*x >= y => {}
                        _ => *a = Some(y.clone()),
                    }
                }
            }
            (
                AggState::Var {
                    sum: sa,
                    sum_sq: qa,
                    count: ca,
                    stddev: da,
                },
                AggState::Var {
                    sum: sb,
                    sum_sq: qb,
                    count: cb,
                    stddev: db,
                },
            ) if da == db => {
                *sa += sb;
                *qa += qb;
                *ca += cb;
            }
            (a, b) => {
                return Err(ModelError::TypeMismatch {
                    expected: a.func().name(),
                    found: b.func().name(),
                    context: "state merge",
                })
            }
        }
        Ok(())
    }

    /// Encode the state as partial-row columns (arity =
    /// [`AggFunc::partial_arity`]). The inverse of
    /// [`AggState::merge_partial`].
    pub fn to_partial_values(&self, out: &mut Vec<Value>) {
        self.partial_cells(out);
    }

    /// [`AggState::to_partial_values`] into any [`CellSink`]: the cells a
    /// partial row carries for this state, `Int`s handed over as `i64`s.
    pub fn partial_cells<S: CellSink>(&self, sink: &mut S) {
        match self {
            AggState::Count(n) => sink.int(*n as i64),
            AggState::Sum(acc) => match acc {
                Some(a) => sink.value(&a.0.to_value()),
                None => sink.value(&Value::Null),
            },
            AggState::Avg { sum, count } => {
                match count {
                    0 => sink.value(&Value::Null),
                    _ => sink.value(&sum.0.to_value()),
                }
                sink.int(*count as i64);
            }
            AggState::Min(v) | AggState::Max(v) => sink.value(v.as_ref().unwrap_or(&Value::Null)),
            AggState::Var {
                sum,
                sum_sq,
                count,
                ..
            } => {
                sink.value(&Value::Float(*sum));
                sink.value(&Value::Float(*sum_sq));
                sink.int(*count as i64);
            }
        }
    }

    /// [`AggState::merge_partial`] of cells that are all `Int`s, as a run
    /// merge reads them off a page's `Int` strips: the same state and the
    /// same errors, with no [`Value`] built on the way while the state
    /// itself is integral.
    pub fn merge_partial_ints(&mut self, cells: &[i64]) -> Result<(), ModelError> {
        match (&mut *self, cells) {
            (AggState::Count(n), &[add]) if add >= 0 => *n += add as u64,
            (AggState::Sum(Some(acc)), &[x]) => acc.0.add_int(x),
            (AggState::Sum(acc @ None), &[x]) => *acc = Some(NumAccState(NumAcc::Int(x as i128))),
            (AggState::Avg { sum, count }, &[s, c]) if c >= 0 => {
                if c > 0 {
                    sum.0.add_int(s);
                    *count += c as u64;
                }
            }
            (AggState::Min(cur), &[x]) => {
                if !matches!(cur, Some(m) if *m <= Value::Int(x)) {
                    *cur = Some(Value::Int(x));
                }
            }
            (AggState::Max(cur), &[x]) => {
                if !matches!(cur, Some(m) if *m >= Value::Int(x)) {
                    *cur = Some(Value::Int(x));
                }
            }
            // A malformed row, or moments shipped as integers: rare enough
            // to go the long way round.
            _ => {
                let cells: Vec<Value> = cells.iter().map(|&x| Value::Int(x)).collect();
                return self.merge_partial(&cells);
            }
        }
        Ok(())
    }

    /// Merge encoded partial columns (as produced by
    /// [`AggState::to_partial_values`]) into this state. `cols` must have
    /// exactly `partial_arity` elements.
    pub fn merge_partial(&mut self, cols: &[Value]) -> Result<(), ModelError> {
        let expect = self.func().partial_arity();
        if cols.len() != expect {
            return Err(ModelError::PartialArityMismatch {
                expected: expect,
                found: cols.len(),
            });
        }
        match self {
            AggState::Count(n) => {
                let add = cols[0].as_i64().ok_or(ModelError::TypeMismatch {
                    expected: "Int",
                    found: cols[0].type_name(),
                    context: "COUNT partial merge",
                })?;
                *n += u64::try_from(add).map_err(|_| ModelError::Corrupt("negative COUNT partial"))?;
            }
            AggState::Sum(acc) => {
                if let Some(v) = NumAcc::from_value(&cols[0], "SUM partial merge")? {
                    match acc {
                        Some(a) => a.0.add_acc(v),
                        None => *acc = Some(NumAccState(v)),
                    }
                }
            }
            AggState::Avg { sum, count } => {
                let c = cols[1].as_i64().ok_or(ModelError::TypeMismatch {
                    expected: "Int",
                    found: cols[1].type_name(),
                    context: "AVG partial merge (count)",
                })?;
                let c = u64::try_from(c).map_err(|_| ModelError::Corrupt("negative AVG count"))?;
                if c > 0 {
                    let v = NumAcc::from_value(&cols[0], "AVG partial merge (sum)")?
                        .ok_or(ModelError::Corrupt("AVG partial: NULL sum with count > 0"))?;
                    sum.0.add_acc(v);
                    *count += c;
                }
            }
            AggState::Min(cur) => {
                if !cols[0].is_null() {
                    match cur {
                        Some(m) if *m <= cols[0] => {}
                        _ => *cur = Some(cols[0].clone()),
                    }
                }
            }
            AggState::Max(cur) => {
                if !cols[0].is_null() {
                    match cur {
                        Some(m) if *m >= cols[0] => {}
                        _ => *cur = Some(cols[0].clone()),
                    }
                }
            }
            AggState::Var {
                sum,
                sum_sq,
                count,
                ..
            } => {
                let s = cols[0].as_f64().ok_or(ModelError::TypeMismatch {
                    expected: "numeric",
                    found: cols[0].type_name(),
                    context: "VAR partial merge (sum)",
                })?;
                let q = cols[1].as_f64().ok_or(ModelError::TypeMismatch {
                    expected: "numeric",
                    found: cols[1].type_name(),
                    context: "VAR partial merge (sum_sq)",
                })?;
                let c = cols[2].as_i64().ok_or(ModelError::TypeMismatch {
                    expected: "Int",
                    found: cols[2].type_name(),
                    context: "VAR partial merge (count)",
                })?;
                let c = u64::try_from(c).map_err(|_| ModelError::Corrupt("negative VAR count"))?;
                *sum += s;
                *sum_sq += q;
                *count += c;
            }
        }
        Ok(())
    }

    /// The SQL result value.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Sum(acc) => match acc {
                Some(a) => a.0.to_value(),
                None => Value::Null,
            },
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.0.as_f64() / *count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            AggState::Var {
                sum,
                sum_sq,
                count,
                stddev,
            } => {
                if *count == 0 {
                    Value::Null
                } else {
                    let n = *count as f64;
                    let mean = sum / n;
                    // Guard the subtraction against tiny negative
                    // floating-point residue.
                    let var = (sum_sq / n - mean * mean).max(0.0);
                    Value::Float(if *stddev { var.sqrt() } else { var })
                }
            }
        }
    }
}

/// What the [`GroupStore`](crate::GroupStore)'s typed state columns need
/// of the private accumulator: the general state an all-`Int` column cell
/// demotes to, and how an integral sum reads as a [`Value`].
impl AggState {
    /// A `SUM` state whose inputs so far were integers adding up to `sum`
    /// (`None`: no non-NULL input yet).
    pub(crate) fn int_sum(sum: Option<i128>) -> Self {
        AggState::Sum(sum.map(|s| NumAccState(NumAcc::Int(s))))
    }

    /// An `AVG` state over `count` integer inputs adding up to `sum`.
    pub(crate) fn int_avg(sum: i128, count: u64) -> Self {
        AggState::Avg {
            sum: NumAccState(NumAcc::Int(sum)),
            count,
        }
    }

    /// An integral sum as partial rows and results carry it: `Int` while
    /// it fits, `Float` past `i64`.
    pub(crate) fn int_sum_value(sum: i128) -> Value {
        NumAcc::Int(sum).to_value()
    }
}

/// Row-level operations over a bare `[AggState]` slice (one state per
/// spec): what [`AggStates`] owns per group.
impl AggState {
    /// Fold a raw tuple into a row of states: for each spec, extract its
    /// input column and update the matching state.
    #[inline]
    pub fn update_row(
        states: &mut [AggState],
        specs: &[AggSpec],
        tuple_values: &[Value],
    ) -> Result<(), ModelError> {
        debug_assert_eq!(specs.len(), states.len());
        for (state, spec) in states.iter_mut().zip(specs) {
            let input = match spec.input {
                Some(c) => Some(tuple_values.get(c).ok_or(ModelError::ColumnOutOfRange {
                    column: c,
                    arity: tuple_values.len(),
                })?),
                None => None,
            };
            state.update(input)?;
        }
        Ok(())
    }

    /// Fold an encoded partial row (the non-key columns of a partial
    /// tuple, concatenated per function in spec order) into a row of
    /// states.
    #[inline]
    pub fn merge_partial_row(states: &mut [AggState], cols: &[Value]) -> Result<(), ModelError> {
        let expected: usize = states.iter().map(|s| s.func().partial_arity()).sum();
        if cols.len() != expected {
            return Err(ModelError::PartialArityMismatch {
                expected,
                found: cols.len(),
            });
        }
        let mut pos = 0;
        for state in states.iter_mut() {
            let n = state.func().partial_arity();
            state.merge_partial(&cols[pos..pos + n])?;
            pos += n;
        }
        Ok(())
    }
}

/// The states of *all* of a query's aggregates for one group — the value
/// side of every hash-table entry in the system.
#[derive(Debug, Clone, PartialEq)]
pub struct AggStates {
    states: Box<[AggState]>,
}

impl AggStates {
    /// Fresh states for a query's aggregate list.
    pub fn new(specs: &[AggSpec]) -> Self {
        AggStates {
            states: specs.iter().map(|s| AggState::new(s.func)).collect(),
        }
    }

    /// Number of aggregate functions.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the query has no aggregates (pure duplicate elimination).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The individual states.
    pub fn states(&self) -> &[AggState] {
        &self.states
    }

    /// Total partial-row arity across all aggregates.
    pub fn partial_arity(&self) -> usize {
        self.states.iter().map(|s| s.func().partial_arity()).sum()
    }

    /// Fold in a raw tuple: for each spec, extract its input column and
    /// update the matching state.
    pub fn update_from_tuple(
        &mut self,
        specs: &[AggSpec],
        tuple_values: &[Value],
    ) -> Result<(), ModelError> {
        AggState::update_row(&mut self.states, specs, tuple_values)
    }

    /// Columnar fast-path update for spec `idx` with an `Int` input cell
    /// (see [`AggState::update_int`]). The batched probe defers updates
    /// behind a group-index vector and replays them column-at-a-time
    /// through here, in row order per state — bit-identical to the
    /// row-at-a-time [`AggStates::update_from_tuple`] because states of
    /// different specs never interact.
    #[inline]
    pub fn update_int_at(&mut self, idx: usize, x: i64) {
        self.states[idx].update_int(x);
    }

    /// Columnar `COUNT(*)` update for spec `idx` (see
    /// [`AggState::update_star`]).
    #[inline]
    pub fn update_star_at(&mut self, idx: usize) {
        self.states[idx].update_star();
    }

    /// Fold in an encoded partial row (the non-key columns of a partial
    /// tuple, concatenated per function in spec order).
    pub fn merge_partial_values(&mut self, cols: &[Value]) -> Result<(), ModelError> {
        AggState::merge_partial_row(&mut self.states, cols)
    }

    /// Merge another whole state row (e.g. combining two hash tables).
    pub fn merge(&mut self, other: &AggStates) -> Result<(), ModelError> {
        if self.states.len() != other.states.len() {
            return Err(ModelError::PartialArityMismatch {
                expected: self.states.len(),
                found: other.states.len(),
            });
        }
        for (a, b) in self.states.iter_mut().zip(other.states.iter()) {
            a.merge(b)?;
        }
        Ok(())
    }

    /// Encode all states as partial-row columns.
    pub fn to_partial_values(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.partial_arity());
        for s in self.states.iter() {
            s.to_partial_values(&mut out);
        }
        out
    }

    /// Finalize all states into result columns.
    pub fn finalize(&self) -> Vec<Value> {
        self.states.iter().map(|s| s.finalize()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, inputs: &[Value]) -> Value {
        let mut s = AggState::new(func);
        for v in inputs {
            s.update(Some(v)).unwrap();
        }
        s.finalize()
    }

    #[test]
    fn count_star_counts_rows_including_nulls() {
        let mut s = AggState::new(AggFunc::Count);
        for _ in 0..3 {
            s.update(None).unwrap();
        }
        assert_eq!(s.finalize(), Value::Int(3));
    }

    #[test]
    fn count_col_skips_nulls() {
        assert_eq!(
            run(AggFunc::Count, &[Value::Int(1), Value::Null, Value::Int(2)]),
            Value::Int(2)
        );
    }

    #[test]
    fn sum_of_ints_stays_int() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Int(2), Value::Int(3)]),
            Value::Int(6)
        );
    }

    #[test]
    fn sum_promotes_to_float() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
    }

    #[test]
    fn sum_of_nothing_is_null() {
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Sum, &[Value::Null]), Value::Null);
    }

    #[test]
    fn sum_near_i64_max_does_not_overflow() {
        let big = i64::MAX - 10;
        let v = run(AggFunc::Sum, &[Value::Int(big), Value::Int(big)]);
        // 2*(i64::MAX-10) exceeds i64: falls back to float.
        assert_eq!(v, Value::Float((big as f64) * 2.0));
    }

    #[test]
    fn sum_over_string_is_type_error() {
        let mut s = AggState::new(AggFunc::Sum);
        let err = s.update(Some(&Value::Str("x".into()))).unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
    }

    #[test]
    fn avg_divides_sum_by_nonnull_count() {
        assert_eq!(
            run(AggFunc::Avg, &[Value::Int(1), Value::Null, Value::Int(2)]),
            Value::Float(1.5)
        );
        assert_eq!(run(AggFunc::Avg, &[]), Value::Null);
    }

    #[test]
    fn min_max_over_values() {
        let vs = [Value::Int(5), Value::Int(-2), Value::Null, Value::Int(9)];
        assert_eq!(run(AggFunc::Min, &vs), Value::Int(-2));
        assert_eq!(run(AggFunc::Max, &vs), Value::Int(9));
        assert_eq!(run(AggFunc::Min, &[Value::Null]), Value::Null);
    }

    #[test]
    fn min_max_over_strings() {
        let vs = [Value::Str("pear".into()), Value::Str("apple".into())];
        assert_eq!(run(AggFunc::Min, &vs), Value::Str("apple".into()));
        assert_eq!(run(AggFunc::Max, &vs), Value::Str("pear".into()));
    }

    #[test]
    fn var_pop_and_stddev_pop() {
        // Values 2, 4, 4, 4, 5, 5, 7, 9: mean 5, variance 4, stddev 2.
        let vs: Vec<Value> = [2i64, 4, 4, 4, 5, 5, 7, 9].iter().map(|&x| Value::Int(x)).collect();
        assert_eq!(run(AggFunc::VarPop, &vs), Value::Float(4.0));
        assert_eq!(run(AggFunc::StddevPop, &vs), Value::Float(2.0));
        assert_eq!(run(AggFunc::VarPop, &[]), Value::Null);
        assert_eq!(run(AggFunc::VarPop, &[Value::Null]), Value::Null);
        // A single value has zero variance.
        assert_eq!(run(AggFunc::VarPop, &[Value::Int(42)]), Value::Float(0.0));
    }

    #[test]
    fn var_over_string_is_type_error() {
        let mut s = AggState::new(AggFunc::VarPop);
        assert!(s.update(Some(&Value::Str("x".into()))).is_err());
    }

    #[test]
    fn var_partial_state_is_three_columns() {
        let mut s = AggState::new(AggFunc::StddevPop);
        s.update(Some(&Value::Int(3))).unwrap();
        s.update(Some(&Value::Int(5))).unwrap();
        let mut cols = Vec::new();
        s.to_partial_values(&mut cols);
        assert_eq!(
            cols,
            vec![Value::Float(8.0), Value::Float(34.0), Value::Int(2)]
        );
    }

    #[test]
    fn var_merge_rejects_mixed_var_and_stddev() {
        // Same state layout, different finalize: merging them would
        // silently corrupt semantics, so it must error.
        let mut a = AggState::new(AggFunc::VarPop);
        let b = AggState::new(AggFunc::StddevPop);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn partial_round_trip_equals_direct() {
        // Split an input stream in two, aggregate halves, ship as partial
        // rows, merge — must equal aggregating the whole stream directly.
        let inputs: Vec<Value> = (0..10).map(Value::Int).collect();
        for func in AggFunc::ALL {
            let direct = run(func, &inputs);

            let mut a = AggState::new(func);
            let mut b = AggState::new(func);
            for v in &inputs[..4] {
                a.update(Some(v)).unwrap();
            }
            for v in &inputs[4..] {
                b.update(Some(v)).unwrap();
            }
            let mut merged = AggState::new(func);
            let mut pa = Vec::new();
            a.to_partial_values(&mut pa);
            let mut pb = Vec::new();
            b.to_partial_values(&mut pb);
            merged.merge_partial(&pa).unwrap();
            merged.merge_partial(&pb).unwrap();
            assert_eq!(merged.finalize(), direct, "{func} partial round-trip");
        }
    }

    #[test]
    fn empty_partials_merge_to_empty() {
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            let empty = AggState::new(func);
            let mut p = Vec::new();
            empty.to_partial_values(&mut p);
            let mut merged = AggState::new(func);
            merged.merge_partial(&p).unwrap();
            assert_eq!(merged.finalize(), Value::Null, "{func}");
        }
    }

    #[test]
    fn merge_rejects_mismatched_functions() {
        let mut a = AggState::new(AggFunc::Sum);
        let b = AggState::new(AggFunc::Count);
        assert!(a.merge(&b).is_err());
    }

    /// `merge_partial_ints` is `merge_partial` of the same cells as
    /// values: over every function, states that are fresh, integral,
    /// already `Float` and (MIN/MAX) holding a string, cells at both ends
    /// of `i64`, negative counts and the wrong number of cells.
    #[test]
    fn merge_partial_ints_is_merge_partial_of_int_values() {
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::VarPop,
            AggFunc::StddevPop,
        ];
        let seeds = [None, Some(Value::Int(5)), Some(Value::Float(2.5)), Some(Value::from("s"))];
        let cells = [i64::MIN, -3, 0, 1, 7, i64::MAX];
        for func in funcs {
            for seed in &seeds {
                let mut start = AggState::new(func);
                if let Some(v) = seed {
                    if start.update(Some(v)).is_err() {
                        continue; // SUM over a string: no such state
                    }
                }
                for n in 0..=3 {
                    for &a in &cells {
                        for &b in &cells[1..4] {
                            let ints = [a, b, 2];
                            let values = ints.map(Value::Int);
                            let (mut typed, mut general) = (start.clone(), start.clone());
                            // Twice: the second fold meets the first's state.
                            for _ in 0..2 {
                                let t = typed.merge_partial_ints(&ints[..n]);
                                let g = general.merge_partial(&values[..n]);
                                assert_eq!(t, g, "{func} from {start:?}: {:?}", &ints[..n]);
                                assert_eq!(typed, general, "{func} from {start:?}: {:?}", &ints[..n]);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn merge_partial_rejects_wrong_arity() {
        let mut a = AggState::new(AggFunc::Avg);
        assert_eq!(
            a.merge_partial(&[Value::Int(1)]),
            Err(ModelError::PartialArityMismatch {
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn states_row_update_and_finalize() {
        let specs = [
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Sum, 1),
            AggSpec::over(AggFunc::Avg, 1),
            AggSpec::over(AggFunc::Min, 1),
        ];
        let mut states = AggStates::new(&specs);
        states
            .update_from_tuple(&specs, &[Value::Int(0), Value::Int(10)])
            .unwrap();
        states
            .update_from_tuple(&specs, &[Value::Int(0), Value::Int(20)])
            .unwrap();
        assert_eq!(
            states.finalize(),
            vec![
                Value::Int(2),
                Value::Int(30),
                Value::Float(15.0),
                Value::Int(10)
            ]
        );
        assert_eq!(states.partial_arity(), 1 + 1 + 2 + 1);
    }

    #[test]
    fn states_row_partial_round_trip() {
        let specs = [
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Avg, 1),
        ];
        let mut a = AggStates::new(&specs);
        let mut b = AggStates::new(&specs);
        a.update_from_tuple(&specs, &[Value::Int(0), Value::Int(4)]).unwrap();
        b.update_from_tuple(&specs, &[Value::Int(0), Value::Int(8)]).unwrap();

        let mut merged = AggStates::new(&specs);
        merged.merge_partial_values(&a.to_partial_values()).unwrap();
        merged.merge_partial_values(&b.to_partial_values()).unwrap();
        assert_eq!(
            merged.finalize(),
            vec![Value::Int(2), Value::Float(6.0)]
        );
    }

    #[test]
    fn duplicate_elimination_has_no_states() {
        let states = AggStates::new(&[]);
        assert!(states.is_empty());
        assert_eq!(states.partial_arity(), 0);
        assert_eq!(states.finalize(), Vec::<Value>::new());
    }

    #[test]
    fn update_int_matches_update_for_every_function() {
        // The columnar fast path must leave *states* (not just results)
        // bit-identical, including NumAcc Int/Float promotion order.
        let inputs: Vec<i64> = vec![5, -2, 0, i64::MAX / 2, 7, -2];
        for func in AggFunc::ALL {
            let mut via_value = AggState::new(func);
            let mut via_int = AggState::new(func);
            for &x in &inputs {
                via_value.update(Some(&Value::Int(x))).unwrap();
                via_int.update_int(x);
            }
            assert_eq!(via_value, via_int, "{func} state diverged");
            assert_eq!(via_value.finalize(), via_int.finalize());
        }
        // After a float promotes the accumulator, ints keep folding in
        // identically.
        let mut a = AggState::new(AggFunc::Sum);
        let mut b = AggState::new(AggFunc::Sum);
        a.update(Some(&Value::Float(0.5))).unwrap();
        b.update(Some(&Value::Float(0.5))).unwrap();
        a.update(Some(&Value::Int(3))).unwrap();
        b.update_int(3);
        assert_eq!(a, b);
    }

    #[test]
    fn states_columnar_updates_match_row_updates() {
        let specs = [
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Sum, 1),
            AggSpec::over(AggFunc::Min, 0),
        ];
        let rows: Vec<[i64; 2]> = (0..20).map(|i| [i % 4, i * 3]).collect();
        let mut row_wise = AggStates::new(&specs);
        for r in &rows {
            row_wise
                .update_from_tuple(&specs, &[Value::Int(r[0]), Value::Int(r[1])])
                .unwrap();
        }
        // Column-at-a-time, one spec over the whole batch at a time.
        let mut col_wise = AggStates::new(&specs);
        for (j, spec) in specs.iter().enumerate() {
            for r in &rows {
                match spec.input {
                    None => col_wise.update_star_at(j),
                    Some(c) => col_wise.update_int_at(j, r[c]),
                }
            }
        }
        assert_eq!(row_wise, col_wise);
    }

    #[test]
    fn update_missing_input_column_errors() {
        let specs = [AggSpec::over(AggFunc::Sum, 5)];
        let mut states = AggStates::new(&specs);
        assert!(states
            .update_from_tuple(&specs, &[Value::Int(1)])
            .is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_inputs() -> impl Strategy<Value = Vec<Value>> {
        proptest::collection::vec(
            prop_oneof![
                Just(Value::Null),
                (-1000i64..1000).prop_map(Value::Int),
            ],
            0..40,
        )
    }

    fn fold(func: AggFunc, inputs: &[Value]) -> AggState {
        let mut s = AggState::new(func);
        for v in inputs {
            s.update(Some(v)).unwrap();
        }
        s
    }

    proptest! {
        /// Merging partials from any split equals direct aggregation:
        /// the foundation of every Two Phase variant.
        #[test]
        fn prop_any_split_merges_to_direct(
            inputs in arb_inputs(),
            split in 0usize..40,
        ) {
            let split = split.min(inputs.len());
            for func in AggFunc::ALL {
                let direct = fold(func, &inputs).finalize();
                let a = fold(func, &inputs[..split]);
                let b = fold(func, &inputs[split..]);
                let mut m = AggState::new(func);
                m.merge(&a).unwrap();
                m.merge(&b).unwrap();
                prop_assert_eq!(m.finalize(), direct);
            }
        }

        /// Merge is commutative.
        #[test]
        fn prop_merge_commutes(xs in arb_inputs(), ys in arb_inputs()) {
            for func in AggFunc::ALL {
                let a = fold(func, &xs);
                let b = fold(func, &ys);
                let mut ab = a.clone();
                ab.merge(&b).unwrap();
                let mut ba = b.clone();
                ba.merge(&a).unwrap();
                prop_assert_eq!(ab.finalize(), ba.finalize());
            }
        }

        /// Encoding to partial columns and merging back is lossless.
        #[test]
        fn prop_partial_encoding_round_trips(xs in arb_inputs()) {
            for func in AggFunc::ALL {
                let s = fold(func, &xs);
                let mut cols = Vec::new();
                s.to_partial_values(&mut cols);
                let mut back = AggState::new(func);
                back.merge_partial(&cols).unwrap();
                prop_assert_eq!(back.finalize(), s.finalize());
            }
        }
    }
}
