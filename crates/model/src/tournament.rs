//! The k-way merge order of the workspace: a tournament tree of losers
//! over run heads, shared by the sorted-run merge (`sortagg::merge_runs`)
//! and the result-row merge ([`crate::query::merge_rows`]).
//!
//! A head is one `u128`: bit 96 set once its run is exhausted, the key
//! biased to an `u64` (its sign bit flipped) in bits 32..96 when every key
//! is a single `Int`, the run index below. As an integer it orders
//! (exhausted, key, run index) — the tree's whole order, an exhausted run
//! after every live one, equal keys by run index. When keys are not packed
//! the key bits are zero, and a [`HeadOrder`] reads the keys where they
//! lie.

/// A run's head as the tournament compares it (see the module docs).
pub type Head = u128;

/// The bit of a head whose run has no row left.
pub const EXHAUSTED: Head = 1 << 96;

/// The run index of a head.
#[inline]
pub fn run_of(head: Head) -> usize {
    head as u32 as usize
}

/// The head of run `run`, at a single-`Int` key.
#[inline]
pub fn int_head(key: i64, run: usize) -> Head {
    Head::from(key as u64 ^ 1 << 63) << 32 | run as Head
}

/// The head of run `run` once it has no row left.
#[inline]
pub fn exhausted(run: usize) -> Head {
    EXHAUSTED | run as Head
}

/// All ones when `a < b` as integers, else zero: the whole order of packed
/// heads, and of any two heads one of which is exhausted. Heads are below
/// 2^97, so `a - b` wraps past 2^127 exactly when `a < b`: its sign bit,
/// spread, is the mask — arithmetic the compiler keeps, where a compare
/// becomes a branch.
#[inline]
pub fn packed_before(a: Head, b: Head) -> Head {
    (a.wrapping_sub(b) as i128 >> 127) as Head
}

/// The mask [`HeadOrder::before`] returns for a compare made otherwise.
#[inline]
pub fn mask(before: bool) -> Head {
    Head::from(before).wrapping_neg()
}

/// `a` where `mask` is all ones, `b` where it is zero: a select without a
/// branch, whose outcome key order makes a coin toss.
#[inline]
pub fn pick(mask: Head, a: Head, b: Head) -> Head {
    b ^ ((a ^ b) & mask)
}

/// How the heads of a merge compare.
pub trait HeadOrder {
    /// All ones when head `a` sorts before head `b` under (exhausted, key,
    /// run index), else zero.
    fn before(&self, a: Head, b: Head) -> Head;
}

/// A tournament tree of losers over the run heads: leaf `i` is run `i`'s
/// head, the leaves padded to a power of two with exhausted heads; each
/// inner node keeps the head that lost the match played there, and
/// `nodes[0]` the overall winner. A new head at a leaf replays its path to
/// the root, one comparison a level; for packed `Int` heads the compare
/// and the swap are mask arithmetic ([`packed_before`], [`pick`]), no
/// branch.
pub struct Tournament {
    nodes: Vec<Head>,
}

impl Tournament {
    /// A tree over the runs' first heads, `leaves[i]` run `i`'s.
    pub fn new(leaves: Vec<Head>, order: &impl HeadOrder) -> Self {
        let width = leaves.len().next_power_of_two();
        // Each match's winner, leaves at `width..`.
        let mut winners = vec![0; width];
        winners.extend((0..width).map(|i| leaves.get(i).copied().unwrap_or(exhausted(i))));
        let mut nodes = vec![0; width];
        for node in (1..width).rev() {
            let (a, b) = (winners[2 * node], winners[2 * node + 1]);
            let a_first = order.before(a, b);
            (winners[node], nodes[node]) = (pick(a_first, a, b), pick(a_first, b, a));
        }
        nodes[0] = winners[1];
        Tournament { nodes }
    }

    /// The head that sorts first.
    #[inline]
    pub fn winner(&self) -> Head {
        self.nodes[0]
    }

    /// The winner's run moved on to `head`: replay its path to the root.
    #[inline]
    pub fn replay(&mut self, mut head: Head, order: &impl HeadOrder) {
        let mut node = (self.nodes.len() + run_of(head)) >> 1;
        while node > 0 {
            let other = self.nodes[node];
            let other_first = order.before(other, head);
            (self.nodes[node], head) = (pick(other_first, head, other), pick(other_first, other, head));
            node >>= 1;
        }
        self.nodes[0] = head;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Packed;

    impl HeadOrder for Packed {
        fn before(&self, a: Head, b: Head) -> Head {
            packed_before(a, b)
        }
    }

    /// Pop every head of `runs` through the tree: keys in order, equal
    /// keys by run index.
    fn drain(runs: &[&[i64]]) -> Vec<(i64, usize)> {
        let mut at = vec![0; runs.len()];
        let head = |i: usize, at: usize| runs[i].get(at).map_or(exhausted(i), |&k| int_head(k, i));
        let mut tree = Tournament::new((0..runs.len()).map(|i| head(i, 0)).collect(), &Packed);
        let mut out = Vec::new();
        while tree.winner() & EXHAUSTED == 0 {
            let i = run_of(tree.winner());
            out.push((runs[i][at[i]], i));
            at[i] += 1;
            tree.replay(head(i, at[i]), &Packed);
        }
        out
    }

    #[test]
    fn pops_in_key_then_run_order() {
        let runs: [&[i64]; 4] = [&[1, 5, i64::MAX], &[], &[i64::MIN, 5], &[0, 5, 5]];
        let expect = vec![(i64::MIN, 2), (0, 3), (1, 0), (5, 0), (5, 2), (5, 3), (5, 3), (i64::MAX, 0)];
        assert_eq!(drain(&runs), expect);
        assert_eq!(drain(&[]), []);
        assert_eq!(drain(&[&[3, 4]]), [(3, 0), (4, 0)]);
    }

    #[test]
    fn masks_select_without_a_branch() {
        assert_eq!(packed_before(int_head(-1, 3), int_head(0, 0)), Head::MAX);
        assert_eq!(packed_before(int_head(0, 1), int_head(0, 0)), 0);
        assert_eq!(packed_before(int_head(i64::MAX, 0), exhausted(1)), Head::MAX);
        assert_eq!((pick(mask(true), 1, 2), pick(mask(false), 1, 2)), (1, 2));
    }
}
