//! A free list of cleared pages.
//!
//! Sealing a message block hands a full page to the network and replaces
//! it with an empty one; the receive side discards consumed pages. With a
//! fresh allocation per seal, the steady-state hot path allocates (and
//! regrows) a buffer per 2 KB message. The pool closes that loop: consumed
//! pages come back via [`PagePool::put`] and sealed slots are refilled via
//! [`PagePool::get`], so after warm-up the exchange paths recycle a small
//! working set of buffers instead of touching the allocator.
//!
//! Each node owns its pool (`&mut self` throughout). Purely a wall-clock
//! optimization: pages are byte-identical to freshly allocated ones
//! (`get` only hands out cleared pages) and no cost event is involved
//! anywhere.

use crate::page::Page;

/// Upper bound on retained pages; beyond it, returned pages are dropped.
/// Sized for a node's steady state (one open page per peer plus in-flight
/// receives), not for bulk storage.
const MAX_POOLED: usize = 64;

/// A free list of cleared [`Page`]s, all of one byte capacity.
#[derive(Debug, Default)]
pub struct PagePool {
    free: Vec<Page>,
}

impl PagePool {
    /// An empty pool.
    pub fn new() -> Self {
        PagePool::default()
    }

    /// A cleared page of `capacity` bytes — recycled when available,
    /// freshly allocated otherwise. Pages of a different capacity are
    /// never handed out.
    pub fn get(&mut self, capacity: usize) -> Page {
        match self.free.iter().position(|p| p.capacity() == capacity) {
            Some(i) => self.free.swap_remove(i),
            None => Page::new(capacity),
        }
    }

    /// Return a consumed page to the free list (cleared on the way in).
    pub fn put(&mut self, mut page: Page) {
        if self.free.len() < MAX_POOLED {
            page.clear();
            self.free.push(page);
        }
    }

    /// Pages currently pooled.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the pool holds no pages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::Value;

    #[test]
    fn recycles_cleared_pages_of_matching_capacity() {
        let mut pool = PagePool::new();
        let mut p = pool.get(128);
        assert_eq!(p.capacity(), 128);
        p.try_push(&[Value::Int(1)]).unwrap();
        pool.put(p);
        assert_eq!(pool.len(), 1);

        // Mismatched capacity allocates fresh and leaves the pooled page.
        let q = pool.get(256);
        assert_eq!(q.capacity(), 256);
        assert_eq!(pool.len(), 1);

        // Matching capacity recycles, cleared.
        let r = pool.get(128);
        assert!(r.is_empty());
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let mut pool = PagePool::new();
        for _ in 0..(super::MAX_POOLED + 10) {
            pool.put(Page::new(64));
        }
        assert_eq!(pool.len(), super::MAX_POOLED);
    }
}
