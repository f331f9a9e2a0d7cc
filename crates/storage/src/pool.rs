//! A free list of cleared pages.
//!
//! Sealing a message block hands a full page to the network and replaces
//! it with a cleared one from [`PagePool::get`]; a receiver hands the
//! pages it consumed back to its own pool with [`PagePool::put`]. The loop
//! closes only where one node both receives and later seals. No node
//! receives while it scans, so during phase 1 every pool is empty and
//! every sealed message page is a fresh page. The merge phase then
//! returns the pages it consumes: the pool keeps 64 of them (`MAX_POOLED`)
//! and the rest are freed on the receiving thread. So the exchange still
//! allocates a page per message on the sending node and frees it on the
//! receiving one — but a typed page is one heap block (its strips are one
//! buffer, [`crate::page`]), so that is one allocation and one
//! cross-thread free a message, and nothing is held across queries. What
//! the pool saves is the refill of pages a node seals after it has
//! received.
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
