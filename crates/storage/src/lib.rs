//! # adaptagg-storage
//!
//! Paged storage for the simulated shared-nothing cluster:
//!
//! * [`Page`] — a fixed-capacity page of tuples held as column strips,
//!   admitted by their size in the row-major wire encoding (2 KB network
//!   message blocks, spill pages, in-memory row pages).
//! * [`PageView`] — a page borrowed where its rows lie: an owned
//!   [`Page`]'s strips, or a row range of a heap file's arenas. Every
//!   reader of a page's rows goes through it.
//! * [`ScanBatch`] — a borrowed view of a page's column strips through a
//!   projection map and a selection vector: what batch operators consume.
//! * [`RowPages`] — rows on in-memory pages, uncharged: the shape partial
//!   rows have between a group table and the exchange or the run merge.
//! * [`HeapFile`] — an append-only file of 4 KB pages (Table 1's `P`) held
//!   as one set of column arenas plus a page table: a node's partition of
//!   the base relation, its result file, a checkpoint.
//! * [`SimDisk`] — one node's disk: named heap files plus the page-I/O
//!   event stream ([`adaptagg_model::CostEvent`]) that feeds the virtual
//!   clock. The *data* is held in memory (this is a simulation), but every
//!   page that the paper's algorithms would have read or written is
//!   counted, which is all the cost model needs.
//! * [`SpillFile`] — overflow-bucket spooling for the memory-bounded hash
//!   table (write tuples out, seal pages, read them back bucket-by-bucket).
//!
//! Charging convention (see `adaptagg_model::event`): this crate charges
//! **page-level I/O only**; per-tuple CPU costs are charged by the compute
//! layers.

pub mod batch;
pub mod disk;
pub mod error;
pub mod heapfile;
pub mod page;
pub mod pages;
pub mod persist;
pub mod pool;
pub mod spill;

pub use batch::{BatchCharges, BatchOutcome, RowCause, ScanBatch};
pub use disk::{IoCounters, SimDisk};
pub use error::StorageError;
pub use heapfile::HeapFile;
pub use adaptagg_model::StripView;
pub use page::{IntStrips, Page, PageCursor, PageRow, PageView, StripRow};
pub use pages::RowPages;
pub use pool::PagePool;
pub use spill::SpillFile;
