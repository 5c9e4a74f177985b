//! Real-atomics shared base objects for the PODC 2024 reproduction
//! *Strong Linearizability using Primitives with Consensus Number 2*.
//!
//! Every object is annotated with its position in Herlihy's consensus
//! hierarchy ([`ConsensusNumber`]), which is the organizing principle of
//! the paper:
//!
//! | level | objects here |
//! |-------|--------------|
//! | 1     | [`Register`], [`BoolRegister`] |
//! | 2     | [`TestAndSet`], [`ReadableTestAndSet`], [`TwoProcessTestAndSet`], [`FetchAdd`], [`Swap`] (plus the wide register `sl2_bignum::WideFaa`, annotated from its own crate) |
//! | ∞     | [`CompareAndSwap`] |
//!
//! All operations are sequentially consistent (`Ordering::SeqCst`): the
//! paper's model is an atomic shared memory with a total order on base
//! object operations, and the strong-linearizability arguments rely on
//! it.
//!
//! The *infinite arrays* of §4.2/§4.3 are provided by [`ChunkedArray`],
//! a lock-free, grow-on-first-touch chunked vector whose cells never
//! move.
//!
//! # Example
//!
//! ```
//! use sl2_primitives::{BaseObject, ConsensusNumber, FetchAdd, TestAndSet};
//!
//! let ts = TestAndSet::new();
//! assert_eq!(ts.consensus_number(), ConsensusNumber::Two);
//! assert_eq!(ts.test_and_set(), 0);
//!
//! let tickets = FetchAdd::new(0);
//! assert_eq!(tickets.fetch_add(1), 0);
//! assert_eq!(tickets.fetch_add(1), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrays;
mod consensus;
pub mod labeled;
mod lines;
mod register;
mod rmw;
mod sharding;
mod tas;

pub use arrays::ChunkedArray;
pub use consensus::{BaseObject, ConsensusNumber};
pub use lines::{block_layout, build_block, Carver, Lines};
pub use register::{BoolRegister, Register};
pub use rmw::{CompareAndSwap, FetchAdd, Swap};
pub use sharding::{CachePadded, Sharding, MAX_SHARDS};
pub use tas::{ReadableTestAndSet, TestAndSet, TwoProcessTestAndSet};
