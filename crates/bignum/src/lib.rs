//! Arbitrary-precision naturals and the wide fetch&add register used by
//! the interleaved-bit constructions of *Strong Linearizability using
//! Primitives with Consensus Number 2* (Attiya, Castañeda, Enea; PODC
//! 2024), Section 3.
//!
//! The max-register (§3.1) and snapshot (§3.2) algorithms pack one
//! unbounded bit-string per process into a single fetch&add register by
//! interleaving bits: process `i` owns bits `i, n+i, 2n+i, ...`. This
//! crate provides:
//!
//! * [`BigNat`] — the unbounded natural numbers those registers hold,
//!   with a two-limb inline representation that keeps every value below
//!   `2^128` off the heap (the common case for realistic `n` × values);
//! * [`Layout`] — the interleaved lane codec (encode/decode/adjustments),
//!   whose decode entry points work on borrowed register images with no
//!   intermediate allocations;
//! * [`WideFaa`] — an atomic wide fetch&add register (a documented
//!   substitution for the paper's unbounded hardware register; see
//!   DESIGN.md §2) whose critical sections mutate in place and whose
//!   `*_with` entry points lend the callers a borrowed snapshot.
//!
//! # Example
//!
//! ```
//! use sl2_bignum::{BigNat, Layout, WideFaa};
//!
//! // Three processes share one register; process 2 publishes value 0b11.
//! let layout = Layout::new(3);
//! let reg = WideFaa::new();
//! let (pos, neg) = layout.adjustments(2, &BigNat::zero(), &BigNat::from(0b11u64));
//! reg.fetch_adjust(&pos, &neg);
//! let view = layout.decode_all(&reg.load());
//! assert_eq!(view[2], BigNat::from(0b11u64));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod cell;
mod cpu;
mod faa128;
mod interleave;
mod nat;
mod wide;

pub use cell::Atomic128;
pub use faa128::FetchAdd128;
pub use interleave::{BinaryLayout, LaneEncoding, Layout};
pub use nat::{BigNat, LIMB_BITS};
pub use wide::WideFaa;
