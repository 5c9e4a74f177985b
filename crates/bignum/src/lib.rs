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
//! * [`Lanes`] — the one interleaved lane codec: a [`Layout`] (the
//!   geometry) and a [`LaneEncoding`] (unary or binary), whose decodes
//!   and folds work on borrowed register images with no intermediate
//!   allocations, and [`Target`], the probe rule of a lane write;
//! * [`WideFaa`] — an atomic wide fetch&add register (a documented
//!   substitution for the paper's unbounded hardware register; see
//!   DESIGN.md §2) whose critical sections mutate in place and whose
//!   `*_with` entry points lend the callers a borrowed snapshot.
//!
//! # Example
//!
//! ```
//! use sl2_bignum::{LaneEncoding, Lanes, WideFaa};
//!
//! // Three processes share one register; process 2 publishes value 0b11.
//! let lanes = Lanes::new(3, LaneEncoding::Binary);
//! let reg = WideFaa::new();
//! let (pos, neg) = lanes.adjustments(2, 0, 0b11);
//! reg.fetch_adjust(&pos, &neg);
//! assert_eq!(reg.read_with(|image| lanes.view(image)), vec![0, 0, 0b11]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod cell;
mod cpu;
mod interleave;
mod nat;
mod wide;

pub use cell::Atomic128;
pub use interleave::{LaneEncoding, Lanes, Layout, Target};
pub use nat::{BigNat, LIMB_BITS};
pub use wide::WideFaa;
