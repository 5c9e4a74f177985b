//! Baseline implementations the paper compares against.
//!
//! * [`agm_stack`] — Afek–Gafni–Morrison stack \[2\]: wait-free
//!   linearizable from fetch&add + swap, **not** strongly linearizable
//!   (Attiya–Enea \[9\]; reproduced by the checker here).
//! * [`treiber_stack`], [`cas_queue`] — the compare&swap (consensus
//!   number ∞) route to strong linearizability the paper contrasts
//!   against.
//! * [`multiplicity`] — queue/stack with multiplicity from read/write
//!   registers (\[11\] style): linearizable w.r.t. the §5 relaxed specs,
//!   refuted strongly linearizable by the checker.
//! * [`multiword_faa`] — the §6 Discussion's open problem probed: the
//!   naive wide-from-narrow fetch&add carry chain, refuted (not even
//!   linearizable) by the checker.
//! * [`aac_max_register`] — the Aspnes–Attiya–Censor bounded max
//!   register \[6\], Theorem 1's comparison: wait-free and
//!   linearizable from registers, refuted strongly linearizable.
//!
//! Each one's verdict is a pinned record in `sl2::records`.

pub mod aac_max_register;
pub mod agm_stack;
pub mod cas_queue;
pub mod multiplicity;
pub mod multiword_faa;
pub mod treiber_stack;
