//! The constructions of *Strong Linearizability using Primitives with
//! Consensus Number 2* (Attiya, Castañeda, Enea; PODC 2024).
//!
//! Every construction exists in two mirrored forms:
//!
//! * [`machines`] — explicit step machines over the simulated memory of
//!   [`sl2_exec`], one shared-memory operation per step. These are the
//!   forms driven by the exhaustive schedulers, the linearizability /
//!   strong-linearizability checkers, and the Section 5 reduction
//!   (Algorithm B).
//! * [`algos`] — production objects over the real atomics of
//!   [`sl2_primitives`], used by examples, benchmarks and real threads.
//!
//! [`baselines`] holds the comparison implementations: the objects the
//! paper cites as linearizable but **not** strongly linearizable (the
//! Afek–Gafni–Morrison stack \[2\], the Aspnes–Attiya–Censor max
//! register \[6\]) and the compare&swap route the paper contrasts
//! against (Treiber stack, CAS queue).
//!
//! Construction inventory (paper item → module):
//!
//! | Paper | machines | algos |
//! |---|---|---|
//! | Thm 1: max register from F&A | [`machines::max_register`] | [`algos::max_register`] |
//! | Thm 2: snapshot from F&A | [`machines::snapshot`] | [`algos::snapshot`] |
//! | Thm 3/4: simple types (Alg. 1) | [`machines::simple`] | [`algos::simple`] |
//! | Thm 5: readable test&set | [`machines::readable_ts`] | [`algos::readable_ts`] |
//! | Thm 6 / Cor 7–8: multi-shot test&set | [`machines::multishot_ts`] | [`algos::multishot_ts`] |
//! | \[18, 27\] lock-free RW max register | [`machines::rw_max_register`] | [`algos::rw_max_register`] |
//! | Thm 9: readable fetch&increment | [`machines::fetch_inc`] | [`algos::fetch_inc`] |
//! | Thm 10: set (Alg. 2) | [`machines::sl_set`] | [`algos::sl_set`] |
//! | \[18\] OF universal construction | [`universal`] | — |
//! | \[11\] queue/stack with multiplicity | [`baselines::multiplicity`] | [`algos::mult_queue`] |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algos;
pub mod baselines;
pub mod graph;
pub mod machines;
pub mod universal;
