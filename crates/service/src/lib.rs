//! Keyed service tier over the strongly-linearizable objects: the
//! "millions of users" front-end.
//!
//! The production `algos`/`sharded`/`combine` forms are library calls
//! on a single object. This crate turns them into a *service*:
//!
//! * [`Registry`] — a lock-free, insert-only keyed namespace of many
//!   max-registers/counters/snapshots behind one handle, with lazy
//!   per-key materialization and per-key backend selection
//!   ([`Backend::Global`] / [`Backend::Sharded`] /
//!   [`Backend::Combining`]). Scale is in the *key* dimension:
//!   millions of keys, not 16 threads on one register.
//! * [`Service`] — a typed [`Request`]/[`Response`] dispatch layer:
//!   key-affinity routing onto a worker pool, FIFO per key, with the
//!   PR-7/PR-8 chaos points and obs probes (`service.enqueue`,
//!   `service.dispatch`, `service.route`, `service.queue_depth`)
//!   compiled to empty stubs by default.
//! * [`machines`] — the *modelled dispatch twin*: enqueue/route/
//!   execute as explicit checker steps, so `sl2_exec` adjudicates the
//!   service layer itself. Exact routing certifies against the keyed
//!   specs (strong linearizability is local); cached-read routing is
//!   refuted exact and certified `k`-lagging — DESIGN.md §8's law one
//!   layer up, argued in §12.
//!
//! Open-loop load generation (seeded Poisson arrivals, zipf keys)
//! lives in `benchmark/src/gen.rs`; workers stamp scheduled→completion
//! latency into the PR-8 [`sl2_obs::Histogram`], so the percentiles include
//! queueing and coordinated omission does not flatter p999.
//!
//! ```
//! use sl2_service::{Backend, Request, Response, Service, ServiceOp};
//!
//! let mut svc = Service::new(1024, 2, Backend::Sharded { shards: 2 });
//! svc.call(Request { key: 7, op: ServiceOp::WriteMax(41) });
//! assert_eq!(
//!     svc.call(Request { key: 7, op: ServiceOp::ReadMax }),
//!     Response::Value(41),
//! );
//! assert_eq!(
//!     svc.call(Request { key: 8, op: ServiceOp::ReadMax }),
//!     Response::Value(0), // keys are disjoint objects
//! );
//! svc.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dispatch;
pub mod machines;
pub mod registry;
mod slab;

pub use dispatch::{Request, Response, Service, ServiceOp};
pub use registry::{
    Backend, KeyObject, Keyed, KeyedCounter, KeyedMax, KeyedSnapshot, Registry, RegistryFull,
};
