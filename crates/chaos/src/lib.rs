//! Deterministic fault injection for the sl2 production forms.
//!
//! The checker (`sl2_exec::strong`) certifies *step machines* under
//! every interleaving, but the production objects — `WideFaa`, the
//! sharded registers, the combining front-end — run on real threads,
//! where the adversary of the paper shows up as crashes, stalls, and
//! panics at the worst possible instruction. This crate is the seam
//! that lets tests *be* that adversary, deterministically:
//!
//! * **Chaos points.** Hot paths are annotated with labeled hooks,
//!   `sl2_chaos::point("combine.won")`. With the `chaos` feature off
//!   (the default everywhere), [`point`] is an empty
//!   `#[inline(always)]` function: it compiles to nothing and the
//!   production build is bit-for-bit unaffected.
//! * **Fault plans.** With `chaos` on, a test installs a seeded
//!   `FaultPlan`: targeted rules (“the 2nd time thread 1 passes
//!   `combine.won`, crash-stop it”) plus optional seeded scheduling
//!   noise (deterministic pseudo-random yields). Every injected fault
//!   is a pure function of `(seed, thread, label, hit-count)`, so a
//!   failing run is reproducible from its seed alone.
//! * **Crash-stop semantics.** A crash-stopped thread must *not*
//!   unwind at the point of the crash — unwinding runs drop glue
//!   (e.g. spinlock guards release on drop), which would falsify
//!   crash semantics. Instead the thread parks on a global gate:
//!   to every other thread it is indistinguishable from a process
//!   that stalled forever, which is exactly the asynchronous-model
//!   reading of a crash. At teardown `release_crashed` opens the
//!   gate and the parked threads unwind with a `CrashToken`
//!   payload that `catch_crash` absorbs, so scoped joins succeed.
//!
//! # Adversary model
//!
//! Three observable fault classes, in increasing order of what they
//! can break (DESIGN.md §10):
//!
//! * **Stall / yield-storm** — the op eventually completes; strong
//!   linearizability must hold unconditionally (this is just the
//!   adversarial scheduler).
//! * **Panic** — the op aborts but the thread unwinds, so RAII
//!   guards run; locks must release on unwind.
//! * **Crash-stop** — the thread stops mid-op and never unwinds;
//!   anything it held (a combiner lock, a claimed publication slot)
//!   is abandoned and must be reclaimed or routed around by the
//!   survivors. The crashed op is *pending forever*, which a
//!   linearizable history is free to drop or to linearize.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// A labeled injection point. With the `chaos` feature off this is an
/// empty `#[inline(always)]` stub — zero cost on every hot path. With
/// the feature on, consults the installed `FaultPlan` and may stall,
/// yield, panic, or crash-stop the calling thread.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub fn point(_label: &'static str) {}

/// Runs `f`, absorbing a crash-stop unwind. Disarmed no thread can
/// crash-stop, so this is just `Some(f())`: callers wrap worker bodies
/// unconditionally and need no feature gate of their own.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub fn catch_crash<R>(f: impl FnOnce() -> R) -> Option<R> {
    Some(f())
}

/// Seed of the installed plan. Disarmed no plan can be installed, so
/// this is always `None`.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub fn plan_seed() -> Option<u64> {
    None
}

#[cfg(feature = "chaos")]
pub use active::{
    active, catch_crash, crashed_count, install, plan_seed, point, release_crashed, set_thread,
    ChaosSession, CrashToken, FaultAction, FaultPlan, FaultRule,
};

#[cfg(feature = "chaos")]
mod active {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};

    // Label hashing and thread enrollment live in the dependency-free
    // crate at the bottom of the workspace graph, shared with the
    // sl2_obs probes (one identity, two consumers).
    use sl2_primitives::labeled::{self, label_hash, mix, LabelTable};

    /// What a matched rule does to the calling thread.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultAction {
        /// Bounded busy-wait of roughly this many spin iterations
        /// (with periodic yields so single-core hosts make progress).
        Stall(u32),
        /// `n` consecutive `thread::yield_now` calls — hands the
        /// scheduler `n` chances to run everyone else first.
        YieldStorm(u32),
        /// Unwinding panic at the point, seed in the message. RAII
        /// guards run; models an aborted client.
        Panic,
        /// Crash-stop: park forever (until [`release_crashed`]),
        /// *without* unwinding. Models a dead process.
        CrashStop,
    }

    /// One targeted fault: the `nth` time `thread` passes `label`,
    /// perform `action`. Hit counts are per-thread per-label, so a
    /// rule fires deterministically regardless of interleaving.
    #[derive(Debug, Clone)]
    pub struct FaultRule {
        /// Chaos-point label the rule arms, e.g. `"combine.won"`.
        pub label: String,
        /// Worker pool the rule is confined to (`None` = any thread,
        /// pooled or not). Lane numbers repeat across pools, and tests
        /// in one binary run their pools side by side.
        pub pool: Option<u64>,
        /// Thread the rule targets (`None` = any enrolled thread).
        pub thread: Option<usize>,
        /// 1-based pass count at which the rule fires.
        pub nth: u64,
        /// The injected fault.
        pub action: FaultAction,
    }

    /// A seeded, deterministic fault schedule: targeted rules plus
    /// optional background scheduling noise.
    #[derive(Debug, Clone)]
    pub struct FaultPlan {
        seed: u64,
        rules: Vec<FaultRule>,
        noise_percent: u8,
    }

    impl FaultPlan {
        /// An empty plan carrying `seed` (no rules, no noise).
        pub fn new(seed: u64) -> Self {
            FaultPlan {
                seed,
                rules: Vec::new(),
                noise_percent: 0,
            }
        }

        /// A pure-noise plan: no targeted rules, `percent`% of point
        /// passes yield (deterministically from the seed). The
        /// chaos-matrix stress tests use these.
        pub fn noisy(seed: u64, percent: u8) -> Self {
            FaultPlan::new(seed).with_noise(percent)
        }

        /// Arms a targeted rule (builder style).
        pub fn on(self, label: &str, thread: Option<usize>, nth: u64, action: FaultAction) -> Self {
            self.rule(label, None, thread, nth, action)
        }

        /// As [`FaultPlan::on`], confined to threads enrolled in worker
        /// pool `pool` (`labeled::enroll_in`; a `Service`'s workers are,
        /// under its `pool_id`).
        pub fn on_pool(
            self,
            label: &str,
            pool: u64,
            thread: Option<usize>,
            nth: u64,
            action: FaultAction,
        ) -> Self {
            self.rule(label, Some(pool), thread, nth, action)
        }

        fn rule(
            mut self,
            label: &str,
            pool: Option<u64>,
            thread: Option<usize>,
            nth: u64,
            action: FaultAction,
        ) -> Self {
            self.rules.push(FaultRule {
                label: label.to_string(),
                pool,
                thread,
                nth,
                action,
            });
            self
        }

        /// Sets the background-yield probability (0–100, per point
        /// pass, derived deterministically from the seed).
        pub fn with_noise(mut self, percent: u8) -> Self {
            self.noise_percent = percent.min(100);
            self
        }

        /// The plan's seed (printed in injected-panic messages).
        pub fn seed(&self) -> u64 {
            self.seed
        }
    }

    /// Payload a crash-stopped thread unwinds with once the gate
    /// opens. [`catch_crash`] absorbs it; anything else treats the
    /// late unwind as an ordinary panic.
    #[derive(Debug)]
    pub struct CrashToken {
        /// Label of the point the thread crashed at.
        pub label: String,
        /// Enrolled id of the crashed thread.
        pub thread: usize,
    }

    struct Global {
        /// Serializes chaos sessions: tests in one binary run in
        /// parallel, but the plan and gate are process-global.
        session: Mutex<()>,
        plan: RwLock<Option<Arc<FaultPlan>>>,
        active: AtomicBool,
        gate_open: Mutex<bool>,
        gate_cv: Condvar,
        crashed: AtomicU64,
    }

    fn global() -> &'static Global {
        static G: OnceLock<Global> = OnceLock::new();
        G.get_or_init(|| Global {
            session: Mutex::new(()),
            plan: RwLock::new(None),
            active: AtomicBool::new(false),
            gate_open: Mutex::new(false),
            gate_cv: Condvar::new(),
            crashed: AtomicU64::new(0),
        })
    }

    /// Distinct chaos-point labels one process may pass.
    const LABEL_SLOTS: usize = 128;

    /// The labels points have passed, interned once per process.
    static LABELS: LabelTable<LABEL_SLOTS> = LabelTable::new();

    thread_local! {
        /// Per-thread hit counts, indexed by the label's slot in
        /// [`LABELS`]: a fixed array, so counting a hit never allocates.
        static HITS: RefCell<[u64; LABEL_SLOTS]> = const { RefCell::new([0; LABEL_SLOTS]) };
    }

    /// Exclusive handle on the installed plan. Dropping it uninstalls
    /// the plan and opens the crash gate so parked threads unwind.
    #[derive(Debug)]
    pub struct ChaosSession {
        _session: MutexGuard<'static, ()>,
    }

    impl Drop for ChaosSession {
        fn drop(&mut self) {
            let g = global();
            g.active.store(false, Ordering::SeqCst);
            *g.plan.write().unwrap_or_else(|e| e.into_inner()) = None;
            release_crashed();
        }
    }

    /// Installs `plan` process-wide and returns the session guard.
    /// Blocks until any other session (e.g. a concurrently running
    /// chaos test in the same binary) has ended. Enroll worker
    /// threads with [`set_thread`] — un-enrolled threads pass every
    /// point untouched.
    pub fn install(plan: FaultPlan) -> ChaosSession {
        let g = global();
        let session = g.session.lock().unwrap_or_else(|e| e.into_inner());
        *g.gate_open.lock().unwrap_or_else(|e| e.into_inner()) = false;
        g.crashed.store(0, Ordering::SeqCst);
        *g.plan.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(plan));
        g.active.store(true, Ordering::SeqCst);
        ChaosSession { _session: session }
    }

    /// Enrolls the calling thread under id `t` for the current plan
    /// (via the shared [`labeled`] registry, so obs shards see the
    /// same id) and resets its per-label hit counters.
    pub fn set_thread(t: usize) {
        labeled::enroll(t);
        HITS.with(|h| h.borrow_mut().fill(0));
    }

    /// True while a plan is installed.
    pub fn active() -> bool {
        global().active.load(Ordering::Acquire)
    }

    /// Seed of the installed plan, if any (for assertion messages:
    /// every chaos failure must be reproducible from its seed).
    pub fn plan_seed() -> Option<u64> {
        let g = global();
        g.plan
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|p| p.seed())
    }

    /// Number of threads currently parked as crash-stopped.
    pub fn crashed_count() -> u64 {
        global().crashed.load(Ordering::SeqCst)
    }

    /// Opens the crash gate: every parked crash-stopped thread wakes
    /// and unwinds with a [`CrashToken`]. Call after the survivors'
    /// assertions, before joining the crashed threads.
    pub fn release_crashed() {
        let g = global();
        *g.gate_open.lock().unwrap_or_else(|e| e.into_inner()) = true;
        g.gate_cv.notify_all();
    }

    /// Runs `f`, absorbing a crash-stop unwind: returns `None` if `f`
    /// crash-stopped (its [`CrashToken`] is swallowed), `Some(result)`
    /// otherwise. Ordinary panics propagate unchanged. Wrap every
    /// worker-thread body in this so `std::thread::scope` joins
    /// cleanly after [`release_crashed`].
    pub fn catch_crash<R>(f: impl FnOnce() -> R) -> Option<R> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(payload) => {
                if payload.downcast_ref::<CrashToken>().is_some() {
                    None
                } else {
                    std::panic::resume_unwind(payload)
                }
            }
        }
    }

    /// The armed injection point. No-op unless a plan is installed
    /// *and* the calling thread is enrolled via [`set_thread`].
    #[inline]
    pub fn point(label: &'static str) {
        let g = global();
        if !g.active.load(Ordering::Acquire) {
            return;
        }
        let Some(t) = labeled::enrolled() else {
            return;
        };
        let plan = {
            let guard = g.plan.read().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                Some(p) => Arc::clone(p),
                None => return,
            }
        };
        let idx = LABELS.index_of(label);
        let n = HITS.with(|h| {
            let c = &mut h.borrow_mut()[idx];
            *c += 1;
            *c
        });
        let pool = labeled::enrolled_pool();
        for rule in &plan.rules {
            if rule.label == label
                && rule.pool.is_none_or(|p| pool == Some(p))
                && rule.thread.is_none_or(|rt| rt == t)
                && rule.nth == n
            {
                perform(rule.action, label, t, plan.seed(), g);
            }
        }
        if plan.noise_percent > 0 {
            let h = mix(plan.seed() ^ mix(t as u64) ^ label_hash(label) ^ n.rotate_left(17));
            if h % 100 < plan.noise_percent as u64 {
                std::thread::yield_now();
            }
        }
    }

    fn perform(action: FaultAction, label: &str, t: usize, seed: u64, g: &'static Global) {
        match action {
            FaultAction::Stall(spins) => {
                for i in 0..spins {
                    if i % 256 == 255 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
            FaultAction::YieldStorm(n) => {
                for _ in 0..n {
                    std::thread::yield_now();
                }
            }
            FaultAction::Panic => {
                panic!("chaos[seed={seed}]: injected panic at '{label}' (thread {t})");
            }
            FaultAction::CrashStop => {
                g.crashed.fetch_add(1, Ordering::SeqCst);
                let mut open = g.gate_open.lock().unwrap_or_else(|e| e.into_inner());
                while !*open {
                    open = g.gate_cv.wait(open).unwrap_or_else(|e| e.into_inner());
                }
                drop(open);
                std::panic::resume_unwind(Box::new(CrashToken {
                    label: label.to_string(),
                    thread: t,
                }));
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unenrolled_threads_pass_points_untouched() {
            let _s = install(FaultPlan::new(1).on("x", None, 1, FaultAction::Panic));
            // This thread never called set_thread: the armed panic
            // rule must not fire.
            point("x");
        }

        #[test]
        fn targeted_panic_fires_on_nth_hit_with_seed_in_message() {
            let _s = install(FaultPlan::new(42).on("p.label", Some(3), 2, FaultAction::Panic));
            set_thread(3);
            point("p.label"); // hit 1: armed for hit 2
            let err = std::panic::catch_unwind(|| point("p.label")).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("seed=42"), "seed missing from: {msg}");
            assert!(msg.contains("p.label"), "label missing from: {msg}");
        }

        #[test]
        fn pool_scoped_rule_skips_the_same_lane_of_another_pool() {
            let _s = install(FaultPlan::new(3).on_pool("q", 8, Some(1), 1, FaultAction::Panic));
            let pass = |pool| {
                std::thread::spawn(move || {
                    labeled::enroll_in(pool, 1);
                    point("q");
                })
                .join()
            };
            assert!(pass(9).is_ok(), "lane 1 of another pool");
            assert!(pass(8).is_err(), "lane 1 of the rule's pool");
        }

        #[test]
        fn crash_stop_parks_until_released_and_is_caught() {
            let _s = install(FaultPlan::new(7).on("c.label", Some(0), 1, FaultAction::CrashStop));
            std::thread::scope(|s| {
                s.spawn(|| {
                    set_thread(0);
                    let r = catch_crash(|| {
                        point("c.label");
                        unreachable!("crash-stop must not fall through");
                    });
                    assert!(r.is_none(), "crash token must be absorbed");
                });
                while crashed_count() == 0 {
                    std::thread::yield_now();
                }
                release_crashed();
            });
        }

        #[test]
        fn noise_is_deterministic_in_the_seed() {
            // Same (seed, thread, label, n) => same yield decision.
            let a = mix(5 ^ mix(1) ^ label_hash("l") ^ 4u64.rotate_left(17)) % 100;
            let b = mix(5 ^ mix(1) ^ label_hash("l") ^ 4u64.rotate_left(17)) % 100;
            assert_eq!(a, b);
        }

        #[test]
        fn stall_and_yield_storm_return() {
            let _s = install(
                FaultPlan::new(9)
                    .on("s", Some(1), 1, FaultAction::Stall(1024))
                    .on("s", Some(1), 2, FaultAction::YieldStorm(16)),
            );
            set_thread(1);
            point("s");
            point("s");
            point("s"); // unarmed hit
        }
    }
}
