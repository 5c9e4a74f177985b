//! Keyed (multi-object) specifications for the service tier.
//!
//! The `sl2_service` registry serves *many* independent objects behind
//! one handle: a request names a key, and the per-key object is a §3
//! max register (or §4 counter). The composed service is itself a
//! sequential object — a map from keys to object states — and these
//! specs make that composition explicit so the modelled dispatch twin
//! (`sl2_service::machines`) can flow through the same
//! `check_strong`/corpus machinery as the single-object
//! algorithms.
//!
//! Two polarities, mirroring the single-object pair:
//!
//! * [`KeyedMaxSpec`] — exact: every read returns the current per-key
//!   maximum. The locality of strong linearizability (it is closed
//!   under composition of disjoint objects) says a keyed service whose
//!   per-key path is the Theorem-1 register should certify here; the
//!   checker confirms it *including* the shared dispatch steps
//!   (enqueue ticket, route read) the service threads through every
//!   request.
//! * [`LaggingKeyedMaxSpec`] — the per-key analogue of
//!   [`crate::relaxed::LaggingMaxSpec`]: reads may return the per-key
//!   running maximum as it stood up to `k` *writes to that key* ago.
//!   Cached-read routing (the service answers reads from a per-key
//!   published fold, and writes that lose the publication election
//!   complete unpublished) is refuted against [`KeyedMaxSpec`] and
//!   certified here — the §8 law, resurfacing one layer up.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::max_register::MaxResp;
use crate::{Spec, Value};

/// Operations on a keyed max-register namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyedMaxOp {
    /// `write_max(key, v)`.
    Write {
        /// Key naming the per-key register.
        key: Value,
        /// Value to fold into that register's maximum.
        v: Value,
    },
    /// `read_max(key)`.
    Read {
        /// Key naming the per-key register.
        key: Value,
    },
}

impl KeyedMaxOp {
    /// The key the op names.
    fn key(&self) -> Value {
        match *self {
            KeyedMaxOp::Write { key, .. } | KeyedMaxOp::Read { key } => key,
        }
    }
}

/// Exact keyed max register: a map from keys to running maxima.
/// Untouched keys read 0 (lazy instantiation is invisible to the
/// specification — a fresh register holds 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyedMaxSpec;

impl Spec for KeyedMaxSpec {
    type State = BTreeMap<Value, Value>;
    type Op = KeyedMaxOp;
    type Resp = MaxResp;

    fn initial(&self) -> Self::State {
        BTreeMap::new()
    }

    /// A write or read touches only its own key's entry.
    fn key_of(&self, op: &KeyedMaxOp) -> Option<Value> {
        Some(op.key())
    }

    fn step(&self, s: &Self::State, op: &KeyedMaxOp) -> Vec<(Self::State, MaxResp)> {
        match op {
            KeyedMaxOp::Write { key, v } => {
                let cur = s.get(key).copied().unwrap_or(0);
                let mut next = s.clone();
                next.insert(*key, cur.max(*v));
                vec![(next, MaxResp::Ok)]
            }
            KeyedMaxOp::Read { key } => {
                vec![(s.clone(), MaxResp::Value(s.get(key).copied().unwrap_or(0)))]
            }
        }
    }

    /// A read, and a write at or below its key's maximum, leave the
    /// state as it is.
    fn step_each(
        &self,
        s: &Self::State,
        op: &KeyedMaxOp,
        emit: &mut dyn FnMut(Option<Self::State>, MaxResp),
    ) {
        match *op {
            KeyedMaxOp::Write { key, v } => match s.get(&key) {
                Some(&cur) if cur >= v => emit(None, MaxResp::Ok),
                cur => {
                    let mut next = s.clone();
                    next.insert(key, cur.map_or(v, |&cur| cur.max(v)));
                    emit(Some(next), MaxResp::Ok);
                }
            },
            KeyedMaxOp::Read { key } => {
                emit(None, MaxResp::Value(s.get(&key).copied().unwrap_or(0)));
            }
        }
    }
}

/// k-stale keyed max register: `Write` is exact per key, but `Read`
/// may return the keyed maximum as it stood up to `k` writes *to that
/// key* ago. Writes to other keys do not age a key's window — the
/// relaxation is per object, exactly as composing `k`-stale registers
/// key-wise would give. A 0-stale keyed register is [`KeyedMaxSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaggingKeyedMaxSpec {
    /// Maximum number of same-key writes a `Read` may trail by.
    pub k: usize,
}

/// State of a [`LaggingKeyedMaxSpec`]: per key, the running maximum
/// after each of the last `k` writes plus the current one, oldest
/// first (absent key ⇔ window `[0]`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct LaggingKeyedMaxState {
    /// Per-key windows of recent running maxima; last entry current.
    pub recent: BTreeMap<Value, VecDeque<Value>>,
}

impl Spec for LaggingKeyedMaxSpec {
    type State = LaggingKeyedMaxState;
    type Op = KeyedMaxOp;
    type Resp = MaxResp;

    fn initial(&self) -> LaggingKeyedMaxState {
        LaggingKeyedMaxState::default()
    }

    /// A write pushes onto, and a read picks from, only its own key's
    /// window.
    fn key_of(&self, op: &KeyedMaxOp) -> Option<Value> {
        Some(op.key())
    }

    fn step(
        &self,
        s: &LaggingKeyedMaxState,
        op: &KeyedMaxOp,
    ) -> Vec<(LaggingKeyedMaxState, MaxResp)> {
        match op {
            KeyedMaxOp::Write { key, v } => vec![(self.written(s, *key, *v), MaxResp::Ok)],
            KeyedMaxOp::Read { key } => {
                let mut out: Vec<(LaggingKeyedMaxState, MaxResp)> = Vec::new();
                let fresh = VecDeque::from([0]);
                let window = s.recent.get(key).unwrap_or(&fresh);
                for &v in window {
                    if !out.iter().any(|(_, r)| *r == MaxResp::Value(v)) {
                        out.push((s.clone(), MaxResp::Value(v)));
                    }
                }
                out
            }
        }
    }

    /// A read leaves the state as it is, and so does a write at or
    /// below its key's maximum once the window is full and constant.
    fn step_each(
        &self,
        s: &LaggingKeyedMaxState,
        op: &KeyedMaxOp,
        emit: &mut dyn FnMut(Option<LaggingKeyedMaxState>, MaxResp),
    ) {
        match *op {
            KeyedMaxOp::Write { key, v } => {
                let unchanged = s.recent.get(&key).is_some_and(|window| {
                    window.len() == self.k + 1 && window.iter().all(|&m| m >= v && m == window[0])
                });
                let next = (!unchanged).then(|| self.written(s, key, v));
                emit(next, MaxResp::Ok);
            }
            KeyedMaxOp::Read { key } => match s.recent.get(&key) {
                None => emit(None, MaxResp::Value(0)),
                Some(window) => {
                    for (i, &m) in window.iter().enumerate() {
                        if !window.range(..i).any(|&seen| seen == m) {
                            emit(None, MaxResp::Value(m));
                        }
                    }
                }
            },
        }
    }
}

impl LaggingKeyedMaxSpec {
    /// `s` after `write_max(key, v)`: the key's window gains the new
    /// maximum and keeps its last `k + 1` entries.
    fn written(&self, s: &LaggingKeyedMaxState, key: Value, v: Value) -> LaggingKeyedMaxState {
        let mut next = s.clone();
        let window = next.recent.entry(key).or_insert_with(|| {
            VecDeque::from([0]) // fresh key: current maximum 0
        });
        let cur = *window.back().expect("window is never empty");
        window.push_back(cur.max(v));
        while window.len() > self.k + 1 {
            window.pop_front();
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_legal;

    #[test]
    fn keyed_max_keys_are_independent() {
        let spec = KeyedMaxSpec;
        let seq = vec![
            (KeyedMaxOp::Write { key: 7, v: 5 }, MaxResp::Ok),
            (KeyedMaxOp::Write { key: 9, v: 3 }, MaxResp::Ok),
            (KeyedMaxOp::Read { key: 7 }, MaxResp::Value(5)),
            (KeyedMaxOp::Read { key: 9 }, MaxResp::Value(3)),
            (KeyedMaxOp::Read { key: 11 }, MaxResp::Value(0)),
        ];
        assert!(is_legal(&spec, &seq));
    }

    #[test]
    fn keyed_max_folds_per_key() {
        let spec = KeyedMaxSpec;
        let mut s = spec.initial();
        assert_eq!(
            spec.apply(&mut s, &KeyedMaxOp::Write { key: 1, v: 5 }),
            MaxResp::Ok
        );
        assert_eq!(
            spec.apply(&mut s, &KeyedMaxOp::Write { key: 1, v: 3 }),
            MaxResp::Ok
        );
        assert_eq!(
            spec.apply(&mut s, &KeyedMaxOp::Read { key: 1 }),
            MaxResp::Value(5)
        );
    }

    #[test]
    fn keyed_max_rejects_cross_key_bleed() {
        let spec = KeyedMaxSpec;
        let seq = vec![
            (KeyedMaxOp::Write { key: 1, v: 5 }, MaxResp::Ok),
            (KeyedMaxOp::Read { key: 2 }, MaxResp::Value(5)), // wrong key
        ];
        assert!(!is_legal(&spec, &seq));
    }

    #[test]
    fn lagging_keyed_allows_per_key_stale_reads_only() {
        let spec = LaggingKeyedMaxSpec { k: 1 };
        // One write to key 1; a read may still see the pre-write 0.
        let stale = vec![
            (KeyedMaxOp::Write { key: 1, v: 5 }, MaxResp::Ok),
            (KeyedMaxOp::Read { key: 1 }, MaxResp::Value(0)),
        ];
        assert!(is_legal(&spec, &stale));
        // Two writes to key 1: with k = 1 the pre-both value is gone.
        let too_stale = vec![
            (KeyedMaxOp::Write { key: 1, v: 5 }, MaxResp::Ok),
            (KeyedMaxOp::Write { key: 1, v: 6 }, MaxResp::Ok),
            (KeyedMaxOp::Read { key: 1 }, MaxResp::Value(0)),
        ];
        assert!(!is_legal(&spec, &too_stale));
        // Writes to *other* keys do not age key 1's window.
        let other_keys = vec![
            (KeyedMaxOp::Write { key: 1, v: 5 }, MaxResp::Ok),
            (KeyedMaxOp::Write { key: 2, v: 7 }, MaxResp::Ok),
            (KeyedMaxOp::Write { key: 3, v: 8 }, MaxResp::Ok),
            (KeyedMaxOp::Read { key: 1 }, MaxResp::Value(0)),
        ];
        assert!(is_legal(&spec, &other_keys));
    }

    /// A splitmix64 stream: seeded, so every run draws the same cases.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// A write or a read on keys 1..=5, values 0..4.
        fn op(&mut self) -> KeyedMaxOp {
            let key = 1 + self.below(5);
            match self.below(2) {
                0 => KeyedMaxOp::Write {
                    key,
                    v: self.below(4),
                },
                _ => KeyedMaxOp::Read { key },
            }
        }
    }

    /// Asserts that `step_each` emits `step`'s outcomes for `op` in
    /// `s`, in order, saying `None` exactly for a successor equal to
    /// `s`; tallies the outcomes as `[unchanged, changed]`.
    fn check_step_each<S: Spec>(spec: &S, s: &S::State, op: &S::Op, tally: &mut [usize; 2]) {
        let mut out = Vec::new();
        spec.step_each(s, op, &mut |next, resp| {
            assert!(
                next.as_ref() != Some(s),
                "{op:?} in {s:?}: Some for an unchanged state"
            );
            tally[usize::from(next.is_some())] += 1;
            out.push((next.unwrap_or_else(|| s.clone()), resp));
        });
        assert_eq!(out, spec.step(s, op), "{spec:?}: {op:?} in {s:?}");
    }

    #[test]
    fn step_each_emits_what_step_returns_in_order() {
        // Seeded differential over random states, both ops, and windows
        // of every length up to one past full.
        let mut rng = Rng(48);
        let mut tally = [0; 2];
        for _ in 0..2_000 {
            let mut s = BTreeMap::new();
            for key in 1..=4 {
                if rng.below(2) == 0 {
                    s.insert(key, rng.below(4));
                }
            }
            check_step_each(&KeyedMaxSpec, &s, &rng.op(), &mut tally);
        }
        for k in 0..=3 {
            let spec = LaggingKeyedMaxSpec { k };
            for _ in 0..2_000 {
                let mut s = LaggingKeyedMaxState::default();
                for key in 1..=4 {
                    let len = rng.below(k as u64 + 3) as usize;
                    if len > 0 {
                        let window = (0..len).map(|_| rng.below(3)).collect();
                        s.recent.insert(key, window);
                    }
                }
                check_step_each(&spec, &s, &rng.op(), &mut tally);
            }
        }
        let [unchanged, changed] = tally;
        assert!(unchanged >= 5_000 && changed >= 2_000, "{tally:?}");
    }

    #[test]
    fn lagging_keyed_never_invents_values() {
        let spec = LaggingKeyedMaxSpec { k: 2 };
        let seq = vec![
            (KeyedMaxOp::Write { key: 1, v: 5 }, MaxResp::Ok),
            (KeyedMaxOp::Read { key: 1 }, MaxResp::Value(4)),
        ];
        assert!(!is_legal(&spec, &seq));
    }
}
