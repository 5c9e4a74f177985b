//! The spec table both referees own one of per check: spec states
//! interned to ids (equal ids ⇔ equal states, so memo keys compare ids)
//! and `Spec::step_each` asked once per `(state id, op)`. A completed
//! op's successors are the outcomes with its actual response — exactly
//! `Spec::accept`'s default body, so neither referee calls `accept`
//! (DESIGN.md §7 "One spec table for both searches").

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::mem;
use std::ops::Range;

use sl2_spec::Spec;

/// A spec state's id: its index in the table's arena.
pub(crate) type StateId = u32;

/// The id of the spec's initial state in every table.
pub(crate) const INITIAL: StateId = 0;

/// Interned spec states and the cached outcomes of each transition.
pub(crate) struct SpecTable<'a, S: Spec> {
    spec: S,
    /// Interned states, indexed by id, each stored once.
    states: Vec<S::State>,
    /// The states' ids by hash.
    ids: Chains,
    /// Each `(state, op)` transition's range of `outcomes`.
    steps: HashMap<(StateId, &'a S::Op), Range<usize>, FxBuild>,
    /// Successor state and response, in the spec's order.
    outcomes: Vec<(StateId, S::Resp)>,
    /// What `Spec::step_each` emitted for the transition being added;
    /// empty between calls.
    emitted: Vec<(Option<S::State>, S::Resp)>,
}

impl<'a, S: Spec> SpecTable<'a, S> {
    /// A table holding the initial state, with room for `capacity`
    /// transitions.
    pub(crate) fn new(spec: S, capacity: usize) -> Self {
        let initial = spec.initial();
        let mut table = SpecTable {
            spec,
            states: Vec::new(),
            ids: Chains::default(),
            steps: HashMap::with_capacity_and_hasher(capacity, FxBuild::default()),
            outcomes: Vec::with_capacity(capacity),
            emitted: Vec::new(),
        };
        table.intern(initial);
        table
    }

    /// The id of spec state `s`; a new one is moved into the arena.
    fn intern(&mut self, s: S::State) -> StateId {
        let hash = FxBuild::default().hash_one(&s);
        let id = match self.ids.find(hash, |id| self.states[id] == s) {
            Some(id) => id,
            None => {
                self.states.push(s);
                self.ids.push(hash)
            }
        };
        StateId::try_from(id).expect("spec state ids fit in u32")
    }

    /// The outcomes of `op` in `state`, in the spec's order, as a range
    /// of [`SpecTable::outcome`] indices; the spec is asked on first use.
    /// A successor the spec reports as unchanged keeps `state`'s id,
    /// neither cloned nor hashed.
    pub(crate) fn outcomes(&mut self, state: StateId, op: &'a S::Op) -> Range<usize> {
        if let Some(range) = self.steps.get(&(state, op)) {
            return range.clone();
        }
        let mut emitted = mem::take(&mut self.emitted);
        let s = &self.states[state as usize];
        self.spec
            .step_each(s, op, &mut |next, resp| emitted.push((next, resp)));
        let start = self.outcomes.len();
        for (next, resp) in emitted.drain(..) {
            let id = next.map_or(state, |next| self.intern(next));
            self.outcomes.push((id, resp));
        }
        self.emitted = emitted;
        let range = start..self.outcomes.len();
        self.steps.insert((state, op), range.clone());
        range
    }

    /// Outcome `k`: the successor state and the response that reaches it.
    pub(crate) fn outcome(&self, k: usize) -> (StateId, &S::Resp) {
        let (next, resp) = &self.outcomes[k];
        (*next, resp)
    }
}

/// Dense ids grouped by hash, for a set whose entries live in the
/// caller's arena: each hash's newest id, and per id the next older one
/// with the same hash. The caller's equality decides a hit, never the
/// hash alone, so colliding entries cost a longer walk but never a
/// wrong answer.
#[derive(Default)]
pub(crate) struct Chains {
    newest: HashMap<u64, usize, FxBuild>,
    /// Per id, the next older id with its hash, or `usize::MAX`.
    older: Vec<usize>,
}

impl Chains {
    /// The newest id with `hash` for which `eq` holds.
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut id = *self.newest.get(&hash)?;
        while id != usize::MAX {
            if eq(id) {
                return Some(id);
            }
            id = self.older[id];
        }
        None
    }

    /// Adds the next id, with `hash`, and returns it.
    pub(crate) fn push(&mut self, hash: u64) -> usize {
        let id = self.older.len();
        self.older
            .push(self.newest.insert(hash, id).unwrap_or(usize::MAX));
        id
    }

    /// Forgets every id, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.newest.clear();
        self.older.clear();
    }
}

/// An FxHash-style multiply–rotate hasher for the referees' own tables,
/// whose keys are indices, spec states and the checked ops. Every table
/// compares keys by equality, so keys crafted to collide could slow a
/// check but never change a verdict; SipHash's flood resistance is not
/// worth its cost per node here.
#[derive(Default)]
pub(crate) struct Fx(u64);

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        // The tail, if any, as one zero-padded word.
        for tail in words.remainder().chunks(8) {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

pub(crate) type FxBuild = BuildHasherDefault<Fx>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_byte_write_hashes_as_zero_padded_words() {
        // `write`'s definition: `write_u64` over each 8-byte chunk,
        // little-endian, the last one zero-padded. Every hash value, and
        // with it every table's iteration order, rests on it.
        let bytes: Vec<u8> = (1..=24u8).map(|b| b.wrapping_mul(37)).collect();
        for len in 0..=24 {
            let (mut fx, mut words) = (Fx(1), Fx(1));
            fx.write(&bytes[..len]);
            for chunk in bytes[..len].chunks(8) {
                let mut word = [0; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                words.write_u64(u64::from_le_bytes(word));
            }
            assert_eq!(fx.finish(), words.finish(), "{len} bytes");
        }
    }
}
