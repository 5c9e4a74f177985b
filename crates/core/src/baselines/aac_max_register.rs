//! The Aspnes–Attiya–Censor bounded max register \[6\] from
//! multi-writer registers — wait-free, linearizable, and **not**
//! strongly linearizable.
//!
//! The paper's related work says bounded max registers have wait-free
//! strongly-linearizable implementations from multi-writer registers
//! \[18\] — but the *classic* AAC trie construction is not one of
//! them, which is precisely why Helmi–Higham–Woelfel had to design a
//! new algorithm. Our checker rediscovers the obstruction unaided (see
//! the tests): after a `WriteMax(2)` completes, a concurrent reader
//! that already turned left at the root still races a pending
//! `WriteMax(1)` for its 0-or-1 answer — the completed write is
//! linearized, but whether the read precedes it depends on the future.
//! No prefix-closed linearization function survives both extensions.
//!
//! This makes the AAC register the third literature object in this
//! repository whose (non-)strong-linearizability the checker settles
//! mechanically, next to the AGM stack (refuted) and the Treiber stack
//! (verified).
//!
//! Construction: a binary trie over the value domain `[0, 2^h)`. An
//! internal node holds a one-way *switch* register; values in the
//! right half set the switch **after** recursing right, values in the
//! left half recurse left only if the switch is still unset. `ReadMax`
//! descends: right if the switch is set, left otherwise, accumulating
//! bits — at most one register operation per level either way, so both
//! operations take ≤ h steps: wait-free with a constant (per-domain)
//! bound.
//!
//! The switch registers are monotone (0→1 once) and the object is
//! linearizable (every history of the test scenarios passes the
//! checker) — the failure is strictly of *strong* linearizability.

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};

/// Factory for the AAC bounded max register over `[0, 2^height)`.
#[derive(Debug, Clone)]
pub struct AacMaxRegAlg {
    /// Switch registers of the complete binary trie, heap-indexed:
    /// node `i` has children `2i+1`, `2i+2`; leaves hold no register.
    switches: Vec<Loc>,
    height: u32,
}

impl AacMaxRegAlg {
    /// Allocates the trie for values in `[0, 2^height)`.
    ///
    /// # Panics
    ///
    /// Panics if `height` is 0 or above 16.
    pub fn new(mem: &mut SimMemory, height: u32) -> Self {
        assert!((1..=16).contains(&height), "height in 1..=16");
        let internal = (1usize << height) - 1;
        AacMaxRegAlg {
            switches: (0..internal).map(|_| mem.alloc(Cell::Reg(0))).collect(),
            height,
        }
    }

    /// Largest representable value.
    pub fn max_value(&self) -> u64 {
        (1u64 << self.height) - 1
    }
}

impl Algorithm for AacMaxRegAlg {
    type Spec = MaxRegisterSpec;
    type Machine = AacMaxMachine;

    fn spec(&self) -> MaxRegisterSpec {
        MaxRegisterSpec
    }

    fn machine(&self, _process: usize, op: &MaxOp) -> AacMaxMachine {
        match *op {
            MaxOp::Write(v) => {
                assert!(
                    v <= self.max_value(),
                    "value {v} exceeds the bounded domain"
                );
                AacMaxMachine::Write {
                    alg: self.clone(),
                    node: 0,
                    level: self.height,
                    v,
                }
            }
            MaxOp::Read => AacMaxMachine::Read {
                alg: self.clone(),
                node: 0,
                level: self.height,
                acc: 0,
            },
        }
    }
}

/// Step machine for the AAC bounded max register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AacMaxMachine {
    /// `WriteMax` descending at `node` with `level` levels below.
    Write {
        /// Trie handles.
        alg: AacMaxRegAlg,
        /// Current heap-indexed node.
        node: usize,
        /// Levels remaining below this node.
        level: u32,
        /// Value bits still to place (relative to this subtree).
        v: u64,
    },
    /// Right-half write completed its recursion: set the switch.
    WriteSetSwitch {
        /// Trie handles.
        alg: AacMaxRegAlg,
        /// Chain of switches to set, deepest first (bottom-up).
        pending: Vec<usize>,
    },
    /// `ReadMax` descending.
    Read {
        /// Trie handles.
        alg: AacMaxRegAlg,
        /// Current heap-indexed node.
        node: usize,
        /// Levels remaining below this node.
        level: u32,
        /// Bits accumulated so far.
        acc: u64,
    },
}

// Manual Eq/Hash on the structural fields only (alg handles are part
// of the structure and hashable; derive would work but spell it out
// for clarity with the Vec<Loc> inside BoundedMaxAlg).
impl std::hash::Hash for AacMaxRegAlg {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.switches.hash(state);
        self.height.hash(state);
    }
}

impl PartialEq for AacMaxRegAlg {
    fn eq(&self, other: &Self) -> bool {
        self.switches == other.switches && self.height == other.height
    }
}

impl Eq for AacMaxRegAlg {}

impl OpMachine for AacMaxMachine {
    type Resp = MaxResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
        match self.clone() {
            AacMaxMachine::Write {
                alg,
                node,
                level,
                v,
            } => {
                debug_assert!(level > 0);
                let half = 1u64 << (level - 1);
                if v >= half {
                    // Descend right without touching the switch yet;
                    // collect the switches to set on the way back up
                    // (deepest first), so a reader that sees a switch
                    // set finds the whole suffix already written.
                    let mut pending = Vec::new();
                    let mut cur_node = node;
                    let mut cur_level = level;
                    let mut cur_v = v;
                    loop {
                        let h = 1u64 << (cur_level - 1);
                        if cur_v >= h {
                            pending.push(cur_node);
                            cur_v -= h;
                            cur_node = 2 * cur_node + 2;
                        } else {
                            cur_node = 2 * cur_node + 1;
                        }
                        cur_level -= 1;
                        if cur_level == 0 {
                            break;
                        }
                    }
                    // Set deepest switch first.
                    pending.reverse();
                    *self = AacMaxMachine::WriteSetSwitch { alg, pending };
                    // No memory operation yet this step would violate
                    // the one-op-per-step discipline — perform the
                    // first switch write immediately.
                    return self.step(mem);
                }
                // Left half: proceed only if the switch is unset.
                if mem.read(alg.switches[node]) == 1 {
                    // A larger value is present: nothing to do below.
                    return Step::Ready(MaxResp::Ok);
                }
                if level == 1 {
                    // v == 0 in a domain of two: nothing to record.
                    return Step::Ready(MaxResp::Ok);
                }
                *self = AacMaxMachine::Write {
                    alg,
                    node: 2 * node + 1,
                    level: level - 1,
                    v,
                };
                Step::Pending
            }
            AacMaxMachine::WriteSetSwitch { alg, mut pending } => {
                let node = pending.remove(0);
                mem.write(alg.switches[node], 1);
                if pending.is_empty() {
                    Step::Ready(MaxResp::Ok)
                } else {
                    *self = AacMaxMachine::WriteSetSwitch { alg, pending };
                    Step::Pending
                }
            }
            AacMaxMachine::Read {
                alg,
                node,
                level,
                acc,
            } => {
                debug_assert!(level > 0);
                let half = 1u64 << (level - 1);
                let bit = mem.read(alg.switches[node]);
                let (next_node, next_acc) = if bit == 1 {
                    (2 * node + 2, acc + half)
                } else {
                    (2 * node + 1, acc)
                };
                if level == 1 {
                    return Step::Ready(MaxResp::Value(next_acc));
                }
                *self = AacMaxMachine::Read {
                    alg,
                    node: next_node,
                    level: level - 1,
                    acc: next_acc,
                };
                Step::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_exec::is_linearizable;
    use sl2_exec::machine::run_solo;
    use sl2_exec::sched::{run, CrashPlan, RandomSched, Scenario};
    use sl2_exec::strong::check_strong;

    #[test]
    fn solo_semantics_across_the_domain() {
        let mut mem = SimMemory::new();
        let alg = AacMaxRegAlg::new(&mut mem, 3); // domain 0..8
        let (r, _) = run_solo(&mut alg.machine(0, &MaxOp::Read), &mut mem);
        assert_eq!(r, MaxResp::Value(0));
        for (write, expect) in [(3u64, 3u64), (1, 3), (6, 6), (5, 6), (7, 7)] {
            run_solo(&mut alg.machine(0, &MaxOp::Write(write)), &mut mem);
            let (r, _) = run_solo(&mut alg.machine(1, &MaxOp::Read), &mut mem);
            assert_eq!(r, MaxResp::Value(expect), "after write {write}");
        }
    }

    #[test]
    fn every_value_round_trips() {
        for v in 0..8u64 {
            let mut mem = SimMemory::new();
            let alg = AacMaxRegAlg::new(&mut mem, 3);
            run_solo(&mut alg.machine(0, &MaxOp::Write(v)), &mut mem);
            let (r, steps) = run_solo(&mut alg.machine(1, &MaxOp::Read), &mut mem);
            assert_eq!(r, MaxResp::Value(v));
            assert_eq!(steps, 3, "reads take exactly height steps");
        }
    }

    #[test]
    fn wait_free_height_bound() {
        let mut mem = SimMemory::new();
        let alg = AacMaxRegAlg::new(&mut mem, 3);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(5), MaxOp::Read],
            vec![MaxOp::Write(3), MaxOp::Write(6)],
            vec![MaxOp::Read, MaxOp::Read],
        ]);
        for seed in 0..60 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(exec.max_op_steps() <= 3, "≤ height steps per op");
            assert!(
                is_linearizable(&MaxRegisterSpec, &exec.history),
                "seed {seed}: {:?}",
                exec.history
            );
        }
    }

    /// The minimal counterexample the checker discovered: two writers
    /// and one reader over domain 0..4.
    fn witness_scenario() -> Scenario<MaxRegisterSpec> {
        Scenario::new(vec![
            vec![MaxOp::Write(1)],
            vec![MaxOp::Write(2)],
            vec![MaxOp::Read],
        ])
    }

    #[test]
    fn aac_every_witness_history_is_linearizable() {
        use sl2_exec::for_each_history;
        let mut mem = SimMemory::new();
        let alg = AacMaxRegAlg::new(&mut mem, 2);
        let mut histories = 0;
        for_each_history(&alg, mem, &witness_scenario(), 2_000_000, &mut |h| {
            histories += 1;
            assert!(is_linearizable(&MaxRegisterSpec, h), "{h:?}");
        });
        assert!(histories > 10);
    }

    #[test]
    fn aac_is_not_strongly_linearizable() {
        // The checker's discovery: once Write(2) completes, a reader
        // that turned left at the root still races the pending
        // Write(1) for its 0-or-1 answer; Read→0 would have to
        // precede the already-linearized Write(2). Prefix closure is
        // impossible.
        let mut mem = SimMemory::new();
        let alg = AacMaxRegAlg::new(&mut mem, 2);
        let out = check_strong(&alg, mem, &witness_scenario(), 16_000_000);
        assert!(
            out.is_refuted(),
            "plain AAC must NOT be strongly linearizable"
        );
    }

    #[test]
    fn aac_two_process_scenarios_are_strongly_linearizable() {
        // With only two processes the race has no observer: the
        // violation genuinely needs the third party.
        let mut mem = SimMemory::new();
        let alg = AacMaxRegAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2), MaxOp::Read],
            vec![MaxOp::Write(3), MaxOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 16_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn sweep_small_scenarios() {
        let alphabet = [
            MaxOp::Write(1),
            MaxOp::Write(2),
            MaxOp::Write(3),
            MaxOp::Read,
        ];
        for a in &alphabet {
            for b in &alphabet {
                for c in &alphabet {
                    let mut mem = SimMemory::new();
                    let alg = AacMaxRegAlg::new(&mut mem, 2);
                    let scenario = Scenario::new(vec![vec![*a, *b], vec![*c]]);
                    let out = check_strong(&alg, mem, &scenario, 16_000_000);
                    assert!(
                        out.is_certified(),
                        "scenario [[{a:?},{b:?}],[{c:?}]]: {:?}",
                        out.outcome
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the bounded domain")]
    fn out_of_domain_write_rejected() {
        let mut mem = SimMemory::new();
        let alg = AacMaxRegAlg::new(&mut mem, 2);
        alg.machine(0, &MaxOp::Write(4));
    }
}
