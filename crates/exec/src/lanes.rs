//! Twin steps: the two shared-memory shapes the §3 fetch&add twins are
//! built from.
//!
//! Every fetch&add construction in the paper moves a lane the same way:
//! it reads `R` with `fetch&add(R, 0)`, decodes its own lane, then moves
//! the lane with one `fetch&add(R, posAdj − negAdj)` (§3.1, §3.2).
//! [`LaneWrite`] is that pair of steps. A sharded object reads the whole
//! object by probing one register per shard, in naive mode once and in
//! stable mode until two passes agree; [`Collect`] is that loop. Each
//! `step` makes exactly one [`SimMemory`] call. The codec and the probe
//! rule are not the twins' own: [`Lanes`] and [`Target::next`] come from
//! `sl2_bignum`, and the production objects call the same two.
//!
//! A state carries what its next step needs and nothing more: an
//! [`LaneWrite::Add`] forgets the value it moves the lane to, so two
//! writes with the same adjustment are one state. What follows a write
//! stays in the caller's state. A twin built from these steps therefore
//! has states in one-to-one correspondence with a twin that spells the
//! steps out, and `check_strong`, which memoizes on state equality and
//! explores processes in order, builds the same tree for both.

use std::rc::Rc;

use sl2_bignum::{BigNat, Lanes, Target};

use crate::machine::Step;
use crate::mem::{Loc, SimMemory};

/// One lane write: probe the register, then move the own lane with one
/// signed fetch&add. The lane has a single writer, so the probed value
/// is still the lane's value when the add lands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LaneWrite {
    /// Read the register with `fetch&add(R, 0)` and decode lane `lane`.
    /// If the lane is already where `target` puts it, the probe is the
    /// write's linearization point and the write is done.
    Probe {
        /// The wide register.
        reg: Loc,
        /// Its lanes.
        lanes: Lanes,
        /// The writer's lane.
        lane: usize,
        /// Where the lane goes.
        target: Target,
    },
    /// Land `fetch&add(R, pos − neg)`.
    Add {
        /// The wide register.
        reg: Loc,
        /// Lane bits to set.
        pos: BigNat,
        /// Lane bits to clear.
        neg: BigNat,
    },
}

impl LaneWrite {
    /// A write of lane `lane` of `reg`, about to probe.
    pub fn new(reg: Loc, lanes: Lanes, lane: usize, target: Target) -> Self {
        LaneWrite::Probe {
            reg,
            lanes,
            lane,
            target,
        }
    }

    /// The register whose lane the write moves.
    pub fn reg(&self) -> Loc {
        match self {
            LaneWrite::Probe { reg, .. } | LaneWrite::Add { reg, .. } => *reg,
        }
    }

    /// Takes the write's next step: one memory operation. Ready once
    /// the write is done.
    pub fn step(&mut self, mem: &mut SimMemory) -> Step<()> {
        match self {
            LaneWrite::Probe {
                reg,
                lanes,
                lane,
                target,
            } => {
                let image = mem.wide_adjust(*reg, &BigNat::zero(), &BigNat::zero());
                let prev = lanes.decode(*lane, &image);
                let Some(new) = target.next(prev) else {
                    return Step::Ready(());
                };
                let (pos, neg) = lanes.adjustments(*lane, prev, new);
                *self = LaneWrite::Add {
                    reg: *reg,
                    pos,
                    neg,
                };
                Step::Pending
            }
            LaneWrite::Add { reg, pos, neg } => {
                mem.wide_adjust(*reg, pos, neg);
                Step::Ready(())
            }
        }
    }
}

/// How a whole-object read visits the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WholeReadMode {
    /// Collect until two consecutive collects agree (the production
    /// discipline: exact, lock-free).
    Stable,
    /// One pass, no stability check (wait-free; exact only at shard
    /// granularity).
    Naive,
}

/// What a [`Collect`] keeps of each register it probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduce {
    /// The largest lane value.
    Fold,
    /// The sum of the lane values.
    Sum,
    /// Every lane value, for a view of this many components: each
    /// register holds as many as it has lanes, the last one what is
    /// left.
    View(usize),
}

/// A whole-object read: one `fetch&add(R, 0)` per register, in order,
/// one pass in [`WholeReadMode::Naive`] and until two consecutive
/// passes agree in [`WholeReadMode::Stable`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Collect {
    regs: Rc<[Loc]>,
    lanes: Lanes,
    reduce: Reduce,
    mode: WholeReadMode,
    /// Next register to probe.
    idx: usize,
    /// What this pass has kept so far.
    current: Vec<u64>,
    /// The previous complete pass (stable mode only).
    previous: Option<Vec<u64>>,
}

impl Collect {
    /// A read of `regs`, about to probe the first.
    pub fn new(regs: Rc<[Loc]>, lanes: Lanes, reduce: Reduce, mode: WholeReadMode) -> Self {
        Collect {
            regs,
            lanes,
            reduce,
            mode,
            idx: 0,
            current: Vec::new(),
            previous: None,
        }
    }

    /// Probes the next register: one memory operation. Ready with the
    /// finished pass once the read may return.
    pub fn step(&mut self, mem: &mut SimMemory) -> Step<Vec<u64>> {
        let image = mem.wide_adjust(self.regs[self.idx], &BigNat::zero(), &BigNat::zero());
        match self.reduce {
            Reduce::Fold => self.current.push(self.lanes.fold(&image)),
            Reduce::Sum => self.current.push(self.lanes.sum(&image)),
            Reduce::View(n) => {
                let width = self.lanes.layout.processes().min(n - self.current.len());
                let group = Lanes::new(width, self.lanes.encoding);
                self.current.extend(group.view(&image));
            }
        }
        self.idx += 1;
        if self.idx < self.regs.len() {
            return Step::Pending;
        }
        let done = std::mem::take(&mut self.current);
        if self.mode == WholeReadMode::Naive || self.previous.as_ref() == Some(&done) {
            return Step::Ready(done);
        }
        self.previous = Some(done);
        self.idx = 0;
        Step::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Cell;
    use sl2_bignum::LaneEncoding;

    fn wide(mem: &mut SimMemory) -> Loc {
        mem.alloc(Cell::Wide(BigNat::zero()))
    }

    fn run_write(mem: &mut SimMemory, mut w: LaneWrite) -> u64 {
        let mut steps = 1;
        while w.step(mem) == Step::Pending {
            steps += 1;
        }
        steps
    }

    #[test]
    fn each_target_probes_then_adds_only_when_the_lane_moves() {
        for encoding in [LaneEncoding::Unary, LaneEncoding::Binary] {
            let mut mem = SimMemory::new();
            let reg = wide(&mut mem);
            let lanes = Lanes::new(2, encoding);
            let write = |t| LaneWrite::new(reg, lanes, 1, t);
            assert_eq!(run_write(&mut mem, write(Target::AtLeast(3))), 2);
            assert_eq!(run_write(&mut mem, write(Target::AtLeast(2))), 1);
            assert_eq!(run_write(&mut mem, write(Target::Increment)), 2);
            let image = mem.wide_read(reg);
            assert_eq!((lanes.decode(0, &image), lanes.decode(1, &image)), (0, 4));
        }
        let mut mem = SimMemory::new();
        let reg = wide(&mut mem);
        let lanes = Lanes::new(2, LaneEncoding::Binary);
        let write = |t| LaneWrite::new(reg, lanes, 0, t);
        assert_eq!(run_write(&mut mem, write(Target::Exactly(6))), 2);
        assert_eq!(run_write(&mut mem, write(Target::Exactly(6))), 1);
        assert_eq!(run_write(&mut mem, write(Target::Exactly(1))), 2);
        assert_eq!(lanes.view(&mem.wide_read(reg)), vec![1, 0]);
    }

    #[test]
    fn a_stable_collect_returns_two_agreeing_passes_and_a_naive_one_the_first() {
        let mut mem = SimMemory::new();
        let regs: Rc<[Loc]> = (0..2).map(|_| wide(&mut mem)).collect();
        let lanes = Lanes::new(2, LaneEncoding::Binary);
        run_write(
            &mut mem,
            LaneWrite::new(regs[1], lanes, 0, Target::Exactly(5)),
        );
        for (mode, probes) in [(WholeReadMode::Naive, 2), (WholeReadMode::Stable, 4)] {
            let mut read = Collect::new(Rc::clone(&regs), lanes, Reduce::Fold, mode);
            let mut pass = None;
            for _ in 0..probes {
                pass = read.step(&mut mem).ready();
            }
            assert_eq!(pass, Some(vec![0, 5]), "{mode:?}");
        }
        // A five-component view over groups of two: the last group has
        // one lane.
        let groups: Rc<[Loc]> = (0..3).map(|_| wide(&mut mem)).collect();
        let last = Lanes::new(1, LaneEncoding::Binary);
        run_write(
            &mut mem,
            LaneWrite::new(groups[2], last, 0, Target::Exactly(9)),
        );
        let mut scan = Collect::new(groups, lanes, Reduce::View(5), WholeReadMode::Naive);
        assert_eq!(scan.step(&mut mem), Step::Pending);
        assert_eq!(scan.step(&mut mem), Step::Pending);
        assert_eq!(scan.step(&mut mem), Step::Ready(vec![0, 0, 0, 0, 9]));
    }
}
