//! Operation graphs for Algorithm 1 (§3.3, after Aspnes & Herlihy \[7\]
//! and Ovens & Woelfel [27, Algorithm 5]).
//!
//! Every completed operation is a [`OpNode`] holding its invocation,
//! response and `preceding[1..n]` pointers (the view of the snapshot
//! `root` at scan time — a partial real-time order). Nodes are
//! *content-addressed*: their id is a hash of their content, so nodes
//! are immutable and an append-only [`Arena`] can be shared freely
//! (including across branches of the checker's execution tree — a node
//! reachable from a published id always has the same content).
//!
//! [`lingraph`] is Algorithm 1's procedure: start from a topological
//! sort of the real-time graph `G`, add dominance edges that do not
//! close cycles, and return a topological sort of the result.
//! [`response_after`] computes the response of a new invocation
//! appended after that linearization.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use sl2_spec::simple::SimpleTypeSpec;
use sl2_spec::Spec;

/// Node identifier (content hash); [`NULL_NODE`] encodes the paper's
/// `null`.
pub type NodeId = u64;

/// The `null` pointer stored in the initial snapshot.
pub const NULL_NODE: NodeId = 0;

/// One published operation (Algorithm 1's `struct node`).
#[derive(Debug, Clone)]
pub struct OpNode<S: Spec> {
    /// Executing process.
    pub process: usize,
    /// Sequence number of this operation within its process.
    pub seq: u64,
    /// Invocation description.
    pub op: S::Op,
    /// Response chosen at publication time.
    pub resp: S::Resp,
    /// `preceding[1..n]`: the view read from `root` (NULL_NODE = null).
    pub preceding: Vec<NodeId>,
}

// Manual impls: derives would demand `S: Hash`/`S: Eq`, but only the
// associated types need those bounds (`Spec` already requires them).
impl<S: Spec> PartialEq for OpNode<S> {
    fn eq(&self, other: &Self) -> bool {
        self.process == other.process
            && self.seq == other.seq
            && self.op == other.op
            && self.resp == other.resp
            && self.preceding == other.preceding
    }
}

impl<S: Spec> Eq for OpNode<S> {}

impl<S: Spec> Hash for OpNode<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.process.hash(state);
        self.seq.hash(state);
        self.op.hash(state);
        self.resp.hash(state);
        self.preceding.hash(state);
    }
}

impl<S: Spec> OpNode<S> {
    /// The node's content-addressed id (never [`NULL_NODE`]).
    pub fn id(&self) -> NodeId {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish() | 1
    }
}

/// Append-only content-addressed node store.
#[derive(Debug, Clone)]
pub struct Arena<S: Spec> {
    nodes: HashMap<NodeId, OpNode<S>>,
}

impl<S: Spec> Default for Arena<S> {
    fn default() -> Self {
        Arena {
            nodes: HashMap::new(),
        }
    }
}

impl<S: Spec> Arena<S> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Inserts a node, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on a content-hash collision (two distinct nodes with the
    /// same id) — practically unreachable at checker scales, and loud
    /// if it ever happens.
    pub fn insert(&mut self, node: OpNode<S>) -> NodeId {
        let id = node.id();
        if let Some(existing) = self.nodes.get(&id) {
            assert_eq!(existing, &node, "node id collision");
        } else {
            self.nodes.insert(id, node);
        }
        id
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or null (published ids are always
    /// inserted before publication).
    pub fn get(&self, id: NodeId) -> &OpNode<S> {
        self.nodes.get(&id).expect("dangling node id")
    }

    /// Number of stored nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes reachable from the non-null ids in `view` (the BFS of
    /// Algorithm 1 line 13), deduplicated.
    pub fn reachable(&self, view: &[NodeId]) -> Vec<NodeId> {
        let mut seen: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = view.iter().copied().filter(|&v| v != NULL_NODE).collect();
        while let Some(id) = stack.pop() {
            if seen.contains(&id) {
                continue;
            }
            seen.push(id);
            for &p in &self.get(id).preceding {
                if p != NULL_NODE {
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// Length of process `p`'s own chain starting at its component of
    /// `view` — the sequence number for its next operation.
    pub fn own_chain_len(&self, view_entry: NodeId, p: usize) -> u64 {
        let mut len = 0;
        let mut cur = view_entry;
        while cur != NULL_NODE {
            let node = self.get(cur);
            debug_assert_eq!(node.process, p, "own chain crossed processes");
            len += 1;
            cur = node.preceding[p];
        }
        len
    }
}

/// Dense edge/closure workspace over an indexed node set. Reachability
/// is kept as a transitive-closure bitset so Algorithm 1's "does this
/// dominance edge close a cycle?" test is O(1) and edge insertion is
/// O(k²/64) — the pseudocode's semantics at a usable cost.
struct EdgeSpace {
    k: usize,
    words: usize,
    /// `adj[u]` = direct successors of u (bitset).
    adj: Vec<Vec<u64>>,
    /// `reach[u]` = all nodes reachable from u (bitset, irreflexive).
    reach: Vec<Vec<u64>>,
}

impl EdgeSpace {
    fn new(k: usize) -> Self {
        let words = k.div_ceil(64);
        EdgeSpace {
            k,
            words,
            adj: vec![vec![0; words]; k],
            reach: vec![vec![0; words]; k],
        }
    }

    fn bit(v: &[u64], i: usize) -> bool {
        v[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(v: &mut [u64], i: usize) {
        v[i / 64] |= 1 << (i % 64);
    }

    fn reaches(&self, from: usize, to: usize) -> bool {
        Self::bit(&self.reach[from], to)
    }

    /// Adds `u → v`, updating the closure: everything that reaches `u`
    /// (plus `u`) now reaches `v` and everything `v` reaches.
    ///
    /// # Panics
    ///
    /// Panics if the edge would close a cycle (callers check
    /// [`EdgeSpace::reaches`] first), in every build.
    fn add_edge(&mut self, u: usize, v: usize) {
        assert!(!self.reaches(v, u), "edge would close a cycle");
        Self::set(&mut self.adj[u], v);
        // new reach set flowing into u's ancestors: reach[v] | {v}
        let mut delta = self.reach[v].clone();
        Self::set(&mut delta, v);
        for x in 0..self.k {
            if x == u || Self::bit(&self.reach[x], u) {
                let rx = &mut self.reach[x];
                for w in 0..self.words {
                    rx[w] |= delta[w];
                }
            }
        }
    }

    fn indegrees(&self) -> Vec<usize> {
        let mut indeg = vec![0usize; self.k];
        for u in 0..self.k {
            for (v, d) in indeg.iter_mut().enumerate() {
                if Self::bit(&self.adj[u], v) {
                    *d += 1;
                }
            }
        }
        indeg
    }
}

/// Canonical topological sort (Kahn), tie-broken by `(process, seq)`.
fn topo_sort_indexed<S: Spec>(
    arena: &Arena<S>,
    nodes: &[NodeId],
    edges: &EdgeSpace,
) -> Vec<NodeId> {
    let k = nodes.len();
    let mut indeg = edges.indegrees();
    let mut done = vec![false; k];
    let mut order = Vec::with_capacity(k);
    for _ in 0..k {
        let next = (0..k)
            .filter(|&i| !done[i] && indeg[i] == 0)
            .min_by_key(|&i| {
                let node = arena.get(nodes[i]);
                (node.process, node.seq)
            })
            .expect("cycle in operation graph");
        done[next] = true;
        order.push(nodes[next]);
        for (v, d) in indeg.iter_mut().enumerate().take(k) {
            if EdgeSpace::bit(&edges.adj[next], v) {
                *d -= 1;
            }
        }
    }
    order
}

/// Builds the real-time edge space (`preceding → node`).
fn real_time_space<S: Spec>(arena: &Arena<S>, nodes: &[NodeId]) -> EdgeSpace {
    let index: HashMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut space = EdgeSpace::new(nodes.len());
    for (vi, &n) in nodes.iter().enumerate() {
        for &p in &arena.get(n).preceding {
            if p != NULL_NODE {
                let ui = index[&p];
                if !EdgeSpace::bit(&space.adj[ui], vi) {
                    space.add_edge(ui, vi);
                }
            }
        }
    }
    space
}

/// Algorithm 1's `lingraph` + final topological sort: a canonical
/// linearization of the operation graph consistent with real-time
/// order and the dominance relation.
pub fn lingraph<S: SimpleTypeSpec>(spec: &S, arena: &Arena<S>, nodes: &[NodeId]) -> Vec<NodeId> {
    let mut space = real_time_space(arena, nodes);
    let order = topo_sort_indexed(arena, nodes, &space);
    let index: HashMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    for i in 0..order.len() {
        for j in (i + 1)..order.len() {
            let (a, b) = (order[i], order[j]);
            let (ai, bi) = (index[&a], index[&b]);
            let (na, nb) = (arena.get(a), arena.get(b));
            // "op_i dominates op_j": op_j is dominated by op_i — add
            // (op_j, op_i) unless it closes a cycle (line 6–7).
            if spec.dominated((&nb.op, nb.process), (&na.op, na.process))
                && !space.reaches(ai, bi)
                && !EdgeSpace::bit(&space.adj[bi], ai)
            {
                space.add_edge(bi, ai);
            }
            // Symmetric case (line 8–9).
            if spec.dominated((&na.op, na.process), (&nb.op, nb.process))
                && !space.reaches(bi, ai)
                && !EdgeSpace::bit(&space.adj[ai], bi)
            {
                space.add_edge(ai, bi);
            }
        }
    }
    topo_sort_indexed(arena, nodes, &space)
}

/// Executes the linearization from the initial state and returns the
/// response and post-state of appending `op` (Algorithm 1 lines 14–19).
pub fn response_after<S: SimpleTypeSpec>(
    spec: &S,
    arena: &Arena<S>,
    lin: &[NodeId],
    op: &S::Op,
) -> (S::Resp, S::State) {
    let mut state = spec.initial();
    for &id in lin {
        spec.apply(&mut state, &arena.get(id).op);
    }
    let resp = spec.apply(&mut state, op);
    (resp, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_spec::counters::{CounterOp, CounterResp, CounterSpec};
    use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};

    fn node(
        process: usize,
        seq: u64,
        op: MaxOp,
        resp: MaxResp,
        preceding: Vec<NodeId>,
    ) -> OpNode<MaxRegisterSpec> {
        OpNode {
            process,
            seq,
            op,
            resp,
            preceding,
        }
    }

    #[test]
    fn arena_is_content_addressed() {
        let mut arena: Arena<MaxRegisterSpec> = Arena::new();
        let a = arena.insert(node(0, 0, MaxOp::Write(3), MaxResp::Ok, vec![0, 0]));
        let b = arena.insert(node(0, 0, MaxOp::Write(3), MaxResp::Ok, vec![0, 0]));
        assert_eq!(a, b);
        assert_eq!(arena.len(), 1);
        let c = arena.insert(node(1, 0, MaxOp::Write(3), MaxResp::Ok, vec![0, 0]));
        assert_ne!(a, c);
    }

    #[test]
    fn reachable_follows_preceding_chains() {
        let mut arena: Arena<MaxRegisterSpec> = Arena::new();
        let a = arena.insert(node(0, 0, MaxOp::Write(1), MaxResp::Ok, vec![0, 0]));
        let b = arena.insert(node(1, 0, MaxOp::Write(2), MaxResp::Ok, vec![a, 0]));
        let c = arena.insert(node(0, 1, MaxOp::Read, MaxResp::Value(2), vec![a, b]));
        let mut r = arena.reachable(&[c, 0]);
        r.sort_unstable();
        let mut expect = vec![a, b, c];
        expect.sort_unstable();
        assert_eq!(r, expect);
    }

    #[test]
    fn own_chain_len_counts_prior_ops() {
        let mut arena: Arena<MaxRegisterSpec> = Arena::new();
        let a = arena.insert(node(0, 0, MaxOp::Write(1), MaxResp::Ok, vec![0, 0]));
        let b = arena.insert(node(0, 1, MaxOp::Write(2), MaxResp::Ok, vec![a, 0]));
        assert_eq!(arena.own_chain_len(NULL_NODE, 0), 0);
        assert_eq!(arena.own_chain_len(a, 0), 1);
        assert_eq!(arena.own_chain_len(b, 0), 2);
    }

    #[test]
    fn lingraph_orders_dominated_ops_first() {
        // Write(1) and Write(5) concurrent: Write(5) overwrites
        // Write(1), so Write(1) is dominated and must come first; a
        // read after both must then see 5.
        let mut arena: Arena<MaxRegisterSpec> = Arena::new();
        let w1 = arena.insert(node(0, 0, MaxOp::Write(1), MaxResp::Ok, vec![0, 0]));
        let w5 = arena.insert(node(1, 0, MaxOp::Write(5), MaxResp::Ok, vec![0, 0]));
        let lin = lingraph(&MaxRegisterSpec, &arena, &[w1, w5]);
        assert_eq!(lin, vec![w1, w5]);
        let (resp, _) = response_after(&MaxRegisterSpec, &arena, &lin, &MaxOp::Read);
        assert_eq!(resp, MaxResp::Value(5));
    }

    #[test]
    fn lingraph_respects_real_time_over_dominance() {
        // Write(5) completes BEFORE Write(1) starts (real-time edge):
        // dominance (5 overwrites 1) may not reorder them.
        let mut arena: Arena<MaxRegisterSpec> = Arena::new();
        let w5 = arena.insert(node(1, 0, MaxOp::Write(5), MaxResp::Ok, vec![0, 0]));
        let w1 = arena.insert(node(0, 0, MaxOp::Write(1), MaxResp::Ok, vec![0, w5]));
        let lin = lingraph(&MaxRegisterSpec, &arena, &[w1, w5]);
        assert_eq!(lin, vec![w5, w1]);
        let (resp, _) = response_after(&MaxRegisterSpec, &arena, &lin, &MaxOp::Read);
        assert_eq!(resp, MaxResp::Value(5), "max is still 5");
    }

    #[test]
    fn counter_concurrent_incs_both_count() {
        let mut arena: Arena<CounterSpec> = Arena::new();
        let i1 = arena.insert(OpNode {
            process: 0,
            seq: 0,
            op: CounterOp::Inc,
            resp: CounterResp::Ok,
            preceding: vec![0, 0],
        });
        let i2 = arena.insert(OpNode {
            process: 1,
            seq: 0,
            op: CounterOp::Inc,
            resp: CounterResp::Ok,
            preceding: vec![0, 0],
        });
        let lin = lingraph(&CounterSpec, &arena, &[i1, i2]);
        let (resp, _) = response_after(&CounterSpec, &arena, &lin, &CounterOp::Read);
        assert_eq!(resp, CounterResp::Value(2));
    }

    #[test]
    fn edge_space_tracks_transitive_reachability() {
        let mut space = EdgeSpace::new(4);
        space.add_edge(0, 1);
        space.add_edge(1, 2);
        assert!(space.reaches(0, 2), "transitive");
        assert!(!space.reaches(2, 0));
        // Adding 3 → 0 extends 3's reach through the whole chain.
        space.add_edge(3, 0);
        assert!(space.reaches(3, 2));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn edge_space_rejects_cycles() {
        let mut space = EdgeSpace::new(2);
        space.add_edge(0, 1);
        space.add_edge(1, 0);
    }

    #[test]
    fn lingraph_scales_to_hundreds_of_nodes() {
        // A long chain of alternating writers: linear real-time chain
        // plus dominance edges; must complete quickly (the closure
        // bitsets keep this polynomial with small constants).
        let mut arena: Arena<MaxRegisterSpec> = Arena::new();
        let mut last = [0u64, 0u64];
        let mut all = Vec::new();
        for s in 0..150u64 {
            let p = (s % 2) as usize;
            let id = arena.insert(node(
                p,
                s / 2,
                MaxOp::Write(s % 7),
                MaxResp::Ok,
                vec![last[0], last[1]],
            ));
            last[p] = id;
            all.push(id);
        }
        let lin = lingraph(&MaxRegisterSpec, &arena, &all);
        assert_eq!(lin.len(), all.len());
        let (resp, _) = response_after(&MaxRegisterSpec, &arena, &lin, &MaxOp::Read);
        assert_eq!(resp, MaxResp::Value(6));
    }
}
