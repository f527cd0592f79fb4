//! An indexed d-ary min-heap over node deadlines.
//!
//! The scheduler needs three things from its priority queue: find every
//! node due at the earliest instant, change one node's deadline in
//! place (decrease-key *and* increase-key — deadlines move both ways
//! when a component is commanded), and stay bit-deterministic. A plain
//! `BinaryHeap` forces lazy invalidation: every reschedule pushes a new
//! entry and stale ones are discarded when they surface, so the heap
//! carries garbage proportional to the routing rate and every `peek`
//! re-validates against the node registry.
//!
//! [`IndexedHeap`] keeps at most one entry per node and a `node → slot`
//! position index, so [`IndexedHeap::set`] relocates the node with
//! ordinary sift operations in O(log n) and stale entries never exist.
//! The arity is 4 (`D`): sift-down does more comparisons per level but
//! the tree is half as deep and the slot array is walked with better
//! locality — the classic d-ary trade that favours decrease-key-heavy
//! workloads like a simulation scheduler.
//!
//! Ordering is lexicographic on `(deadline, node)`, which is exactly the
//! service order the harness guarantees (registration order on deadline
//! ties).
//!
//! # Due nodes keep their slot
//!
//! [`IndexedHeap::due`] lists the nodes due at or before an instant
//! without removing them: it walks the subtree of such keys from the
//! root (by the heap property nothing below a later key can be due)
//! and sorts the few node ids it finds. The scheduler then re-keys each
//! serviced node with one in-place [`IndexedHeap::set`], a single sift,
//! where popping it and pushing it back would cost a removal (sift down
//! and sift up) and an insertion (sift up) per event.
//!
//! # Layout
//!
//! The heap is stored struct-of-arrays: the deadline keys live in their
//! own `heap_key` array, **in heap order**, parallel to the `heap_node`
//! array. Sift comparisons — the only thing the hot path does — then
//! walk one contiguous `SimTime` array instead of chasing `node → key`
//! indirections, and a parent-vs-children comparison round touches one
//! cache line of keys. The node ids ride along as `u32` (the slot array
//! too), halving the index traffic against the `usize` layout. The
//! order of `(deadline, node)` pairs is total, so the layout is
//! unobservable: any internal arrangement yields the same head and the
//! same due sets, which the enumerated-permutation tests below pin.
//!
//! Nothing here allocates after the node-index arrays have grown to the
//! registered node count: `set` and `peek` are allocation-free, and
//! `due` fills a caller's buffer that keeps its capacity, which is what
//! makes the harness hot path zero-allocation in steady state.

use crate::time::SimTime;

/// Sentinel for "node not currently scheduled".
const ABSENT: u32 = u32::MAX;

/// Heap arity.
const D: usize = 4;

/// An indexed min-heap of `(SimTime, node)` keys with O(log n)
/// update-key per node. See the module docs.
#[derive(Debug, Default)]
pub struct IndexedHeap {
    /// Deadline of the entry in each heap slot (parallel to
    /// `heap_node`): `heap_key[0]` is the earliest deadline.
    heap_key: Vec<SimTime>,
    /// Node of the entry in each heap slot.
    heap_node: Vec<u32>,
    /// `pos[node]` is the node's slot in the heap arrays, or [`ABSENT`].
    pos: Vec<u32>,
}

impl IndexedHeap {
    /// An empty heap.
    pub fn new() -> Self {
        IndexedHeap::default()
    }

    /// Makes room for `n` more nodes without regrowing the arrays.
    pub fn reserve(&mut self, n: usize) {
        self.heap_key.reserve_exact(n);
        self.heap_node.reserve_exact(n);
        self.pos.reserve_exact(n);
    }

    /// The earliest `(deadline, node)` pair without removing it.
    pub fn peek(&self) -> Option<(SimTime, usize)> {
        let &node = self.heap_node.first()?;
        Some((self.heap_key[0], node as usize))
    }

    /// Schedules, reschedules, or (with `None`) unschedules `node` in
    /// O(log n). Idempotent when the deadline is unchanged. Grows the
    /// index arrays on first sight of a node, so callers register nodes
    /// simply by setting their deadline.
    pub fn set(&mut self, node: usize, at: Option<SimTime>) {
        if node >= self.pos.len() {
            self.pos.resize(node + 1, ABSENT);
        }
        let p = self.pos[node];
        match (p, at) {
            (ABSENT, None) => {}
            (ABSENT, Some(at)) => {
                let slot = self.heap_node.len();
                self.pos[node] = slot as u32;
                self.heap_key.push(at);
                self.heap_node.push(node as u32);
                self.sift_up(slot);
            }
            (p, None) => self.remove_at(p as usize),
            (p, Some(at)) => {
                let p = p as usize;
                let old = self.heap_key[p];
                if at == old {
                    return;
                }
                self.heap_key[p] = at;
                if at < old {
                    self.sift_up(p);
                } else {
                    self.sift_down(p);
                }
            }
        }
    }

    /// Fills `out` with every node scheduled at or before `t`, in node
    /// order, and leaves them scheduled. The walk visits only the due
    /// slots and their children: `out` first serves as the queue of due
    /// slots, then each slot is replaced by its node.
    pub fn due(&self, t: SimTime, out: &mut Vec<usize>) {
        out.clear();
        if self.heap_key.first().is_none_or(|&at| at > t) {
            return;
        }
        out.push(0);
        let mut i = 0;
        while i < out.len() {
            let first_child = out[i] * D + 1;
            let end = (first_child + D).min(self.heap_key.len());
            for c in first_child..end {
                if self.heap_key[c] <= t {
                    out.push(c);
                }
            }
            i += 1;
        }
        for slot in out.iter_mut() {
            *slot = self.heap_node[*slot] as usize;
        }
        out.sort_unstable();
    }

    /// Removes the entry at heap slot `p`, restoring the heap property.
    fn remove_at(&mut self, p: usize) {
        self.pos[self.heap_node[p] as usize] = ABSENT;
        let last = self.heap_node.len() - 1;
        if p != last {
            let moved = self.heap_node[last];
            self.heap_node[p] = moved;
            self.heap_key[p] = self.heap_key[last];
            self.pos[moved as usize] = p as u32;
            self.heap_node.pop();
            self.heap_key.pop();
            // The displaced entry may belong above or below slot `p`.
            self.sift_down(p);
            self.sift_up(self.pos[moved as usize] as usize);
        } else {
            self.heap_node.pop();
            self.heap_key.pop();
        }
    }

    /// `(key, node)` order of the entries in heap slots `a` and `b`.
    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        (self.heap_key[a], self.heap_node[a]) < (self.heap_key[b], self.heap_node[b])
    }

    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap_key.swap(a, b);
        self.heap_node.swap(a, b);
        self.pos[self.heap_node[a] as usize] = a as u32;
        self.pos[self.heap_node[b] as usize] = b as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            if self.less(i, parent) {
                self.swap_slots(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first_child = i * D + 1;
            if first_child >= self.heap_node.len() {
                break;
            }
            let mut best = first_child;
            let end = (first_child + D).min(self.heap_node.len());
            for c in first_child + 1..end {
                if self.less(c, best) {
                    best = c;
                }
            }
            if self.less(best, i) {
                self.swap_slots(i, best);
                i = best;
            } else {
                break;
            }
        }
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        assert_eq!(self.heap_key.len(), self.heap_node.len(), "key/node arrays");
        let indexed = self.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(
            indexed,
            self.heap_node.len(),
            "pos index counts a stray slot"
        );
        for (slot, &node) in self.heap_node.iter().enumerate() {
            assert_eq!(
                self.pos[node as usize], slot as u32,
                "pos index out of sync"
            );
            if slot > 0 {
                let parent = (slot - 1) / D;
                assert!(!self.less(slot, parent), "heap property violated");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    /// `h.set(node, at)`, then the structural invariants.
    fn set(h: &mut IndexedHeap, node: usize, at: Option<u64>) {
        h.set(node, at.map(t));
        h.check_invariants();
    }

    /// Reference: take the head and unschedule it until none is left,
    /// which yields the live `(deadline, node)` set in service order.
    fn drain_sorted(h: &mut IndexedHeap) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        while let Some((at, n)) = h.peek() {
            out.push((at.as_ns(), n));
            set(h, n, None);
        }
        out
    }

    /// Walks every permutation of `0..n` (Heap's algorithm, no RNG) and
    /// hands each to `f`.
    fn for_each_permutation(n: usize, mut f: impl FnMut(&[usize])) {
        let mut a: Vec<usize> = (0..n).collect();
        let mut c = vec![0usize; n];
        f(&a);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    a.swap(0, i);
                } else {
                    a.swap(c[i], i);
                }
                f(&a);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn services_deadlines_in_time_then_node_order_for_all_insertion_orders() {
        // Deadlines with deliberate ties: nodes 1/4 share 50 ns, nodes
        // 0/3/5 share 20 ns. Whatever the insertion order, the heads
        // must come out sorted by (deadline, node) — the harness's
        // service order.
        let deadlines = [20u64, 50, 10, 20, 50, 20];
        let mut expected: Vec<(u64, usize)> =
            deadlines.iter().enumerate().map(|(n, &d)| (d, n)).collect();
        expected.sort_unstable();
        let mut checked = 0u32;
        for_each_permutation(deadlines.len(), |perm| {
            let mut h = IndexedHeap::new();
            for &n in perm {
                set(&mut h, n, Some(deadlines[n]));
            }
            assert_eq!(drain_sorted(&mut h), expected, "insertion order {perm:?}");
            checked += 1;
        });
        assert_eq!(checked, 720, "all 6! permutations enumerated");
    }

    #[test]
    fn due_lists_exactly_the_nodes_at_or_before_an_instant_for_all_insertion_orders() {
        // Every insertion order of eleven deadlines (ties at 20 and 50;
        // enough nodes to fill a second 4-ary level) and every threshold
        // around them: `due(t)` is the sorted set of nodes due at or
        // before `t`, and it changes nothing — the drain that follows is
        // the one a heap never asked yields.
        let deadlines = [20u64, 50, 10, 20, 50, 20, 35, 90, 10, 70, 20];
        let mut all: Vec<(u64, usize)> =
            deadlines.iter().enumerate().map(|(n, &d)| (d, n)).collect();
        all.sort_unstable();
        let thresholds = [0u64, 9, 10, 19, 20, 34, 35, 50, 69, 89, 90, 1_000];
        let mut due = Vec::new();
        let mut checked = 0u32;
        // The permutations of the first seven nodes, the last four
        // inserted after them in index order.
        for_each_permutation(7, |perm| {
            let mut h = IndexedHeap::new();
            for n in perm.iter().copied().chain(7..deadlines.len()) {
                set(&mut h, n, Some(deadlines[n]));
            }
            for &at in &thresholds {
                h.due(t(at), &mut due);
                let want: Vec<usize> = (0..deadlines.len())
                    .filter(|&n| deadlines[n] <= at)
                    .collect();
                assert_eq!(due, want, "due({at}) after insertion order {perm:?}");
                h.check_invariants();
            }
            assert_eq!(drain_sorted(&mut h), all, "insertion order {perm:?}");
            checked += 1;
        });
        assert_eq!(checked, 5_040, "all 7! permutations enumerated");
    }

    #[test]
    fn due_nodes_rekeyed_in_place_match_the_model() {
        // The scheduler's step: list the nodes due at the head instant,
        // then give each a new deadline (or none) in place. After every
        // step the heap must head the model's (deadline, node) set with
        // its minimum, whatever order the due nodes are re-keyed in.
        let initial = [30u64, 10, 10, 40, 10, 25];
        for_each_permutation(3, |rank| {
            let mut h = IndexedHeap::new();
            let mut model: Vec<Option<u64>> = initial.iter().map(|&d| Some(d)).collect();
            for (n, &d) in initial.iter().enumerate() {
                set(&mut h, n, Some(d));
            }
            let mut due = Vec::new();
            for step in 0..12u64 {
                let Some((head, _)) = h.peek() else { break };
                let now = head.as_ns();
                h.due(head, &mut due);
                let want: Vec<usize> = (0..model.len())
                    .filter(|&n| model[n].is_some_and(|d| d <= now))
                    .collect();
                assert_eq!(due, want, "step {step}, rank {rank:?}");
                let mut order = due.clone();
                order.sort_by_key(|&n| (rank[n % 3], n));
                for n in order {
                    let idle = (n as u64 + step).is_multiple_of(3);
                    let at = (!idle).then(|| now + 5 + 7 * (n as u64 % 4));
                    set(&mut h, n, at);
                    model[n] = at;
                }
                let min = (0..model.len())
                    .filter_map(|n| model[n].map(|d| (d, n)))
                    .min();
                assert_eq!(
                    h.peek().map(|(at, n)| (at.as_ns(), n)),
                    min,
                    "step {step}, rank {rank:?}"
                );
            }
            let mut expected: Vec<(u64, usize)> = model
                .iter()
                .enumerate()
                .filter_map(|(n, d)| d.map(|d| (d, n)))
                .collect();
            expected.sort_unstable();
            assert_eq!(drain_sorted(&mut h), expected, "rank {rank:?}");
        });
    }

    #[test]
    fn update_key_moves_both_directions() {
        let mut h = IndexedHeap::new();
        for (n, d) in [(0usize, 40u64), (1, 10), (2, 30), (3, 20)] {
            set(&mut h, n, Some(d));
        }
        // Decrease-key: node 0 jumps to the front.
        set(&mut h, 0, Some(5));
        assert_eq!(h.peek(), Some((t(5), 0)));
        // Increase-key: node 0 sinks to the back.
        set(&mut h, 0, Some(100));
        assert_eq!(h.peek(), Some((t(10), 1)));
        assert_eq!(
            drain_sorted(&mut h),
            vec![(10, 1), (20, 3), (30, 2), (100, 0)]
        );
    }

    #[test]
    fn update_key_exhaustive_against_reference() {
        // Every permutation of a key-mutation script applied to 5 nodes,
        // checked against a sort of the final (deadline, node) set. No
        // RNG: the scripts are enumerated.
        let ops: [(usize, Option<u64>); 5] = [
            (0, Some(70)), // increase
            (1, Some(5)),  // decrease
            (2, None),     // unschedule
            (3, Some(25)), // no-op (same key)
            (4, Some(25)), // tie with node 3
        ];
        for_each_permutation(ops.len(), |perm| {
            let mut h = IndexedHeap::new();
            let initial = [10u64, 20, 30, 25, 40];
            for (n, &d) in initial.iter().enumerate() {
                set(&mut h, n, Some(d));
            }
            let mut model: Vec<Option<u64>> = initial.iter().map(|&d| Some(d)).collect();
            for &k in perm {
                let (node, at) = ops[k];
                set(&mut h, node, at);
                model[node] = at;
            }
            let mut expected: Vec<(u64, usize)> = model
                .iter()
                .enumerate()
                .filter_map(|(n, d)| d.map(|d| (d, n)))
                .collect();
            expected.sort_unstable();
            assert_eq!(drain_sorted(&mut h), expected, "script order {perm:?}");
        });
    }

    #[test]
    fn reschedule_after_pop_reenters_cleanly() {
        // Taking the head off (peek, then unschedule) and scheduling the
        // node again puts it back in order.
        let mut h = IndexedHeap::new();
        let mut due = Vec::new();
        set(&mut h, 0, Some(10));
        set(&mut h, 1, Some(20));
        assert_eq!(h.peek(), Some((t(10), 0)));
        set(&mut h, 0, None);
        h.due(t(15), &mut due);
        assert!(due.is_empty(), "an unscheduled node is never due");
        set(&mut h, 0, Some(15));
        h.due(t(15), &mut due);
        assert_eq!(due, [0]);
        assert_eq!(drain_sorted(&mut h), vec![(15, 0), (20, 1)]);
        assert_eq!(h.peek(), None);
    }

    #[test]
    fn unschedule_absent_is_a_no_op() {
        let mut h = IndexedHeap::new();
        set(&mut h, 7, None);
        assert_eq!(h.peek(), None);
        set(&mut h, 7, Some(3));
        set(&mut h, 7, None);
        assert_eq!(h.peek(), None);
        let mut due = vec![99];
        h.due(SimTime::MAX, &mut due);
        assert!(due.is_empty(), "an empty heap has nothing due");
    }

    #[test]
    fn removal_from_middle_keeps_heap_property() {
        // Enough nodes to make the swap-with-last slot land mid-tree for
        // a 4-ary layout; remove each node in turn from a fresh heap.
        let deadlines: Vec<u64> = (0..17).map(|k| (k * 7 + 3) % 23).collect();
        for victim in 0..deadlines.len() {
            let mut h = IndexedHeap::new();
            for (n, &d) in deadlines.iter().enumerate() {
                set(&mut h, n, Some(d));
            }
            set(&mut h, victim, None);
            let mut expected: Vec<(u64, usize)> = deadlines
                .iter()
                .enumerate()
                .filter(|&(n, _)| n != victim)
                .map(|(n, &d)| (d, n))
                .collect();
            expected.sort_unstable();
            assert_eq!(drain_sorted(&mut h), expected, "victim {victim}");
        }
    }
}
