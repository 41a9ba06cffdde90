//! Frozen CSR adjacency index and allocation-free traversal scratch.
//!
//! The hierarchy traversals (ancestors, descendants, part-of / instance-of
//! closures, cycle probes) used to allocate a fresh `Vec` + `BTreeSet` per
//! call. This module removes both costs:
//!
//! * [`Adjacency`] abstracts edge iteration so one set of traversal routines
//!   serves two backends: the live [`SchemaGraph`] (serial incremental path —
//!   no index build needed) and a frozen [`ClosureIndex`] (parallel path —
//!   built once per sync and shared by every worker).
//! * [`ClosureIndex`] is a compact CSR (compressed sparse row) snapshot of
//!   the supertype / subtype / part-of / instance-of edges. It is a plain
//!   bundle of `Vec`s — `Send + Sync` — so `parallel.rs` workers can share
//!   one snapshot by reference. It is generation-stamped; a stale index must
//!   not be used against a mutated graph.
//! * [`ClosureScratch`] holds epoch-stamped visited marks and reusable
//!   queue/stack storage. After warm-up (`ensure_slots`), every traversal is
//!   allocation-free; outputs go into caller-provided buffers.
//!
//! Both backends present edges in identical order (CSR rows are filled in
//! arena-vec order), so traversal output is byte-identical regardless of
//! which backend ran — the parallel differential suite relies on this.

use crate::graph::SchemaGraph;
use crate::ids::{LinkId, TypeId};
use sws_odl::HierKind;

/// Edge iteration over a schema graph snapshot. All callbacks must present
/// edges in the graph's arena-vec order (the order mutators appended them).
pub trait Adjacency {
    /// Total type arena slots, live and tombstoned.
    fn num_type_slots(&self) -> usize;
    /// Total link arena slots, live and tombstoned.
    fn num_link_slots(&self) -> usize;
    /// True if the slot holds a live type.
    fn is_live(&self, t: TypeId) -> bool;
    /// Direct supertypes of `t`, in declaration order.
    fn for_each_supertype(&self, t: TypeId, f: &mut impl FnMut(TypeId));
    /// Direct subtypes of `t`, in insertion order.
    fn for_each_subtype(&self, t: TypeId, f: &mut impl FnMut(TypeId));
    /// Hierarchy links of `kind` in which `t` is the child, as
    /// `(link, parent)`, in insertion order.
    fn for_each_hier_parent(&self, kind: HierKind, t: TypeId, f: &mut impl FnMut(LinkId, TypeId));
    /// Hierarchy links of `kind` in which `t` is the parent, as
    /// `(link, child)`, in insertion order.
    fn for_each_hier_child(&self, kind: HierKind, t: TypeId, f: &mut impl FnMut(LinkId, TypeId));
}

impl Adjacency for SchemaGraph {
    fn num_type_slots(&self) -> usize {
        self.type_slots()
    }

    fn num_link_slots(&self) -> usize {
        self.link_slots()
    }

    fn is_live(&self, t: TypeId) -> bool {
        self.try_ty(t).is_some()
    }

    fn for_each_supertype(&self, t: TypeId, f: &mut impl FnMut(TypeId)) {
        for &s in &self.ty(t).supertypes {
            f(s);
        }
    }

    fn for_each_subtype(&self, t: TypeId, f: &mut impl FnMut(TypeId)) {
        for &s in &self.ty(t).subtypes {
            f(s);
        }
    }

    fn for_each_hier_parent(&self, kind: HierKind, t: TypeId, f: &mut impl FnMut(LinkId, TypeId)) {
        for &l in &self.ty(t).child_links {
            let link = self.link(l);
            if link.kind == kind {
                f(l, link.parent);
            }
        }
    }

    fn for_each_hier_child(&self, kind: HierKind, t: TypeId, f: &mut impl FnMut(LinkId, TypeId)) {
        for &l in &self.ty(t).parent_links {
            let link = self.link(l);
            if link.kind == kind {
                f(l, link.child);
            }
        }
    }
}

fn kind_idx(kind: HierKind) -> usize {
    match kind {
        HierKind::PartOf => 0,
        HierKind::InstanceOf => 1,
    }
}

/// One CSR table: `off[i]..off[i + 1]` indexes `edges` for slot `i`.
#[derive(Debug, Clone, Default)]
struct Csr<E> {
    off: Vec<u32>,
    edges: Vec<E>,
}

impl<E: Copy> Csr<E> {
    fn build(slots: usize, mut fill: impl FnMut(usize, &mut Vec<E>)) -> Csr<E> {
        let mut off = Vec::with_capacity(slots + 1);
        let mut edges = Vec::new();
        off.push(0);
        for i in 0..slots {
            fill(i, &mut edges);
            off.push(u32::try_from(edges.len()).expect("CSR edge overflow"));
        }
        Csr { off, edges }
    }

    fn row(&self, i: usize) -> &[E] {
        &self.edges[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// A frozen CSR snapshot of the hierarchy edges of one [`SchemaGraph`]
/// generation. See the module docs.
#[derive(Debug, Clone)]
pub struct ClosureIndex {
    generation: u64,
    live: Vec<bool>,
    num_links: usize,
    sup: Csr<TypeId>,
    sub: Csr<TypeId>,
    /// Indexed by [`kind_idx`]: links upward (child → parent).
    up: [Csr<(LinkId, TypeId)>; 2],
    /// Indexed by [`kind_idx`]: links downward (parent → child).
    down: [Csr<(LinkId, TypeId)>; 2],
}

impl ClosureIndex {
    /// Snapshot `g`'s edges. O(types + edges); emits the
    /// `model.closure_index.builds` trace counter.
    pub fn build(g: &SchemaGraph) -> ClosureIndex {
        let slots = g.type_slots();
        let live: Vec<bool> = (0..slots)
            .map(|i| g.try_ty(TypeId(i as u32)).is_some())
            .collect();
        let node = |i: usize| g.try_ty(TypeId(i as u32));
        let sup = Csr::build(slots, |i, edges| {
            if let Some(n) = node(i) {
                edges.extend_from_slice(&n.supertypes);
            }
        });
        let sub = Csr::build(slots, |i, edges| {
            if let Some(n) = node(i) {
                edges.extend_from_slice(&n.subtypes);
            }
        });
        let hier = |kind: HierKind| {
            let up = Csr::build(slots, |i, edges| {
                if let Some(n) = node(i) {
                    for &l in &n.child_links {
                        let link = g.link(l);
                        if link.kind == kind {
                            edges.push((l, link.parent));
                        }
                    }
                }
            });
            let down = Csr::build(slots, |i, edges| {
                if let Some(n) = node(i) {
                    for &l in &n.parent_links {
                        let link = g.link(l);
                        if link.kind == kind {
                            edges.push((l, link.child));
                        }
                    }
                }
            });
            (up, down)
        };
        let (up_part, down_part) = hier(HierKind::PartOf);
        let (up_inst, down_inst) = hier(HierKind::InstanceOf);
        sws_trace::counter("model.closure_index.builds", 1);
        ClosureIndex {
            generation: g.generation(),
            live,
            num_links: g.link_slots(),
            sup,
            sub,
            up: [up_part, up_inst],
            down: [down_part, down_inst],
        }
    }

    /// The graph generation this index snapshots. Callers must check it
    /// against `g.generation()` before reusing a cached index.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl Adjacency for ClosureIndex {
    fn num_type_slots(&self) -> usize {
        self.live.len()
    }

    fn num_link_slots(&self) -> usize {
        self.num_links
    }

    fn is_live(&self, t: TypeId) -> bool {
        self.live.get(t.index()).copied().unwrap_or(false)
    }

    fn for_each_supertype(&self, t: TypeId, f: &mut impl FnMut(TypeId)) {
        for &s in self.sup.row(t.index()) {
            f(s);
        }
    }

    fn for_each_subtype(&self, t: TypeId, f: &mut impl FnMut(TypeId)) {
        for &s in self.sub.row(t.index()) {
            f(s);
        }
    }

    fn for_each_hier_parent(&self, kind: HierKind, t: TypeId, f: &mut impl FnMut(LinkId, TypeId)) {
        for &(l, p) in self.up[kind_idx(kind)].row(t.index()) {
            f(l, p);
        }
    }

    fn for_each_hier_child(&self, kind: HierKind, t: TypeId, f: &mut impl FnMut(LinkId, TypeId)) {
        for &(l, c) in self.down[kind_idx(kind)].row(t.index()) {
            f(l, c);
        }
    }
}

/// Reusable traversal state: epoch-stamped visited marks (no clearing
/// between traversals — bumping the epoch invalidates all marks in O(1))
/// plus a queue that doubles as a stack. Allocation-free once
/// [`ClosureScratch::ensure_slots`] has sized it for the graph.
#[derive(Debug, Clone, Default)]
pub struct ClosureScratch {
    epoch: u64,
    type_mark: Vec<u64>,
    link_mark: Vec<u64>,
    queue: Vec<TypeId>,
    head: usize,
}

impl ClosureScratch {
    /// Grow the visited tables to cover `type_slots` / `link_slots` arena
    /// slots. Call this whenever the graph may have grown — and, on the
    /// zero-allocation hot path, call it *before* entering the measured
    /// span, so the span interior never grows a table.
    pub fn ensure_slots(&mut self, type_slots: usize, link_slots: usize) {
        if self.type_mark.len() < type_slots {
            self.type_mark.resize(type_slots, 0);
        }
        if self.link_mark.len() < link_slots {
            self.link_mark.resize(link_slots, 0);
        }
        let cap = type_slots.max(16);
        if self.queue.capacity() < cap {
            self.queue.reserve(cap - self.queue.capacity());
        }
    }

    fn begin(&mut self) {
        self.epoch += 1;
        self.queue.clear();
        self.head = 0;
    }

    fn mark_type(&mut self, t: TypeId) -> bool {
        let m = &mut self.type_mark[t.index()];
        if *m == self.epoch {
            false
        } else {
            *m = self.epoch;
            true
        }
    }

    /// Strict ancestors of `t` via supertype edges, BFS order, into `out`.
    /// Mirrors the eager query exactly, including the cycle convention that
    /// a type on a supertype cycle is its own ancestor.
    pub fn ancestors_into<A: Adjacency>(&mut self, adj: &A, t: TypeId, out: &mut Vec<TypeId>) {
        out.clear();
        self.begin();
        adj.for_each_supertype(t, &mut |s| self.queue.push(s));
        while self.head < self.queue.len() {
            let cur = self.queue[self.head];
            self.head += 1;
            if !self.mark_type(cur) {
                continue;
            }
            out.push(cur);
            adj.for_each_supertype(cur, &mut |s| self.queue.push(s));
        }
    }

    /// Strict descendants of `t` via subtype edges, BFS order, into `out`.
    pub fn descendants_into<A: Adjacency>(&mut self, adj: &A, t: TypeId, out: &mut Vec<TypeId>) {
        out.clear();
        self.begin();
        adj.for_each_subtype(t, &mut |s| self.queue.push(s));
        while self.head < self.queue.len() {
            let cur = self.queue[self.head];
            self.head += 1;
            if !self.mark_type(cur) {
                continue;
            }
            out.push(cur);
            adj.for_each_subtype(cur, &mut |s| self.queue.push(s));
        }
    }

    /// Downward closure of the `kind` hierarchy from `root` (inclusive),
    /// BFS order; traversed links (first sighting) into `out_links`.
    pub fn hier_closure_into<A: Adjacency>(
        &mut self,
        adj: &A,
        kind: HierKind,
        root: TypeId,
        out_types: &mut Vec<TypeId>,
        out_links: &mut Vec<LinkId>,
    ) {
        out_types.clear();
        out_links.clear();
        self.begin();
        self.queue.push(root);
        while self.head < self.queue.len() {
            let t = self.queue[self.head];
            self.head += 1;
            if !self.mark_type(t) {
                continue;
            }
            out_types.push(t);
            adj.for_each_hier_child(kind, t, &mut |l, child| {
                if self.link_mark[l.index()] != self.epoch {
                    self.link_mark[l.index()] = self.epoch;
                    out_links.push(l);
                }
                self.queue.push(child);
            });
        }
    }

    /// True if `start` reaches itself via supertype edges (a generalization
    /// cycle through `start`).
    pub fn has_gen_cycle<A: Adjacency>(&mut self, adj: &A, start: TypeId) -> bool {
        self.begin();
        adj.for_each_supertype(start, &mut |s| self.queue.push(s));
        while let Some(t) = self.queue.pop() {
            if t == start {
                return true;
            }
            if self.mark_type(t) {
                adj.for_each_supertype(t, &mut |s| self.queue.push(s));
            }
        }
        false
    }

    /// True if `start` reaches itself walking upward (child → parent) in
    /// the `kind` hierarchy.
    pub fn has_hier_cycle<A: Adjacency>(&mut self, adj: &A, kind: HierKind, start: TypeId) -> bool {
        self.begin();
        adj.for_each_hier_parent(kind, start, &mut |_, p| self.queue.push(p));
        while let Some(t) = self.queue.pop() {
            if t == start {
                return true;
            }
            if self.mark_type(t) {
                adj.for_each_hier_parent(kind, t, &mut |_, p| self.queue.push(p));
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use sws_odl::CollectionKind;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn closure_index_is_send_sync() {
        assert_send_sync::<ClosureIndex>();
    }

    fn diamond() -> (SchemaGraph, Vec<TypeId>) {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let c = g.add_type("C").unwrap();
        let d = g.add_type("D").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_supertype(c, a).unwrap();
        g.add_supertype(d, b).unwrap();
        g.add_supertype(d, c).unwrap();
        (g, vec![a, b, c, d])
    }

    #[test]
    fn index_traversals_match_eager_queries() {
        let (mut g, t) = diamond();
        g.add_link(
            HierKind::PartOf,
            t[0],
            "parts",
            CollectionKind::Set,
            vec![],
            t[3],
            "whole",
        )
        .unwrap();
        // Tombstone a slot so dead-slot handling is exercised.
        let dead = g.add_type("Doomed").unwrap();
        g.remove_type(dead, Default::default()).unwrap();

        let idx = ClosureIndex::build(&g);
        assert_eq!(idx.generation(), g.generation());
        let mut scratch = ClosureScratch::default();
        scratch.ensure_slots(g.type_slots(), g.link_slots());
        let mut out = Vec::new();
        for (id, _) in g.types() {
            // Index backend vs eager query.
            scratch.ancestors_into(&idx, id, &mut out);
            assert_eq!(out, query::ancestors(&g, id), "ancestors of {id}");
            // Graph backend vs eager query.
            scratch.ancestors_into(&g, id, &mut out);
            assert_eq!(out, query::ancestors(&g, id));
            scratch.descendants_into(&idx, id, &mut out);
            assert_eq!(out, query::descendants(&g, id), "descendants of {id}");
            for kind in [HierKind::PartOf, HierKind::InstanceOf] {
                let (types, links) = query::hier_closure(&g, kind, id);
                let (mut it, mut il) = (Vec::new(), Vec::new());
                scratch.hier_closure_into(&idx, kind, id, &mut it, &mut il);
                assert_eq!(it, types);
                assert_eq!(il, links);
            }
        }
    }

    #[test]
    fn cycle_probes_terminate_and_agree() {
        let mut g = SchemaGraph::new("cyclic");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(a, b).unwrap();
        g.force_supertype_edge(b, a);
        let idx = ClosureIndex::build(&g);
        let mut scratch = ClosureScratch::default();
        scratch.ensure_slots(g.type_slots(), g.link_slots());
        for t in [a, b] {
            assert!(scratch.has_gen_cycle(&idx, t));
            assert!(scratch.has_gen_cycle(&g, t));
        }
        assert!(!scratch.has_hier_cycle(&idx, HierKind::PartOf, a));
    }
}
