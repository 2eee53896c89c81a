"""Left-right planarity test: a rotation system, or a Kuratowski subgraph.

Ported from NetworkX 3.6.1 (its planarity module: the non-recursive
``LRPlanarity``, the half-edge methods of ``PlanarEmbedding`` and
``get_counterexample``), BSD-3-Clause, whose notice follows.  NetworkX
implements U. Brandes, *The Left-Right Planarity Test* (2009).  The port works
on integer vertex ids and neighbour lists, and it gives NetworkX's output for
the same neighbour order: the same clockwise lists, each starting at the same
neighbour, and the same Kuratowski edge set.  An oriented edge is the tuple
(tail, head), and None stands for no edge, as in NetworkX.

    Copyright (c) 2004-2025, NetworkX Developers
    Aric Hagberg <hagberg@lanl.gov>
    Dan Schult <dschult@colgate.edu>
    Pieter Swart <swart@lanl.gov>
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

      * Redistributions of source code must retain the above copyright
        notice, this list of conditions and the following disclaimer.

      * Redistributions in binary form must reproduce the above
        copyright notice, this list of conditions and the following
        disclaimer in the documentation and/or other materials provided
        with the distribution.

      * Neither the name of the NetworkX Developers nor the names of its
        contributors may be used to endorse or promote products derived
        from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from collections.abc import Sequence

# A conflict pair is the list [left.low, left.high, right.low, right.high] of
# its two intervals of return edges; an interval is empty when both ends are None.
LL, LH, RL, RH = range(4)


class _LR:
    """The state of one left-right test, as NetworkX's ``LRPlanarity``.

    ``adjs[v]`` lists v's neighbours in the order the DFS tries them.
    """

    def __init__(self, adjs: Sequence[Sequence[int]]):
        n = len(adjs)
        self.adjs = adjs
        self.roots: list[int] = []
        self.height: list[int | None] = [None] * n  # distance from the DFS root
        self.parent_edge: list[tuple[int, int] | None] = [None] * n
        self.lowpt: dict = {}  # height of an edge's lowest return point
        self.lowpt2: dict = {}  # height of its second lowest
        self.nesting_depth: dict = {}
        self.out: list[list[int]] = [[] for _ in range(n)]  # the DFS orientation
        self.oriented: set[tuple[int, int]] = set()
        self.ordered_adjs: list[list[int]] = []
        self.ref: dict = {}  # absent reads None
        self.side: dict = {}  # absent reads 1
        self.S: list[list] = []  # stack of conflict pairs
        self.stack_bottom: dict = {}
        self.lowpt_edge: dict = {}

    def planar(self) -> bool:
        """Orientation and testing: the verdict alone."""
        n = len(self.adjs)
        if n > 2 and sum(map(len, self.adjs)) // 2 > 3 * n - 6:
            return False
        for v in range(n):
            if self.height[v] is None:
                self.height[v] = 0
                self.roots.append(v)
                self.dfs_orientation(v)
        depth = self.nesting_depth
        self.ordered_adjs = [
            sorted(out, key=lambda w, v=v: depth[v, w]) for v, out in enumerate(self.out)
        ]
        return all(self.dfs_testing(v) for v in self.roots)

    def embedding(self) -> list[list[int]]:
        """After a planar verdict, each vertex's neighbours in clockwise order."""
        depth = self.nesting_depth
        for v, out in enumerate(self.out):
            for w in out:
                depth[v, w] *= self.sign((v, w))
        emb = _Embedding(len(self.adjs))
        for v, out in enumerate(self.out):
            self.ordered_adjs[v] = sorted(out, key=lambda w, v=v: depth[v, w])
            previous = None
            for w in self.ordered_adjs[v]:
                emb.add_half_edge(v, w, ccw=previous)
                previous = w
        left_ref: dict[int, int] = {}
        right_ref: dict[int, int] = {}
        for root in self.roots:
            self.dfs_embedding(root, emb, left_ref, right_ref)
        return [emb.neighbors_cw_order(v) for v in range(len(self.adjs))]

    def dfs_orientation(self, v: int) -> None:
        """Orient the graph by DFS, compute lowpoints and nesting order."""
        height, lowpt, lowpt2 = self.height, self.lowpt, self.lowpt2
        dfs_stack = [v]
        ind = {}  # next neighbour to handle, per vertex
        skip_init = set()  # tree edges whose initial work is done
        while dfs_stack:
            v = dfs_stack.pop()
            e = self.parent_edge[v]
            start = ind.setdefault(v, 0)
            for w in self.adjs[v][start:]:
                vw = (v, w)
                if vw not in skip_init:
                    if vw in self.oriented or (w, v) in self.oriented:
                        ind[v] += 1
                        continue  # the edge was already oriented
                    self.oriented.add(vw)
                    self.out[v].append(w)
                    lowpt[vw] = height[v]
                    lowpt2[vw] = height[v]
                    if height[w] is None:  # tree edge
                        self.parent_edge[w] = vw
                        height[w] = height[v] + 1
                        dfs_stack.append(v)  # revisit v after finishing w
                        dfs_stack.append(w)
                        skip_init.add(vw)
                        break
                    lowpt[vw] = height[w]  # back edge
                # the nesting order: chordal edges after the others of one lowpoint
                self.nesting_depth[vw] = 2 * lowpt[vw] + (lowpt2[vw] < height[v])
                if e is not None:  # update the lowpoints of the parent edge
                    if lowpt[vw] < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = lowpt[vw]
                    elif lowpt[vw] > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lowpt[vw])
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                ind[v] += 1

    def dfs_testing(self, v: int) -> bool:
        """Test for a left-right partition."""
        S, lowpt, height = self.S, self.lowpt, self.height
        dfs_stack = [v]
        ind = {}
        skip_init = set()
        while dfs_stack:
            v = dfs_stack.pop()
            e = self.parent_edge[v]
            skip_final = False
            start = ind.setdefault(v, 0)
            for w in self.ordered_adjs[v][start:]:
                ei = (v, w)
                if ei not in skip_init:
                    self.stack_bottom[ei] = S[-1] if S else None
                    if ei == self.parent_edge[w]:  # tree edge
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        skip_init.add(ei)
                        skip_final = True
                        break
                    self.lowpt_edge[ei] = ei  # back edge
                    S.append([None, None, ei, ei])
                if lowpt[ei] < height[v]:  # ei has a return edge
                    if w == self.ordered_adjs[v][0]:
                        self.lowpt_edge[e] = self.lowpt_edge[ei]
                    elif not self.add_constraints(ei, e):
                        return False
                ind[v] += 1
            if not skip_final and e is not None:
                self.remove_back_edges(e)
        return True

    def conflicting(self, low, high, b) -> bool:
        """Whether the interval (low, high) conflicts with edge b."""
        return not (low is None and high is None) and self.lowpt[high] > self.lowpt[b]

    def add_constraints(self, ei, e) -> bool:
        S, lowpt, ref = self.S, self.lowpt, self.ref
        P = [None, None, None, None]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if not (Q[LL] is None and Q[LH] is None):
                Q[:] = Q[RL], Q[RH], Q[LL], Q[LH]
            if not (Q[LL] is None and Q[LH] is None):
                return False
            if lowpt[Q[RL]] > lowpt[e]:  # merge intervals
                if P[RL] is None and P[RH] is None:
                    P[RH] = Q[RH]
                else:
                    ref[P[RL]] = Q[RH]
                P[RL] = Q[RL]
            else:  # align
                ref[Q[RL]] = self.lowpt_edge[e]
            if (S[-1] if S else None) is self.stack_bottom[ei]:
                break
        # merge the conflicting return edges of the earlier siblings into P's left
        while self.conflicting(S[-1][LL], S[-1][LH], ei) or self.conflicting(
            S[-1][RL], S[-1][RH], ei
        ):
            Q = S.pop()
            if self.conflicting(Q[RL], Q[RH], ei):
                Q[:] = Q[RL], Q[RH], Q[LL], Q[LH]
            if self.conflicting(Q[RL], Q[RH], ei):
                return False
            # merge the interval below lowpt(ei) into P's right
            ref[P[RL]] = Q[RH]
            if Q[RL] is not None:
                P[RL] = Q[RL]
            if P[LL] is None and P[LH] is None:
                P[LH] = Q[LH]
            else:
                ref[P[LL]] = Q[LH]
            P[LL] = Q[LL]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def lowest(self, P) -> int:
        """The lowest lowpoint of a conflict pair."""
        lowpt = self.lowpt
        if P[LL] is None and P[LH] is None:
            return lowpt[P[RL]]
        if P[RL] is None and P[RH] is None:
            return lowpt[P[LL]]
        return min(lowpt[P[LL]], lowpt[P[RL]])

    def remove_back_edges(self, e) -> None:
        S, ref, side = self.S, self.ref, self.side
        u = e[0]
        # drop the conflict pairs whose return edges all end at the parent u
        while S and self.lowest(S[-1]) == self.height[u]:
            P = S.pop()
            if P[LL] is not None:
                side[P[LL]] = -1
        if S:  # trim the back edges ending at u from one more pair
            P = S.pop()
            while P[LH] is not None and P[LH][1] == u:
                P[LH] = ref.get(P[LH])
            if P[LH] is None and P[LL] is not None:  # just emptied
                ref[P[LL]] = P[RL]
                side[P[LL]] = -1
                P[LL] = None
            while P[RH] is not None and P[RH][1] == u:
                P[RH] = ref.get(P[RH])
            if P[RH] is None and P[RL] is not None:
                ref[P[RL]] = P[LL]
                side[P[RL]] = -1
                P[RL] = None
            S.append(P)
        # the side of e is the side of a highest return edge
        if self.lowpt[e] < self.height[u]:
            hl, hr = S[-1][LH], S[-1][RH]
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    def sign(self, e) -> int:
        """Resolve the side of e relative to its reference to an absolute one."""
        ref, side = self.ref, self.side
        dfs_stack = [e]
        old_ref = {}
        while dfs_stack:
            e = dfs_stack.pop()
            if ref.get(e) is not None:
                dfs_stack.append(e)  # revisit e after its reference
                dfs_stack.append(ref[e])
                old_ref[e] = ref[e]
                ref[e] = None
            else:
                side[e] = side.get(e, 1) * side.get(old_ref.get(e), 1)
        return side[e]

    def dfs_embedding(self, v: int, emb: _Embedding, left_ref, right_ref) -> None:
        """Add the half-edges back along the DFS, completing the embedding."""
        dfs_stack = [v]
        ind = {}
        while dfs_stack:
            v = dfs_stack.pop()
            start = ind.setdefault(v, 0)
            for w in self.ordered_adjs[v][start:]:
                ind[v] += 1
                if (v, w) == self.parent_edge[w]:  # tree edge
                    emb.add_half_edge_first(w, v)
                    left_ref[v] = w
                    right_ref[v] = w
                    dfs_stack.append(v)
                    dfs_stack.append(w)
                    break
                if self.side.get((v, w), 1) == 1:  # back edge
                    emb.add_half_edge(w, v, ccw=right_ref[w])
                else:
                    emb.add_half_edge(w, v, cw=left_ref[w])
                    left_ref[w] = v


class _Embedding:
    """Each vertex's half-edges as neighbour -> [cw, ccw], as NetworkX's
    ``PlanarEmbedding``: the last key of a vertex is its leftmost neighbour."""

    def __init__(self, n: int):
        self.succ: list[dict[int, list[int]]] = [{} for _ in range(n)]

    def add_half_edge(self, start: int, end: int, *, cw=None, ccw=None) -> None:
        """Add the half-edge start -> end just counterclockwise of ``cw`` or
        just clockwise of ``ccw``; the first half-edge of a vertex needs neither."""
        succs = self.succ[start]
        if not succs:
            succs[end] = [end, end]
            return
        leftmost = next(reversed(succs))
        if cw is not None:
            ref_ccw = succs[cw][1]
            succs[end] = [cw, ref_ccw]
            succs[ref_ccw][0] = end
            succs[cw][1] = end
            # inserted before the leftmost neighbour, the new one takes its place
            move_leftmost_to_end = cw != leftmost
        else:
            ref_cw = succs[ccw][0]
            succs[end] = [ref_cw, ccw]
            succs[ref_cw][1] = end
            succs[ccw][0] = end
            move_leftmost_to_end = True
        if move_leftmost_to_end:
            succs[leftmost] = succs.pop(leftmost)

    def add_half_edge_first(self, start: int, end: int) -> None:
        """Add start -> end as start's new leftmost neighbour."""
        succs = self.succ[start]
        self.add_half_edge(start, end, cw=next(reversed(succs)) if succs else None)

    def neighbors_cw_order(self, v: int) -> list[int]:
        succs = self.succ[v]
        if not succs:
            return []
        first = next(reversed(succs))
        out = [first]
        cur = succs[first][0]
        while cur != first:
            out.append(cur)
            cur = succs[cur][0]
        return out


def rotation_system(adjs: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Each vertex's neighbours in clockwise order if the graph is planar,
    else None.  ``adjs[v]`` lists v's neighbours in the order the test sees
    them, which fixes the rotation; NetworkX sees them in insertion order."""
    test = _LR(adjs)
    return test.embedding() if test.planar() else None


def kuratowski_edges(adjs: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """A Kuratowski subgraph of a nonplanar graph, as its sorted edges (u < v).

    Each edge is deleted in turn, and put back if the graph became planar; what
    is put back is the subgraph.  The order is NetworkX's: u ascending, and u's
    neighbours as they stand in an insertion-ordered adjacency, where an edge
    put back moves to the end of both its ends' lists, and is deleted and
    re-tested again from its other end.  Only the verdict of each re-test is
    read, so the re-tests build no embedding.
    """
    graph = [dict.fromkeys(nbrs) for nbrs in adjs]
    kept = set()
    for u in range(len(graph)):
        for v in list(graph[u]):
            del graph[u][v], graph[v][u]
            if _LR([list(nbrs) for nbrs in graph]).planar():
                graph[u][v] = graph[v][u] = None
                kept.add((min(u, v), max(u, v)))
    return sorted(kept)
