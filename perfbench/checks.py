"""Answer checks made apart from the program under test.

Every reference here comes from scipy (or a plain numpy iteration) run on
the same edge list the program received; nothing is compared with a stored
copy of an earlier output.  Each ``check_*`` function returns ``None`` when
the answer is right and a one-line reason when it is not, so a caller can
count the operation as failed and say why.  scipy is imported on first
use, so a fresh process pays for it after its timed set-up, not in it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Optional

import numpy as np

Node = Hashable

#: relative tolerance for SSSP distances: both sides sum the same path
#: weights, so only the order of float additions along tied paths differs
SSSP_RTOL = 1e-12
#: absolute slack for PageRank comparisons (float summation noise on
#: ranks of order 1)
PAGERANK_ATOL = 1e-9


class EdgeIndex:
    """A graph's edge list as a scipy CSR matrix over dense node indices.

    Built once per graph state.  Undirected graphs are stored symmetric;
    the graph already collapses parallel edges, so no duplicate can be
    summed by the sparse constructor.
    """

    def __init__(self, graph: Any):
        from scipy.sparse import csr_matrix
        self.nodes: List[Node] = list(graph.nodes)
        self.index: Dict[Node, int] = {v: i for i, v in
                                       enumerate(self.nodes)}
        n = len(self.nodes)
        src, dst, wts = [], [], []
        for u, v, w in graph.edges():
            src.append(self.index[u])
            dst.append(self.index[v])
            wts.append(float(w))
        rows = np.asarray(src, dtype=np.int64)
        cols = np.asarray(dst, dtype=np.int64)
        vals = np.asarray(wts, dtype=np.float64)
        self.directed = bool(graph.directed)
        if not self.directed:
            rows, cols = (np.concatenate([rows, cols]),
                          np.concatenate([cols, rows]))
            vals = np.concatenate([vals, vals])
        self.matrix = csr_matrix((vals, (rows, cols)), shape=(n, n))

    def __len__(self) -> int:
        return len(self.nodes)

    def as_array(self, answer: Dict[Node, Any]) -> Optional[np.ndarray]:
        """The answer's values in node-index order (None if keys differ)."""
        if len(answer) != len(self.nodes):
            return None
        try:
            return np.asarray([answer[v] for v in self.nodes],
                              dtype=np.float64)
        except KeyError:
            return None


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def sssp_reference(edges: EdgeIndex, source: Node) -> np.ndarray:
    """Distances from ``source`` by scipy's Dijkstra (inf = unreachable)."""
    from scipy.sparse import csgraph
    return csgraph.dijkstra(edges.matrix, directed=edges.directed,
                            indices=edges.index[source])


def cc_reference(edges: EdgeIndex) -> np.ndarray:
    """Component label of every node by scipy (weak connectivity)."""
    from scipy.sparse import csgraph
    _, labels = csgraph.connected_components(edges.matrix, directed=False)
    return labels


def pagerank_reference(edges: EdgeIndex, damping: float,
                       tol: float = 1e-12, max_iter: int = 10_000
                       ) -> np.ndarray:
    """Jacobi iteration of ``P_v = d * sum(P_u / N_u) + (1 - d)``.

    The formulation of ``repro.graph.analysis.pagerank`` (every node gets a
    ``1 - d`` teleport share, dangling nodes leak).  Started from ``1 - d``
    the iterates grow monotonically to the fixpoint, and the iteration
    runs until the L1 change is ``tol``, so the result is within about
    ``tol * d / (1 - d)`` of the exact ranks.
    """
    from scipy.sparse import csr_matrix
    a = edges.matrix
    out_deg = np.diff(a.indptr).astype(np.float64)
    pattern = csr_matrix((np.ones_like(a.data), a.indices, a.indptr),
                         shape=a.shape)
    transposed = pattern.T.tocsr()
    safe = np.where(out_deg > 0, out_deg, 1.0)
    base = 1.0 - damping
    rank = np.full(len(edges), base)
    for _ in range(max_iter):
        share = np.where(out_deg > 0, damping * rank / safe, 0.0)
        nxt = transposed @ share + base
        delta = float(np.abs(nxt - rank).sum())
        rank = nxt
        if delta < tol:
            break
    return rank


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_sssp(answer: Dict[Node, float], edges: EdgeIndex,
               reference: np.ndarray) -> Optional[str]:
    """Every distance equals the reference (inf exactly, finite to
    :data:`SSSP_RTOL`)."""
    got = edges.as_array(answer)
    if got is None:
        return "SSSP answer does not cover exactly the graph's nodes"
    inf_got = np.isinf(got)
    inf_ref = np.isinf(reference)
    if not np.array_equal(inf_got, inf_ref):
        bad = int(np.nonzero(inf_got != inf_ref)[0][0])
        return (f"SSSP reachability differs at node {edges.nodes[bad]!r}: "
                f"{got[bad]} vs reference {reference[bad]}")
    fin = ~inf_ref
    close = np.isclose(got[fin], reference[fin], rtol=SSSP_RTOL, atol=0.0)
    if not close.all():
        where = np.nonzero(fin)[0][np.nonzero(~close)[0][0]]
        return (f"SSSP distance differs at node {edges.nodes[where]!r}: "
                f"{got[where]} vs reference {reference[where]}")
    return None


def check_cc(answer: Dict[Node, Node], edges: EdgeIndex,
             reference: np.ndarray) -> Optional[str]:
    """The answer's labels induce the same node partition as the
    reference: the label pairs form a bijection."""
    if len(answer) != len(edges):
        return "CC answer does not cover exactly the graph's nodes"
    try:
        labels = [answer[v] for v in edges.nodes]
    except KeyError:
        return "CC answer does not cover exactly the graph's nodes"
    pairs = set(zip(labels, reference.tolist()))
    ours = len(set(labels))
    theirs = int(reference.max()) + 1 if len(reference) else 0
    if len(pairs) != ours or ours != theirs:
        return (f"CC partition differs: {ours} components vs reference "
                f"{theirs}, {len(pairs)} distinct label pairs")
    return None


def check_pagerank(answer: Dict[Node, float], edges: EdgeIndex,
                   reference: np.ndarray, epsilon: float, damping: float,
                   mirror_copies: int) -> Optional[str]:
    """No rank is above the converged reference, and the L1 gap is what
    the query's ``epsilon`` may leave unpropagated.

    The delta-accumulative program stops a node once its pending update
    is at most ``epsilon / |V|``: an owner folds its pending update into
    the rank, which would still pass on a ``d`` share of it, and a mirror
    copy keeps its pending update unshipped, all of which is missing.
    Propagated, the missing mass adds at most ``epsilon / |V| * (|V| * d
    + mirror_copies) / (1 - d)`` to the ranks.
    """
    got = edges.as_array(answer)
    if got is None:
        return "PageRank answer does not cover exactly the graph's nodes"
    excess = got - reference
    worst = int(np.argmax(excess))
    if excess[worst] > PAGERANK_ATOL:
        return (f"PageRank of node {edges.nodes[worst]!r} is {got[worst]}, "
                f"above the reference {reference[worst]}")
    n = len(edges)
    gap = float(np.abs(reference - got).sum())
    allowed = (epsilon / n * (n * damping + mirror_copies)
               / (1.0 - damping) + PAGERANK_ATOL * n)
    if gap > allowed:
        return (f"PageRank L1 gap {gap:.6g} exceeds the {allowed:.6g} "
                f"that epsilon={epsilon} leaves unpropagated")
    return None


def check_value(key: Node, got: Any, expected: Any) -> Optional[str]:
    """A point read of an SSSP distance returned the expected value (inf
    exactly, finite to :data:`SSSP_RTOL`)."""
    if got is None or expected is None:
        return f"read of {key!r} returned {got!r}, expected {expected!r}"
    got, expected = float(got), float(expected)
    if math.isinf(got) or math.isinf(expected):
        same = got == expected
    else:
        same = math.isclose(got, expected, rel_tol=SSSP_RTOL, abs_tol=0.0)
    if not same:
        return f"read of {key!r} returned {got}, expected {expected}"
    return None


def check_staleness(served_staleness: int, bound: int,
                    served: bool = True) -> Optional[str]:
    """A served read is no staler than the bound it declared."""
    if not served:
        return "read was shed"
    if served_staleness > bound:
        return (f"read served {served_staleness} epochs stale against a "
                f"bound of {bound}")
    return None

