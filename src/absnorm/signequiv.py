"""Deciding sign (phase) equivalence of a matrix to its absolute value.

A matrix is sign equivalent to ``|A|`` when ``A = D1 |A| D2`` for
unimodular diagonals D1, D2, i.e. when the entry phases factor as
``phase(a_ij) = d_i * e_j`` on the support.  The factorization exists iff
the phase product around every cycle of the bipartite support graph
(rows vs columns) is 1.  A level-synchronous breadth-first search decides
it in one pass, a whole level of edges per numpy step, with the same tree
and the same first cycle as an edge-at-a-time queue; it returns either the
witness diagonals or the first bad cycle.
"""

from dataclasses import dataclass

import numpy as np

from .diagonals import UnimodularDiagonal
from .matrices import REAL, as_matrix

__all__ = [
    "EquivalenceWitness",
    "InconsistencyCertificate",
    "sign_equivalent_to_abs",
    "is_nonnegative",
]


@dataclass(frozen=True)
class EquivalenceWitness:
    """Diagonals with ``A = left * |A| * right`` (rows scaled by ``left``)."""

    left: UnimodularDiagonal
    right: UnimodularDiagonal


@dataclass(frozen=True)
class InconsistencyCertificate:
    """A support cycle whose phase product is not 1.

    ``cycle`` alternates ("r", i) and ("c", j) vertices; consecutive pairs
    are nonzero entries of the matrix.  ``phase_product`` is the alternating
    product of entry phases around the cycle (forward edges contribute the
    phase, backward edges its conjugate).
    """

    cycle: tuple
    phase_product: complex


def is_nonnegative(a) -> bool:
    """True iff the matrix is real with all entries >= 0.

    Complex storage qualifies when every imaginary part is exactly zero.
    """
    m = as_matrix(a)
    arr = m.arr
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            return False
        arr = arr.real
    return bool(np.all(arr >= 0))


def _cycle_phase(cycle, phases):
    prod = 1.0 + 0j
    t = len(cycle) // 2
    for s in range(t):
        _, r = cycle[2 * s]
        _, c = cycle[2 * s + 1]
        _, r_next = cycle[(2 * s + 2) % len(cycle)]
        prod *= phases[r, c] * np.conj(phases[r_next, c])
    return prod


def _times_conj(p, s):
    """``p * conj(s)`` elementwise, rounded as numpy's complex scalar product.

    numpy's array product may differ from the scalar one in the last bit;
    this real formula does not, so the witness phases are those of a walk
    that multiplies one edge at a time.
    """
    out = np.empty_like(p)
    out.real = p.real * s.real + p.imag * s.imag
    out.imag = p.imag * s.real - p.real * s.imag
    return out


def sign_equivalent_to_abs(a, tol: float = 1e-9):
    """Decide whether ``A = D1 |A| D2`` for unimodular diagonals.

    Runs a level-synchronous breadth-first search over the connected
    components of the bipartite support graph, starting each component
    from its lowest-index row with scalar 1; support-free rows and columns
    also get scalar 1.  Each new vertex takes its first adjacent frontier
    vertex as parent, in the order of a one-edge-at-a-time queue, so the
    tree, the scalars and the first inconsistent edge are that queue's.
    Real sign patterns are compared exactly; complex phases within ``tol``.

    Returns
    -------
    EquivalenceWitness or InconsistencyCertificate
        The witness pair ``(D1, D2)``, or the first inconsistent cycle
        encountered.
    """
    if not 0 < tol <= 1e-6:
        raise ValueError(f"tol must be in (0, 1e-6], got {tol}")
    m = as_matrix(a)
    n = m.n
    arr = m.arr
    support = arr != 0
    real_case = m.field == REAL
    with np.errstate(invalid="ignore", divide="ignore"):
        phases = np.where(support, arr / np.abs(arr), 1).astype(np.complex128)

    # Vertices 0..n-1 are rows, n..2n-1 are columns; support-free ones keep scalar 1.
    scalar = np.ones(2 * n, dtype=np.complex128)
    visited = ~np.concatenate((support.any(axis=1), support.any(axis=0)))
    parent = np.full(2 * n, -1, dtype=np.int64)
    first_edge = np.empty(2 * n, dtype=np.int64)

    def tree_path(v):
        path = [v]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        return path

    def conflict_cycle(u, v):
        # Splice the BFS tree paths of u and v at their lowest common
        # ancestor, then close with the conflicting edge (u, v).
        pu, pv = tree_path(u), tree_path(v)
        in_pu = {x: i for i, x in enumerate(pu)}
        join = next(i for i, x in enumerate(pv) if x in in_pu)
        cycle_vertices = pu[: in_pu[pv[join]]] + list(reversed(pv[: join + 1]))
        # Rotate so the cycle starts at its smallest row vertex.
        rows = [i for i, x in enumerate(cycle_vertices) if x < n]
        start = min(rows, key=lambda i: cycle_vertices[i])
        cycle_vertices = cycle_vertices[start:] + cycle_vertices[:start]
        tagged = tuple(
            ("r", int(x)) if x < n else ("c", int(x - n)) for x in cycle_vertices
        )
        return InconsistencyCertificate(tagged, complex(_cycle_phase(tagged, phases)))

    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        frontier = np.array([root])
        while frontier.size:
            # The level's edges (u, v), u on the frontier, in the order a
            # queue meets them: by u's frontier position, then v's index.
            if frontier[0] < n:
                k, j = support[frontier].nonzero()
                u = frontier[k]
                v, phi = j + n, phases[u, j]
            else:
                k, i = support[:, frontier - n].T.nonzero()
                u = frontier[k]
                v, phi = i, phases[i, u - n]
            # d_i * e_j = phi: knowing one endpoint fixes the other.
            required = _times_conj(phi, scalar[u])
            # The first edge into each unvisited vertex is its tree edge; the
            # new level keeps the order of those edges.
            fresh = (~visited[v]).nonzero()[0]
            first_edge[v] = len(v)
            np.minimum.at(first_edge, v[fresh], fresh)
            tree = (first_edge[v] == np.arange(len(v))).nonzero()[0]
            frontier = v[tree]
            scalar[frontier] = required[tree]
            visited[frontier] = True
            parent[frontier] = u[tree]
            # Every edge is checked (a tree edge agrees by construction).  A
            # vertex's neighbours lie in the levels next to its own, so this
            # level's checks need no later level.
            if real_case:
                bad = scalar[v].real != required.real
            else:
                diff = scalar[v] - required
                bad = ~(np.hypot(diff.real, diff.imag) <= tol)
            if bad.any():
                at = int(bad.argmax())
                return conflict_cycle(int(u[at]), int(v[at]))

    if real_case:
        scalar = scalar.real
    return EquivalenceWitness(UnimodularDiagonal(scalar[:n]), UnimodularDiagonal(scalar[n:]))
