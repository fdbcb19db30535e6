"""Deciding sign (phase) equivalence of a matrix to its absolute value.

A matrix is sign equivalent to ``|A|`` when ``A = D1 |A| D2`` for
unimodular diagonals D1, D2, i.e. when the entry phases factor as
``phase(a_ij) = d_i * e_j`` on the support.  The factorization exists iff
the phase product around every cycle of the bipartite support graph
(rows vs columns) is 1, which a breadth-first propagation decides in one
pass, returning either the witness diagonals or the first bad cycle.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .diagonals import UnimodularDiagonal, _sign_letter
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


def sign_equivalent_to_abs(a, tol: float = 1e-9):
    """Decide whether ``A = D1 |A| D2`` for unimodular diagonals.

    Runs breadth-first propagation over the connected components of the
    bipartite support graph, starting each component from its
    lowest-index vertex (rows before columns) with scalar 1; vertices in
    support-free components also get scalar 1.  Real sign patterns are
    compared exactly; complex phases within ``tol``.

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

    # Vertices 0..n-1 are rows, n..2n-1 are columns.
    scalar = np.zeros(2 * n, dtype=np.complex128)
    visited = np.zeros(2 * n, dtype=bool)
    parent = np.full(2 * n, -1, dtype=np.int64)
    row_support = [np.nonzero(support[i])[0] for i in range(n)]
    col_support = [np.nonzero(support[:, j])[0] for j in range(n)]

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

    for root in range(2 * n):
        if visited[root]:
            continue
        scalar[root] = 1.0
        visited[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if u < n:
                i = u
                neighbors = [(n + j, phases[i, j]) for j in row_support[i]]
            else:
                j = u - n
                neighbors = [(i, phases[i, j]) for i in col_support[j]]
            for v, phi in neighbors:
                # d_i * e_j = phi: knowing one endpoint fixes the other.
                required = phi * np.conj(scalar[u])
                if not visited[v]:
                    visited[v] = True
                    scalar[v] = required
                    parent[v] = u
                    queue.append(v)
                else:
                    if real_case:
                        ok = scalar[v].real == required.real
                    else:
                        ok = abs(scalar[v] - required) <= tol
                    if not ok:
                        return conflict_cycle(u, v)

    d = scalar[:n]
    e = scalar[n:]
    if real_case:
        return EquivalenceWitness(_sign_letter(d.real), _sign_letter(e.real))
    return EquivalenceWitness(UnimodularDiagonal(d), UnimodularDiagonal(e))
