"""The group of unimodular diagonal matrices and diagonal-word algebra.

Over the reals the group is finite (sign diagonals) and enumerated
exactly; over the complexes it is continuous and replaced by the finite
grid of q-th roots of unity.  Scaling a whole diagonal by a unit scalar
changes neither the 2-norm nor the spectral radius of any product it
participates in, so enumerations offer a quotient mode that fixes the
first diagonal entry to +1 and shrinks the count by a factor of 2
(respectively q).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError
from .matrices import COMPLEX, REAL, Matrix, as_matrix

__all__ = [
    "UnimodularDiagonal",
    "DiagonalWord",
    "identity_diagonal",
    "enumerate_sign_diagonals",
    "enumerate_phase_diagonals",
    "word_product",
    "word_to_json",
    "word_from_json",
]

_SIGN_ENUMERATION_MAX_N = 20
_PHASE_ENUMERATION_MAX = 10**6


def _root_of_unity(k: int, q: int) -> complex:
    # Quarter-turn angles are returned exactly so that q=2 recovers the
    # sign case and q=4 the Gaussian units without rounding residue.
    quarter, rem = divmod(4 * (k % q), q)
    if rem == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[quarter % 4]
    angle = 2.0 * math.pi * k / q
    return complex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class UnimodularDiagonal:
    """Diagonal matrix whose entries all have modulus one.

    ``phases`` is a float vector of +-1 entries for sign diagonals and a
    complex vector of unit entries otherwise.  Grid members additionally
    carry their grid order ``q`` and integer phase ``indices`` (used for
    serialization); free-phase diagonals have ``q is None``.
    """

    phases: np.ndarray
    q: int | None = None
    indices: tuple | None = None

    def __post_init__(self):
        phases = np.asarray(self.phases)
        if phases.ndim != 1 or phases.size < 1:
            raise DimensionError("phases must be a nonempty vector")
        if not np.allclose(np.abs(phases), 1.0, rtol=0, atol=1e-12):
            raise ValueError("diagonal entries must have modulus 1")
        if not np.iscomplexobj(phases):
            if not np.all(np.abs(phases) == 1.0):
                raise ValueError("real diagonal entries must be exactly +-1")
            phases = phases.astype(np.float64, copy=True)
        else:
            phases = phases.astype(np.complex128, copy=True)
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        if self.indices is not None:
            object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    @property
    def n(self) -> int:
        return self.phases.size

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.phases)

    def matrix(self) -> Matrix:
        field = REAL if self.is_real else COMPLEX
        return Matrix(field, np.diag(self.phases))

    def conj(self) -> "UnimodularDiagonal":
        if self.is_real:
            return self
        q = self.q
        idx = None if self.indices is None else tuple((-i) % q for i in self.indices)
        return UnimodularDiagonal(np.conj(self.phases), q=q, indices=idx)

    def negate(self) -> "UnimodularDiagonal":
        idx = None
        if self.indices is not None and self.q is not None and self.q % 2 == 0:
            idx = tuple((i + self.q // 2) % self.q for i in self.indices)
        return UnimodularDiagonal(-self.phases, q=self.q, indices=idx)

    def __eq__(self, other):
        if not isinstance(other, UnimodularDiagonal):
            return NotImplemented
        return np.array_equal(self.phases, other.phases)

    def __hash__(self):
        return hash(np.asarray(self.phases, dtype=np.complex128).tobytes())


def _sign_letter(signs) -> UnimodularDiagonal:
    """The sign diagonal of a +-1 vector, with its q=2 grid indices."""
    return UnimodularDiagonal(signs, q=2, indices=tuple(0 if v == 1 else 1 for v in signs))


def identity_diagonal(n: int) -> UnimodularDiagonal:
    return _sign_letter(np.ones(n))


def _alphabet(n: int, q: int | None, quotient: bool):
    """Integer-coded letters, lexicographic: ``(exponents, phases)`` of shape (L, n).

    ``q=None`` gives sign diagonals (float +-1 phases), an even q >= 2 the
    q-th-root grid (exact ``_root_of_unity`` phases); quotient fixes entry 0."""
    if n < 1:
        raise DimensionError("dimension must be at least 1")
    if q is None:
        if n > _SIGN_ENUMERATION_MAX_N:
            raise CapacityError(f"sign enumeration capped at n <= {_SIGN_ENUMERATION_MAX_N}")
        base, roots = 2, np.array([1.0, -1.0])
    else:
        if q < 2 or q % 2 != 0:
            raise ValueError(f"grid order must be even and >= 2, got {q}")
        if q ** max(n - 1, 1) > _PHASE_ENUMERATION_MAX:
            raise CapacityError(
                f"phase enumeration q^(n-1) = {q}^{n - 1} exceeds {_PHASE_ENUMERATION_MAX}"
            )
        base, roots = q, np.array([_root_of_unity(k, q) for k in range(q)])
    free = n - 1 if quotient else n
    size = base**free
    exponents = np.zeros((size, n), dtype=int)
    exponents[:, n - free :] = np.indices((base,) * free).reshape(free, size).T
    return exponents, roots[exponents]


def enumerate_sign_diagonals(n: int, quotient: bool = False) -> list[UnimodularDiagonal]:
    """All sign diagonals of dimension n in lexicographic order (+1 first).

    With ``quotient=True`` only the 2**(n-1) representatives with first
    entry +1 are produced; the dropped half are the negations, which act
    identically inside norm and spectral-radius computations.
    """
    exponents, phases = _alphabet(n, None, quotient)
    return [UnimodularDiagonal(p, q=2, indices=e) for e, p in zip(exponents, phases)]


def enumerate_phase_diagonals(n: int, q: int, quotient: bool = False) -> list[UnimodularDiagonal]:
    """All diagonals with entries in the q-th roots of unity, lexicographic.

    ``q`` must be even and at least 2 so the grid contains +-1.  The
    quotient mode fixes the first entry to 1, giving q**(n-1) members.
    """
    exponents, phases = _alphabet(n, q, quotient)
    return [UnimodularDiagonal(p, q=q, indices=e) for e, p in zip(exponents, phases)]


@dataclass(frozen=True)
class DiagonalWord:
    """An ordered finite sequence of unimodular diagonals of one dimension."""

    letters: tuple

    def __post_init__(self):
        letters = tuple(self.letters)
        if letters:
            n = letters[0].n
            if any(d.n != n for d in letters):
                raise DimensionError("all letters of a word must share one dimension")
        object.__setattr__(self, "letters", letters)

    @property
    def k(self) -> int:
        return len(self.letters)

    @property
    def n(self) -> int | None:
        return self.letters[0].n if self.letters else None

    def canonical(self) -> "DiagonalWord":
        """Scale each letter so its first diagonal entry is exactly +1."""
        scaled = []
        for d in self.letters:
            lead = d.phases[0]
            if lead == 1:
                scaled.append(d)
            elif d.is_real:
                scaled.append(d.negate())
            elif d.indices is not None and d.q is not None:
                i0 = d.indices[0]
                idx = tuple((i - i0) % d.q for i in d.indices)
                roots = np.array([_root_of_unity(k, d.q) for k in idx])
                scaled.append(UnimodularDiagonal(roots, q=d.q, indices=idx))
            else:
                phases = d.phases * np.conj(lead)
                phases[0] = 1.0  # exact: lead / lead
                scaled.append(UnimodularDiagonal(phases))
        return DiagonalWord(tuple(scaled))


def word_product(a, word: DiagonalWord, terminal: bool = False) -> Matrix:
    """Left-to-right product of ``a`` interleaved with the word's letters.

    With ``terminal=True`` the result is ``A D_1 A D_2 ... A D_k`` (one
    matrix factor per letter, the last letter trailing).  With
    ``terminal=False`` the letters are interior and the product is
    ``A D_1 A ... D_k A`` (k+1 matrix factors); the empty word yields
    ``A`` itself.
    """
    m = as_matrix(a)
    if word.k and word.n != m.n:
        raise DimensionError(f"word dimension {word.n} does not match matrix {m.n}")
    complex_result = m.field == COMPLEX or any(not d.is_real for d in word.letters)
    dtype = np.complex128 if complex_result else np.float64
    arr = m.arr.astype(dtype)
    if terminal:
        prod = np.eye(m.n, dtype=dtype)
        for d in word.letters:
            prod = (prod @ arr) * d.phases[None, :]
    else:
        prod = arr.copy()
        for d in word.letters:
            prod = (prod * d.phases[None, :]) @ arr
    return Matrix(COMPLEX if complex_result else REAL, prod)


def word_to_json(word: DiagonalWord) -> list:
    """Serialize a word: sign vectors for real letters, grid indices for
    on-grid complex letters, [re, im] pairs otherwise."""
    return [_letter_to_json(d) for d in word.canonical().letters]


def _letter_to_json(d: UnimodularDiagonal) -> list:
    if d.is_real:
        return [int(v) for v in d.phases]
    if d.indices is not None:
        return [int(i) for i in d.indices]
    return [[float(p.real), float(p.imag)] for p in d.phases]


def word_from_json(data, grid_q: int | None = None) -> DiagonalWord:
    """Inverse of :func:`word_to_json`.

    ``grid_q`` distinguishes integer grid indices (complex search) from
    sign vectors (real search, ``grid_q is None``).
    """
    letters = []
    for entry in data:
        if entry and isinstance(entry[0], (list, tuple)):
            phases = np.array([complex(re, im) for re, im in entry])
            letters.append(UnimodularDiagonal(phases))
        elif grid_q is not None:
            roots = np.array([_root_of_unity(k, grid_q) for k in entry])
            letters.append(UnimodularDiagonal(roots, q=grid_q, indices=tuple(entry)))
        else:
            letters.append(_sign_letter(np.array([float(v) for v in entry])))
    return DiagonalWord(tuple(letters))
