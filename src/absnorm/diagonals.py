"""The group of unimodular diagonal matrices and diagonal-word algebra.

Over the reals the group is finite (sign diagonals) and enumerated
exactly; over the complexes it is continuous and replaced by the finite
grid of q-th roots of unity.  Scaling a whole diagonal by a unit scalar
changes neither the 2-norm nor the spectral radius of any product it
participates in, so enumerations offer a quotient mode that fixes the
first diagonal entry to +1 and shrinks the count by a factor of 2
(respectively q).  The searches walk that quotient, so every word the
package reports starts each letter with +1; serialization writes letters
as given.
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
    complex vector of unit entries otherwise.  Letters of an alphabet (the
    searches' witnesses, the enumerations and the grid entries of
    ``word_from_json``) also carry their integer grid exponents ``indices``,
    from which a complex grid letter is serialized; other diagonals have
    ``indices is None``.
    """

    phases: np.ndarray
    indices: tuple | None = None

    def __post_init__(self):
        phases = np.asarray(self.phases)
        if phases.ndim != 1 or phases.size < 1:
            raise DimensionError("phases must be a nonempty vector")
        # |(|d_i| - 1)| <= 1e-12 for all i in one reduction; a NaN maximum fails it.
        if not np.abs(np.abs(phases) - 1.0).max() <= 1e-12:
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
            indices = np.asarray(self.indices, dtype=np.int64).tolist()
            object.__setattr__(self, "indices", tuple(indices))

    @property
    def n(self) -> int:
        return self.phases.size

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.phases)

    def __eq__(self, other):
        if not isinstance(other, UnimodularDiagonal):
            return NotImplemented
        return np.array_equal(self.phases, other.phases)

    def __hash__(self):
        return hash(np.asarray(self.phases, dtype=np.complex128).tobytes())


def identity_diagonal(n: int) -> UnimodularDiagonal:
    return UnimodularDiagonal(np.ones(n))


def _is_count(value, least):
    """Whether value is an int or numpy integer, not a bool, of at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _check_grid_q(grid_q):
    if not _is_count(grid_q, 2) or grid_q % 2:
        raise ValueError(f"grid order must be even and >= 2, got {grid_q!r}")


def _alphabet(n: int, q: int | None, quotient: bool):
    """Integer-coded letters, lexicographic: ``(exponents, phases)`` of shape (L, n).

    ``q=None`` gives sign diagonals (float +-1 phases), an even q >= 2 the
    q-th-root grid (exact ``_root_of_unity`` phases); quotient fixes entry 0."""
    if not _is_count(n, 1):
        raise DimensionError(f"dimension must be an integer of at least 1, got {n!r}")
    if q is None:
        if n > _SIGN_ENUMERATION_MAX_N:
            raise CapacityError(f"sign enumeration capped at n <= {_SIGN_ENUMERATION_MAX_N}")
        base, roots = 2, np.array([1.0, -1.0])
    else:
        _check_grid_q(q)
        if int(q) ** max(n - 1, 1) > _PHASE_ENUMERATION_MAX:
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
    return [UnimodularDiagonal(p, indices=e) for e, p in zip(exponents, phases)]


def enumerate_phase_diagonals(n: int, q: int, quotient: bool = False) -> list[UnimodularDiagonal]:
    """All diagonals with entries in the q-th roots of unity, lexicographic.

    ``q`` must be even and at least 2 so the grid contains +-1.  The
    quotient mode fixes the first entry to 1, giving q**(n-1) members.
    """
    _check_grid_q(q)  # q=None would give sign letters
    exponents, phases = _alphabet(n, q, quotient)
    return [UnimodularDiagonal(p, indices=e) for e, p in zip(exponents, phases)]


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
    """Serialize a word, each letter as given: sign vectors for real letters,
    grid indices for on-grid complex letters, [re, im] pairs otherwise."""
    return [_letter_to_json(d) for d in word.letters]


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
            letters.append(UnimodularDiagonal(roots, indices=tuple(entry)))
        else:
            letters.append(UnimodularDiagonal(np.array([float(v) for v in entry])))
    return DiagonalWord(tuple(letters))
