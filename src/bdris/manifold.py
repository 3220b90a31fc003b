"""Linear algebra over unitary and block-unitary matrices.

The polar factor, the skew-Hermitian part, block structures (G
consecutive groups of one size k; a surface point is the (G, k, k) stack
of its blocks) and Haar sampling that every matrix-design routine in the
package builds on.  All functions are pure; randomness enters only
through an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidInput, RankDeficient, check_counts

UNITARY_TOL = 1e-10
RANK_TOL = 1e-12


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm distance of M†M from the identity."""
    m = np.asarray(matrix)
    eye = np.eye(m.shape[0])
    return float(np.max(np.abs(m.conj().T @ m - eye)))


@dataclass(frozen=True)
class UnitaryMatrix:
    """An N x N complex matrix certified unitary to ``UNITARY_TOL``."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise InvalidInput("dimension must be >= 1")
        if not np.all(np.isfinite(m)):
            raise InvalidInput("matrix has non-finite entries")
        defect = unitarity_defect(m)
        if defect > UNITARY_TOL:
            raise InvalidInput(f"matrix is not unitary: defect {defect:.3e} > tolerance {UNITARY_TOL:.3e}")

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class BlockStructure:
    """Partition of N ports into G consecutive groups of one size k.

    ``group_sizes`` lists the G sizes, which must be equal positive
    integers; group ``g`` occupies ports ``g k`` to ``g k + k - 1``.
    ``shape`` is (G, k, k), the shape of the block stack that holds a
    surface point: the fully-connected surface is the (1, N, N) stack.
    """

    group_sizes: tuple[int, ...]
    dimension: int = field(init=False)
    shape: tuple[int, int, int] = field(init=False)

    def __post_init__(self):
        sizes = tuple(self.group_sizes)
        if not sizes:
            raise InvalidInput(f"group sizes must be positive integers, got {sizes!r}")
        check_counts(**{f"group size {g}": s for g, s in enumerate(sizes)})
        sizes = tuple(int(s) for s in sizes)
        if len(set(sizes)) != 1:
            raise InvalidInput(f"group sizes must be equal, got {sizes!r}")
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "dimension", sum(sizes))
        object.__setattr__(self, "shape", (len(sizes), sizes[0], sizes[0]))

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """``out[rows, cols] = blocks`` puts a (G, k, k) stack in place in an N x N matrix."""
        idx = np.arange(self.dimension).reshape(self.shape[:2])
        return idx[:, :, None], idx[:, None, :]

    def unpack(self, blocks: np.ndarray) -> np.ndarray:
        """The N x N matrix with the (G, k, k) stack's blocks in place and zeros elsewhere.

        DimensionMismatch when the stack's shape is not ``shape``.
        """
        if np.shape(blocks) != self.shape:
            raise DimensionMismatch(f"cannot unpack a {np.shape(blocks)} stack into {self.shape} blocks")
        out = np.zeros((self.dimension, self.dimension), dtype=blocks.dtype)
        out[self._index] = blocks
        return out


def polar_factor(matrix: np.ndarray) -> np.ndarray:
    """Unitary polar factor UV† of a full-rank square matrix, or of each in a stack.

    This is the Frobenius-nearest unitary; accepts (..., k, k) stacks and
    raises InvalidInput for a non-finite entry and RankDeficient when any
    singular value of any matrix is at or below the rank threshold
    (non-unique factor).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix has non-finite entries")
    u, s, vh = np.linalg.svd(m)
    if np.min(s) <= RANK_TOL:
        raise RankDeficient(f"smallest singular value {np.min(s):.3e} <= {RANK_TOL:.0e}")
    return u @ vh


def aligned_unitary(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary maximizer of Re tr(Theta† M) for a matrix or each in a (G, k, k) stack, and the degenerate ids.

    Per matrix the maximizer is the SVD factor UV† (orthogonal Procrustes).
    Zero singular directions do not change the maximum, so a rank-deficient
    matrix keeps its SVD factor; one whose singular values are all zero
    attains it at every unitary.  Returns the factors and the ascending
    stack positions of those fully degenerate matrices, which keep the
    SVD's arbitrary factor.
    """
    u, s, vh = np.linalg.svd(np.asarray(stack, dtype=complex))
    return u @ vh, np.flatnonzero(np.max(s, axis=-1) <= 1e-300)


def project_to_unitary(matrix: np.ndarray) -> UnitaryMatrix:
    """Project onto the unitary manifold via the polar factor."""
    return UnitaryMatrix(polar_factor(matrix))


def skew_part(x: np.ndarray) -> np.ndarray:
    """Skew-Hermitian part (X - X†)/2 of a matrix or of each in a (..., k, k) stack.

    Exactly skew-Hermitian in floating point: entry (j, i) is the negated
    conjugate of entry (i, j) bit for bit, and the diagonal is imaginary.
    """
    out = np.conj(x.swapaxes(-1, -2), order="C")
    np.subtract(x, out, out=out)
    out *= 0.5
    return out


def random_unitary(n: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Haar-distributed unitary: the polar factor of a standard complex Gaussian matrix.

    The Gaussian law is invariant under left multiplication by a unitary V,
    and polar(VZ) = V polar(Z), so the factor's law is too.
    """
    check_counts(n=n)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    return UnitaryMatrix(polar_factor(z))
