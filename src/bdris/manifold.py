"""Linear algebra over unitary and block-unitary matrices.

Projections, tangent spaces, retractions and Haar sampling used by every
matrix-design routine in the package.  All functions are pure; randomness
enters only through an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidInput, RankDeficient

UNITARY_TOL = 1e-10
RANK_TOL = 1e-12


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm distance of M†M from the identity."""
    m = np.asarray(matrix)
    eye = np.eye(m.shape[0])
    return float(np.max(np.abs(m.conj().T @ m - eye)))


@dataclass(frozen=True)
class UnitaryMatrix:
    """An N x N complex matrix certified unitary to ``tolerance``."""

    entries: np.ndarray
    tolerance: float = UNITARY_TOL

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise InvalidInput("dimension must be >= 1")
        defect = unitarity_defect(m)
        if defect > self.tolerance:
            raise InvalidInput(
                f"matrix is not unitary: defect {defect:.3e} > tolerance {self.tolerance:.3e}"
            )

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class TangentDirection:
    """A direction T at a unitary base point, with base†T skew-Hermitian."""

    entries: np.ndarray
    base_point: UnitaryMatrix

    def __post_init__(self):
        t = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", t)
        if t.shape != self.base_point.entries.shape:
            raise DimensionMismatch(
                f"tangent shape {t.shape} != base shape {self.base_point.entries.shape}"
            )
        x = self.base_point.entries.conj().T @ t
        defect = float(np.max(np.abs(x + x.conj().T)))
        if defect > 1e-10:
            raise InvalidInput(f"direction is not tangent: skew defect {defect:.3e}")


class BlockGather(NamedTuple):
    """Index stacks of the blocks of one size k.

    ``m[rows, cols]`` gathers the G blocks into a (G, k, k) stack, and
    ``out[rows, cols] = stack`` scatters one back; ``block_ids`` are the
    blocks' positions in ``BlockStructure.block_indices()``.
    """

    block_ids: np.ndarray  # (G,)
    rows: np.ndarray  # (G, k, 1)
    cols: np.ndarray  # (G, 1, k)


@dataclass(frozen=True)
class BlockStructure:
    """Partition of N ports into groups, optionally through a permutation.

    ``group_sizes`` splits ``range(N)`` into consecutive runs; ``permutation``
    (if given) maps those run positions to actual port indices, so group ``g``
    occupies ports ``permutation[start_g:end_g]``.
    """

    group_sizes: tuple[int, ...]
    permutation: tuple[int, ...] | None = None
    dimension: int = field(init=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.group_sizes)
        object.__setattr__(self, "group_sizes", sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise InvalidInput("group sizes must be positive")
        n = sum(sizes)
        object.__setattr__(self, "dimension", n)
        if self.permutation is not None:
            perm = tuple(int(p) for p in self.permutation)
            object.__setattr__(self, "permutation", perm)
            if sorted(perm) != list(range(n)):
                raise InvalidInput("permutation must be a bijection of range(N)")

    def block_indices(self) -> list[np.ndarray]:
        """Port indices of each group."""
        order = np.asarray(self.permutation if self.permutation is not None else range(self.dimension))
        out, start = [], 0
        for size in self.group_sizes:
            out.append(order[start : start + size])
            start += size
        return out

    @cached_property
    def gather(self) -> tuple[BlockGather, ...]:
        """One ``BlockGather`` per distinct block size, smallest size first."""
        order = np.asarray(self.permutation if self.permutation is not None else range(self.dimension))
        sizes = np.asarray(self.group_sizes)
        starts = np.cumsum(sizes) - sizes
        out = []
        for k in sorted(set(self.group_sizes)):
            ids = np.flatnonzero(sizes == k)
            idx = order[starts[ids][:, None] + np.arange(k)]  # (G, k) port indices
            out.append(BlockGather(ids, idx[:, :, None], idx[:, None, :]))
        return tuple(out)

    def map_blocks(self, fn, *matrices: np.ndarray) -> np.ndarray:
        """Apply ``fn`` to the (G, k, k) block stacks of each size; zero elsewhere.

        ``fn`` receives one stack per input matrix and returns a stack of the
        same shape, which is scattered into the blocks of a zero matrix.
        """
        out = np.zeros_like(matrices[0])
        for g in self.gather:
            out[g.rows, g.cols] = fn(*(m[g.rows, g.cols] for m in matrices))
        return out


def polar_factor(matrix: np.ndarray) -> np.ndarray:
    """Unitary polar factor UV† of a full-rank square matrix, or of each in a stack.

    This is the Frobenius-nearest unitary; accepts (..., k, k) stacks and
    raises RankDeficient when any singular value of any matrix is at or
    below the rank threshold (non-unique factor).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    u, s, vh = np.linalg.svd(m)
    if np.min(s) <= RANK_TOL:
        raise RankDeficient(f"smallest singular value {np.min(s):.3e} <= {RANK_TOL:.0e}")
    return u @ vh


def project_to_unitary(matrix: np.ndarray, tolerance: float = UNITARY_TOL) -> UnitaryMatrix:
    """Project onto the unitary manifold via the polar factor."""
    return UnitaryMatrix(polar_factor(matrix), tolerance)


def skew_part(x: np.ndarray) -> np.ndarray:
    """Skew-Hermitian part (X - X†)/2 of a matrix or of each in a (..., k, k) stack."""
    return (x - x.conj().swapaxes(-1, -2)) / 2.0


def tangent_project(gradient: np.ndarray, at: UnitaryMatrix) -> TangentDirection:
    """Orthogonal projection of an ambient matrix onto the tangent space at ``at``.

    T = base * skew(base† G).
    """
    g = np.asarray(gradient, dtype=complex)
    base = at.entries
    if g.shape != base.shape:
        raise DimensionMismatch(f"gradient shape {g.shape} != base shape {base.shape}")
    t = base @ skew_part(base.conj().T @ g)
    return TangentDirection(t, at)


def retract(at: UnitaryMatrix, direction: TangentDirection, step: float) -> UnitaryMatrix:
    """Move ``step`` along a tangent direction and re-project (polar retraction)."""
    if direction.base_point.entries.shape != at.entries.shape:
        raise DimensionMismatch("direction was built at a different dimension")
    if not np.isfinite(step):
        raise InvalidInput("step must be finite")
    if step == 0.0:
        return at
    return project_to_unitary(at.entries + step * direction.entries, at.tolerance)


def random_unitary(n: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Haar-distributed unitary.

    QR of a standard complex Gaussian matrix, with each column of Q rescaled
    by the phase of the matching R diagonal entry; the rescaling removes the
    non-Haar bias of the raw QR factor.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return UnitaryMatrix(q)


def block_project(matrix: np.ndarray, structure: BlockStructure) -> UnitaryMatrix:
    """Zero everything outside the (permuted) diagonal blocks, polar-project each block."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (structure.dimension, structure.dimension):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not fit structure of dimension {structure.dimension}"
        )
    return UnitaryMatrix(structure.map_blocks(polar_factor, m))
