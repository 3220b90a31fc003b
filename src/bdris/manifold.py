"""Linear algebra over unitary and block-unitary matrices.

The polar factor, the skew-Hermitian part, block structures and Haar
sampling that every matrix-design routine in the package builds on.  All
functions are pure; randomness enters only through an explicitly passed
``numpy.random.Generator``.
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
        if not np.all(np.isfinite(m)):
            raise InvalidInput("matrix has non-finite entries")
        defect = unitarity_defect(m)
        if defect > self.tolerance:
            raise InvalidInput(
                f"matrix is not unitary: defect {defect:.3e} > tolerance {self.tolerance:.3e}"
            )

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


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

    @cached_property
    def _bounds(self) -> tuple[tuple[int, int, int], ...]:
        """(start, G, k) of each size's run in the packed layout."""
        out, start = [], 0
        for g in self.gather:
            count, k = len(g.block_ids), g.rows.shape[1]
            out.append((start, count, k))
            start += count * k * k
        return tuple(out)

    def pack(self, m: np.ndarray) -> np.ndarray:
        """The block entries of an N x N matrix as one 1-D array, in ``gather`` order.

        Entry by entry this is the per-size (G, k, k) stacks concatenated;
        the fully-connected surface packs to the matrix's own entries in
        row-major order.
        """
        return np.concatenate([m[g.rows, g.cols].reshape(-1) for g in self.gather])

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """The N x N matrix with the packed blocks in place and zeros elsewhere."""
        out = np.zeros((self.dimension, self.dimension), dtype=packed.dtype)
        for g, part in zip(self.gather, self.parts(packed)):
            out[g.rows, g.cols] = part
        return out

    def parts(self, packed: np.ndarray) -> list[np.ndarray]:
        """The (G, k, k) stacks of a packed array, one view per block size."""
        return [packed[start : start + count * k * k].reshape(count, k, k) for start, count, k in self._bounds]

    def map_blocks(self, fn, *matrices: np.ndarray) -> np.ndarray:
        """Apply ``fn`` to the (G, k, k) block stacks of each size; zero elsewhere.

        ``fn`` receives one stack per input matrix and returns a stack of the
        same shape, which is scattered into the blocks of a zero matrix.  One
        in-order block covering every port is the whole matrix: ``fn`` gets
        the N x N matrices themselves.
        """
        if self.group_sizes == (self.dimension,) and self.permutation is None:
            return fn(*matrices)
        out = np.zeros_like(matrices[0])
        for g in self.gather:
            out[g.rows, g.cols] = fn(*(m[g.rows, g.cols] for m in matrices))
        return out


def _joined(per_size: list[np.ndarray], axis: int = 0) -> np.ndarray:
    """Per-block-size results concatenated; a single one is returned as it is."""
    return per_size[0] if len(per_size) == 1 else np.concatenate(per_size, axis=axis)


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


def aligned_unitary(matrix: np.ndarray, structure: BlockStructure) -> tuple[np.ndarray, np.ndarray]:
    """Block-unitary maximizer of Re tr(Theta† M) and the ids of degenerate blocks.

    Per block the maximizer is the SVD factor UV† of M's block (orthogonal
    Procrustes).  Zero singular directions do not change the maximum, so a
    rank-deficient block keeps its SVD factor; a block whose singular values
    are all zero attains it at every unitary.  Returns the matrix and the
    ascending ids (positions in ``structure.block_indices()``) of those
    fully degenerate blocks, which keep the SVD's arbitrary factor.
    """
    degenerate = []

    def factor(stack):
        u, s, vh = np.linalg.svd(stack)
        degenerate.append(np.max(s, axis=-1) <= 1e-300)
        return u @ vh

    theta = structure.map_blocks(factor, np.asarray(matrix, dtype=complex))
    ids = [g.block_ids[np.reshape(flags, -1)] for g, flags in zip(structure.gather, degenerate)]
    return theta, np.sort(np.concatenate(ids))


def project_to_unitary(matrix: np.ndarray, tolerance: float = UNITARY_TOL) -> UnitaryMatrix:
    """Project onto the unitary manifold via the polar factor."""
    return UnitaryMatrix(polar_factor(matrix), tolerance)


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
    if n < 1:
        raise InvalidInput("n must be >= 1")
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    return UnitaryMatrix(polar_factor(z))
