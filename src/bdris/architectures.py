"""BD-RIS architecture taxonomy and the physics it constrains.

A reconfigurable surface is described by its N x N scattering matrix.  The
circuit topology dictates which entries may be nonzero and which sub-blocks
must be unitary: a diagonal matrix for conventional single-connected
surfaces, unitary blocks for group-connected ones and a full unitary matrix
for fully-connected ones.  These are the three kinds the optimizers move on.
This module validates matrices against those patterns and provides the
closed-form optimal configurations and amplitudes for a single backscatter
tag; the effective channels live in ``channel``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, ZeroChannel
from .manifold import BlockStructure, UnitaryMatrix, aligned_unitary, unitarity_defect

STRUCT_TOL = 1e-10


class ArchitectureKind(enum.Enum):
    DIAGONAL = "diagonal"
    GROUP_CONNECTED = "group-connected"
    FULLY_CONNECTED = "fully-connected"


@dataclass(frozen=True)
class BdRisArchitecture:
    kind: ArchitectureKind
    structure: BlockStructure | None = None

    def __post_init__(self):
        if self.kind is ArchitectureKind.GROUP_CONNECTED and not isinstance(self.structure, BlockStructure):
            raise InvalidInput("group-connected architecture needs a BlockStructure")
        if self.kind in (ArchitectureKind.DIAGONAL, ArchitectureKind.FULLY_CONNECTED) and self.structure is not None:
            raise InvalidInput(f"a {self.kind.value} architecture takes no BlockStructure")

    def unitary_blocks(self, n: int) -> BlockStructure:
        """The blocks that must be unitary at dimension n.

        N 1 x 1 blocks for the diagonal circuit, the group structure for the
        group-connected one and one N x N block for the fully-connected one;
        a kind that is not an ``ArchitectureKind`` member raises InvalidInput.
        """
        if self.kind is ArchitectureKind.DIAGONAL:
            return BlockStructure((1,) * n)
        if self.kind is ArchitectureKind.GROUP_CONNECTED:
            if self.structure.dimension != n:
                raise DimensionMismatch("block structure does not fit the matrix dimension")
            return self.structure
        if self.kind is ArchitectureKind.FULLY_CONNECTED:
            return BlockStructure((n,))
        raise InvalidInput(f"{self.kind!r} is not a block-unitary architecture")

    @staticmethod
    def diagonal() -> "BdRisArchitecture":
        return BdRisArchitecture(ArchitectureKind.DIAGONAL)

    @staticmethod
    def group_connected(structure: BlockStructure) -> "BdRisArchitecture":
        return BdRisArchitecture(ArchitectureKind.GROUP_CONNECTED, structure=structure)

    @staticmethod
    def fully_connected() -> "BdRisArchitecture":
        return BdRisArchitecture(ArchitectureKind.FULLY_CONNECTED)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _support_mask(arch: BdRisArchitecture, n: int) -> np.ndarray:
    structure = arch.unitary_blocks(n)
    return structure.unpack(np.ones(structure.shape, dtype=bool))


def _finite(m: np.ndarray, violations: list[str]) -> bool:
    """Whether every entry is finite, else a violation: a NaN defect passes any tolerance test."""
    bad = int(np.count_nonzero(~np.isfinite(m)))
    if bad:
        violations.append(f"{bad} non-finite entries")
    return not bad


def validate(theta, arch: BdRisArchitecture, tolerance: float = STRUCT_TOL) -> ValidationReport:
    """Check a matrix against an architecture's zero pattern and unitarity.

    The zero pattern is checked exactly; the unitarity of the connected part
    within ``tolerance``, which must be finite and >= 0 (InvalidInput).  A
    non-finite entry is a violation.  Returns a report listing every
    violation instead of raising.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InvalidInput(f"tolerance must be finite and >= 0, got {tolerance!r}")
    violations: list[str] = []
    m = np.asarray(theta, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    finite = _finite(m, violations)
    mask = _support_mask(arch, m.shape[0])
    off = np.argwhere(~mask & (m != 0))
    if len(off):
        head = ", ".join(f"({i},{j})" for i, j in off[:5])
        violations.append(f"{len(off)} nonzero entries outside the support pattern: {head}")
    if finite:
        defect = unitarity_defect(m)
        if defect > tolerance:
            violations.append(f"unitarity defect {defect:.3e} > {tolerance:.1e}")
    return ValidationReport(tuple(violations))


def _single_tag_channels(b, c) -> tuple[np.ndarray, np.ndarray]:
    """The surface->tag and source->surface links as equal-length, finite, nonzero complex vectors."""
    b = np.asarray(b, dtype=complex).reshape(-1)
    c = np.asarray(c, dtype=complex).reshape(-1)
    if b.shape != c.shape:
        raise DimensionMismatch("b and c must have equal length")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise InvalidInput("single-tag links have non-finite entries")
    if not np.any(b) or not np.any(c):
        raise ZeroChannel("single-tag optimum undefined for a zero channel")
    return b, c


def diagonal_single_tag_amplitude(b, c) -> float:
    """Largest |b†Θc| over diagonal configurations: sum_i |b_i||c_i|."""
    b, c = _single_tag_channels(b, c)
    return float(np.sum(np.abs(b) * np.abs(c)))


def fully_connected_single_tag_amplitude(b, c) -> float:
    """Largest |b†Θc| over all unitaries: the Cauchy-Schwarz bound ||b|| ||c||."""
    b, c = _single_tag_channels(b, c)
    return float(np.linalg.norm(b) * np.linalg.norm(c))


def optimal_diagonal_single_tag(b: np.ndarray, c: np.ndarray) -> tuple[UnitaryMatrix, float]:
    """Best diagonal configuration for a single source->surface->tag hop.

    Aligns the phase of every per-element product, giving |b†Θc| =
    sum_i |b_i||c_i| -- the conventional-RIS optimum.
    """
    b, c = _single_tag_channels(b, c)
    phases = np.exp(1j * (np.angle(b) - np.angle(c)))
    return UnitaryMatrix(np.diag(phases)), diagonal_single_tag_amplitude(b, c)


def optimal_fully_connected_single_tag(b: np.ndarray, c: np.ndarray) -> tuple[UnitaryMatrix, float]:
    """Best unitary configuration for a single hop: rotate c onto b.

    The aligned unitary of the rank-one b c† maps c / ||c|| to b / ||b||, so
    it achieves the Cauchy-Schwarz bound |b†Θc| = ||b|| ||c||, which no
    unitary can exceed; always at least as large as the diagonal optimum.
    """
    b, c = _single_tag_channels(b, c)
    theta, _ = aligned_unitary(np.outer(b, np.conj(c)))
    return UnitaryMatrix(theta), fully_connected_single_tag_amplitude(b, c)
