"""BD-RIS architecture taxonomy and the physics it constrains.

A reconfigurable surface is described by its N x N scattering matrix.  The
circuit topology dictates which entries may be nonzero and which sub-blocks
must be unitary: a diagonal matrix for conventional single-connected
surfaces, unitary blocks for group-connected ones, a full unitary matrix for
fully-connected ones, and a permuted phase pattern when ports are paired
through phase shifters.  This module validates matrices against those
patterns, composes effective channels, and provides the closed-form optimal
configurations for a single backscatter tag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, ChannelStack
from .errors import DimensionMismatch, InvalidInput, ZeroChannel
from .manifold import BlockStructure, UnitaryMatrix, aligned_unitary, unitarity_defect

STRUCT_TOL = 1e-10


class ArchitectureKind(enum.Enum):
    DIAGONAL = "diagonal"
    GROUP_CONNECTED = "group-connected"
    FULLY_CONNECTED = "fully-connected"
    NON_DIAGONAL_PAIRED = "non-diagonal-paired"
    HYBRID = "hybrid"
    # typed for completeness; no validator or optimizer targets these
    TREE_CONNECTED = "tree-connected"
    FOREST_CONNECTED = "forest-connected"


@dataclass(frozen=True)
class BdRisArchitecture:
    kind: ArchitectureKind
    structure: BlockStructure | None = None
    pairing: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind is ArchitectureKind.GROUP_CONNECTED and not isinstance(self.structure, BlockStructure):
            raise InvalidInput("group-connected architecture needs a BlockStructure")
        if self.kind is ArchitectureKind.NON_DIAGONAL_PAIRED:
            if self.pairing is None:
                raise InvalidInput("paired architecture needs a port permutation")
            perm = tuple(int(p) for p in self.pairing)
            if sorted(perm) != list(range(len(perm))):
                raise InvalidInput("pairing must be a bijection of range(N)")
            object.__setattr__(self, "pairing", perm)

    def unitary_blocks(self, n: int) -> BlockStructure:
        """The blocks that must be unitary at dimension n.

        N 1 x 1 blocks for the diagonal circuit, the group structure for the
        group-connected one and one N x N block for the fully-connected one;
        the other kinds are not block unitary and raise InvalidInput.
        """
        if self.kind is ArchitectureKind.DIAGONAL:
            return BlockStructure((1,) * n)
        if self.kind is ArchitectureKind.GROUP_CONNECTED:
            if self.structure.dimension != n:
                raise DimensionMismatch("block structure does not fit the matrix dimension")
            return self.structure
        if self.kind is ArchitectureKind.FULLY_CONNECTED:
            return BlockStructure((n,))
        raise InvalidInput(f"{self.kind.value} is not a block-unitary architecture")

    @staticmethod
    def diagonal() -> "BdRisArchitecture":
        return BdRisArchitecture(ArchitectureKind.DIAGONAL)

    @staticmethod
    def group_connected(structure: BlockStructure) -> "BdRisArchitecture":
        return BdRisArchitecture(ArchitectureKind.GROUP_CONNECTED, structure=structure)

    @staticmethod
    def fully_connected() -> "BdRisArchitecture":
        return BdRisArchitecture(ArchitectureKind.FULLY_CONNECTED)

    @staticmethod
    def non_diagonal_paired(pairing) -> "BdRisArchitecture":
        return BdRisArchitecture(ArchitectureKind.NON_DIAGONAL_PAIRED, pairing=tuple(pairing))

    @staticmethod
    def hybrid() -> "BdRisArchitecture":
        return BdRisArchitecture(ArchitectureKind.HYBRID)


@dataclass(frozen=True)
class HybridMatrices:
    """Reflective/transmissive pair with a lossless power split.

    Invariant: reflect†reflect + transmit†transmit = I within 1e-10, read as
    "incident power is fully divided between the two sides".
    """

    reflect: np.ndarray
    transmit: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.reflect, dtype=complex)
        t = np.asarray(self.transmit, dtype=complex)
        if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape != t.shape:
            raise DimensionMismatch("hybrid matrices must be square and equally sized")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise InvalidInput("hybrid matrices have non-finite entries")
        object.__setattr__(self, "reflect", r)
        object.__setattr__(self, "transmit", t)
        defect = self.split_defect()
        if defect > STRUCT_TOL:
            raise InvalidInput(f"lossless-split defect {defect:.3e} > {STRUCT_TOL:.0e}")

    def split_defect(self) -> float:
        gram = self.reflect.conj().T @ self.reflect + self.transmit.conj().T @ self.transmit
        return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def hybrid_split(u_reflect: UnitaryMatrix, u_transmit: UnitaryMatrix, alpha: float) -> HybridMatrices:
    """Lossless hybrid pair: sqrt(alpha) U1 reflected, sqrt(1 - alpha) U2 transmitted."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInput("alpha must lie in [0, 1]")
    return HybridMatrices(
        np.sqrt(alpha) * u_reflect.entries, np.sqrt(1.0 - alpha) * u_transmit.entries
    )


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _support_mask(arch: BdRisArchitecture, n: int) -> np.ndarray:
    mask = np.zeros((n, n), dtype=bool)
    if arch.kind is ArchitectureKind.NON_DIAGONAL_PAIRED:
        if len(arch.pairing) != n:
            raise DimensionMismatch("pairing does not fit the matrix dimension")
        mask[list(arch.pairing), range(n)] = True
        return mask
    return arch.unitary_blocks(n).map_blocks(np.ones_like, mask)


def _finite(m: np.ndarray, violations: list[str]) -> bool:
    """Whether every entry is finite, else a violation: a NaN defect passes any tolerance test."""
    bad = int(np.count_nonzero(~np.isfinite(m)))
    if bad:
        violations.append(f"{bad} non-finite entries")
    return not bad


def validate(theta, arch: BdRisArchitecture, tolerance: float = STRUCT_TOL) -> ValidationReport:
    """Check a matrix against an architecture's zero pattern and unitarity.

    The zero pattern is checked exactly; the unitarity of the connected part
    within ``tolerance``.  A non-finite entry is a violation.  Returns a
    report listing every violation instead of raising.
    """
    violations: list[str] = []
    if arch.kind is ArchitectureKind.HYBRID:
        if not isinstance(theta, HybridMatrices):
            return ValidationReport(("hybrid validation expects a HybridMatrices pair",))
        if _finite(np.stack([theta.reflect, theta.transmit]), violations):
            defect = theta.split_defect()
            if defect > tolerance:
                violations.append(f"lossless-split defect {defect:.3e} > {tolerance:.1e}")
        return ValidationReport(tuple(violations))

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


def effective_channel(a_l: np.ndarray, b_l: np.ndarray, bs_ris: np.ndarray, theta) -> np.ndarray:
    """Composite direct-plus-reflected channel h = a + C†Θ†b (an M-vector)."""
    a = np.asarray(a_l, dtype=complex).reshape(-1)
    b = np.asarray(b_l, dtype=complex).reshape(-1)
    c = np.asarray(bs_ris, dtype=complex)
    t = np.asarray(theta, dtype=complex)
    n, m = c.shape
    if b.shape[0] != n or a.shape[0] != m or t.shape != (n, n):
        raise DimensionMismatch(
            f"incompatible shapes: a {a.shape}, b {b.shape}, C {c.shape}, theta {t.shape}"
        )
    return a + c.conj().T @ t.conj().T @ b


def effective_channel_matrix(channels: ChannelRealization | ChannelStack, theta) -> np.ndarray:
    """Effective channels as rows: (L, M) for a realization, (P, L, M) for a stack of P."""
    t = np.asarray(theta, dtype=complex)
    n = channels.num_elements
    if t.shape != (n, n):
        raise DimensionMismatch(f"theta shape {t.shape} != ({n}, {n})")
    return channels.direct + channels.ris_device @ np.conj(t) @ np.conj(channels.bs_ris)


def channel_gain_objective(theta, realizations) -> float:
    """Total squared effective-channel norm over devices and location snapshots."""
    h = effective_channel_matrix(ChannelStack(realizations), theta)
    return float(np.sum(np.abs(h) ** 2))


def optimal_diagonal_single_tag(b: np.ndarray, c: np.ndarray) -> tuple[UnitaryMatrix, float]:
    """Best diagonal configuration for a single source->surface->tag hop.

    Aligns the phase of every per-element product, giving |b†Θc| =
    sum_i |b_i||c_i| -- the conventional-RIS optimum.
    """
    b = np.asarray(b, dtype=complex).reshape(-1)
    c = np.asarray(c, dtype=complex).reshape(-1)
    if b.shape != c.shape:
        raise DimensionMismatch("b and c must have equal length")
    if not np.any(b) or not np.any(c):
        raise ZeroChannel("single-tag optimum undefined for a zero channel")
    phases = np.exp(1j * (np.angle(b) - np.angle(c)))
    theta = UnitaryMatrix(np.diag(phases))
    amplitude = float(np.sum(np.abs(b) * np.abs(c)))
    return theta, amplitude


def optimal_fully_connected_single_tag(b: np.ndarray, c: np.ndarray) -> tuple[UnitaryMatrix, float]:
    """Best unitary configuration for a single hop: rotate c onto b.

    The aligned unitary of the rank-one b c† maps c / ||c|| to b / ||b||, so
    it achieves the Cauchy-Schwarz bound |b†Θc| = ||b|| ||c||, which no
    unitary can exceed; always at least as large as the diagonal optimum.
    """
    b = np.asarray(b, dtype=complex).reshape(-1)
    c = np.asarray(c, dtype=complex).reshape(-1)
    if b.shape != c.shape:
        raise DimensionMismatch("b and c must have equal length")
    nb, nc = np.linalg.norm(b), np.linalg.norm(c)
    if nb == 0.0 or nc == 0.0:
        raise ZeroChannel("single-tag optimum undefined for a zero channel")
    theta, _ = aligned_unitary(np.outer(b, np.conj(c)), BlockStructure((b.shape[0],)))
    return UnitaryMatrix(theta), float(nb * nc)
