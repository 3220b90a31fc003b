"""Geometric multi-user channel generation and the effective channel.

Distance-based path loss, Rician/Rayleigh small-scale fading and
random-waypoint device mobility, matched to the case-study defaults:
-30 dB reference loss at 1 m, exponents 3.5 / 2.2 / 2.0 for the
device-BS / device-RIS / BS-RIS links, -80 dBm noise, 18 dB transmit SNR,
4 BS antennas, a 100 m BS-RIS backbone and a 25 x 25 m movement area.
``CascadedChannels`` maps the (G, k, k) block stack of a surface matrix to
the effective channels.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import BelowReferenceDistance, DimensionMismatch, InvalidInput, check_counts, check_integers
from .manifold import BlockStructure


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss, one exponent per link type."""

    reference_loss_db: float = -30.0
    reference_distance_m: float = 1.0
    exponent_device_bs: float = 3.5
    exponent_device_ris: float = 2.2
    exponent_bs_ris: float = 2.0

    def __post_init__(self):
        _require_finite(self, *(f.name for f in fields(self)))
        if self.reference_distance_m <= 0:
            raise InvalidInput("reference distance must be positive")
        for exp in (self.exponent_device_bs, self.exponent_device_ris, self.exponent_bs_ris):
            if exp < 1.0:
                raise InvalidInput("path loss exponents must be >= 1")


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle in the ground plane, meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        _require_finite(self, "x_min", "x_max", "y_min", "y_max")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise InvalidInput("rectangle must have positive side lengths")

    def contains(self, point: np.ndarray) -> bool:
        x, y = float(point[0]), float(point[1])
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return np.array(
            [rng.uniform(self.x_min, self.x_max), rng.uniform(self.y_min, self.y_max)]
        )


def _default_area() -> Rectangle:
    # 25 x 25 m movement area; near edge 7.5 m from the RIS so that every
    # device stays beyond the 1 m path-loss reference distance.
    return Rectangle(107.5, 132.5, -12.5, 12.5)


@dataclass(frozen=True)
class NetworkGeometry:
    """Placement of BS, RIS and the device movement area."""

    bs_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ris_position: np.ndarray = field(default_factory=lambda: np.array([100.0, 0.0, 0.0]))
    device_area: Rectangle = field(default_factory=_default_area)

    def __post_init__(self):
        _require_points(self, 3, "bs_position", "ris_position")

    @property
    def bs_ris_distance_m(self) -> float:
        """Length of the BS-RIS backbone, from the two positions."""
        return float(np.linalg.norm(self.bs_position - self.ris_position))


@dataclass(frozen=True)
class FadingModel:
    """Small-scale fading mix.

    Device links are drawn line-of-sight with probability ``los_probability``
    (Rician with ``device_links_rician_k_db``), otherwise Rayleigh.  The
    BS-RIS backbone is always Rician with ``bs_ris_rician_k_db``.  A K of
    -inf dB degenerates to pure Rayleigh and +inf dB to pure line of sight.
    """

    bs_ris_rician_k_db: float = 10.0
    device_links_rician_k_db: float = -math.inf
    los_probability: float = 0.5

    def __post_init__(self):
        for name in ("bs_ris_rician_k_db", "device_links_rician_k_db"):
            if math.isnan(getattr(self, name)):
                raise InvalidInput(f"{name} must not be NaN")
        if not 0.0 <= self.los_probability <= 1.0:
            raise InvalidInput("los_probability must be in [0, 1]")


@dataclass(frozen=True)
class Device:
    """A mobile device: current position and waypoint (ground-plane 2-vectors), current speed (>= 0)."""

    position: np.ndarray
    waypoint: np.ndarray
    speed_mps: float

    def __post_init__(self):
        _require_points(self, 2, "position", "waypoint")
        if not (math.isfinite(self.speed_mps) and self.speed_mps >= 0):
            raise InvalidInput(f"speed_mps must be finite and >= 0, got {self.speed_mps!r}")


def _require_finite(obj, *names: str) -> None:
    """The named attributes of ``obj`` must be finite numbers."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise InvalidInput(f"{name} must be finite, got {getattr(obj, name)!r}")


def _require_points(obj, size: int, *names: str) -> None:
    """Store the named attributes of frozen ``obj`` as float arrays; each must be a finite ``size``-vector."""
    for name in names:
        point = np.asarray(getattr(obj, name), dtype=float)
        if point.shape != (size,):
            raise DimensionMismatch(f"{name} must be a {size}-vector, got shape {point.shape}")
        if not np.isfinite(point).all():
            raise InvalidInput(f"positions must be finite, got {name} = {point.tolist()}")
        object.__setattr__(obj, name, point)


def _require_speed_range(speed_range: tuple[float, float]) -> None:
    """A (min, max) speed range must be finite with 0 <= min <= max."""
    low, high = speed_range
    if not (math.isfinite(low) and math.isfinite(high) and 0 <= low <= high):
        raise InvalidInput(f"speed range must be finite with 0 <= min <= max, got {tuple(speed_range)!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """One snapshot of all links: direct (L x M), ris_device (L x N), bs_ris (N x M)."""

    direct: np.ndarray
    ris_device: np.ndarray
    bs_ris: np.ndarray
    tx_snr_db: float = 18.0

    def __post_init__(self):
        a = np.asarray(self.direct, dtype=complex)
        b = np.asarray(self.ris_device, dtype=complex)
        c = np.asarray(self.bs_ris, dtype=complex)
        for name, arr in (("direct", a), ("ris_device", b), ("bs_ris", c)):
            if arr.ndim != 2:
                raise InvalidInput(f"{name} must be a 2-D array")
            if not np.all(np.isfinite(arr.view(float))):
                raise InvalidInput(f"{name} contains non-finite entries")
        if a.shape[0] != b.shape[0]:
            raise InvalidInput("direct and ris_device disagree on the device count")
        if a.shape[0] < 1 or a.shape[1] < 1 or b.shape[1] < 1:
            raise InvalidInput("need at least one device, one BS antenna and one element")
        if c.shape != (b.shape[1], a.shape[1]):
            raise InvalidInput(
                f"bs_ris shape {c.shape} != (elements, antennas) = ({b.shape[1]}, {a.shape[1]})"
            )
        _require_finite(self, "tx_snr_db")
        object.__setattr__(self, "direct", a)
        object.__setattr__(self, "ris_device", b)
        object.__setattr__(self, "bs_ris", c)

    @property
    def num_devices(self) -> int:
        return self.direct.shape[0]

    @property
    def num_bs_antennas(self) -> int:
        return self.direct.shape[1]

    @property
    def num_elements(self) -> int:
        return self.ris_device.shape[1]


class ChannelStack:
    """One realization or a non-empty sequence of them, stacked to (P, ...) arrays.

    Every snapshot must agree on the device, element and antenna counts
    (L, N, M) and on the transmit SNR.
    """

    def __init__(self, realizations: ChannelRealization | Sequence[ChannelRealization]):
        realizations = [realizations] if isinstance(realizations, ChannelRealization) else list(realizations)
        if not realizations:
            raise InvalidInput("need at least one channel realization")
        first = realizations[0]
        shape = (first.direct.shape, first.num_elements)
        if any((r.direct.shape, r.num_elements) != shape for r in realizations):
            raise DimensionMismatch("realizations disagree on (L, N, M)")
        if any(r.tx_snr_db != first.tx_snr_db for r in realizations):
            raise InvalidInput("realizations disagree on tx_snr_db")
        self.direct = np.stack([r.direct for r in realizations])          # (P, L, M)
        self.ris_device = np.stack([r.ris_device for r in realizations])  # (P, L, N)
        self.bs_ris = np.stack([r.bs_ris for r in realizations])          # (P, N, M)
        self.num_elements = first.num_elements
        self.tx_snr_db = first.tx_snr_db


class CascadedChannels:
    """The effective channels as linear maps of a surface's block stack, and their total gain.

    With R the surface-to-device links (P, L, N), B the BS-to-surface links
    (P, N, M) and Theta the (G, k, k) stack of the blocks of ``structure``,
    the channels are h = a + reflected(Theta) with
    ``reflected`` = sum_g R_g conj(Theta_g) conj(B_g), and ``adjoint`` maps
    (P, L, M) rows X to the stack of blocks sum_p R_g^T X_p B_g†, so that
    Re sum(X * reflected(D)) = <adjoint(X), D>; ``value`` is the channel
    gain |h|^2 and its conjugate gradient is adjoint(conj(h)).  The blocks
    are consecutive runs of k ports, so the per-block links are reshapes of
    the links and no N x N matrix is formed.  R_g is held with the rows of
    all P snapshots stacked, (G, P L, k), so ``reflected`` makes one
    product per block.  With no ``structure`` the maps
    are on one N x N block, the (1, N, N) stack ``whole_block`` makes of a
    matrix, and every product is the whole-matrix one.
    ``channels`` is a ``ChannelStack`` or what ``ChannelStack`` takes; a
    ``structure`` that does not cover its N ports raises DimensionMismatch.
    ``compressed`` gives the same channels on blocks no larger than the
    links' span.
    """

    def __init__(self, channels, structure: BlockStructure | None = None):
        stack = channels if isinstance(channels, ChannelStack) else ChannelStack(channels)
        structure = structure or BlockStructure((stack.num_elements,))
        if structure.dimension != stack.num_elements:
            raise DimensionMismatch(
                f"block structure covers {structure.dimension} ports, the channels {stack.num_elements}"
            )
        p, l, _ = stack.ris_device.shape
        g, k, _ = structure.shape
        device = stack.ris_device.reshape(p, l, g, k).transpose(2, 0, 1, 3).reshape(g, p * l, k)
        bs_dag = np.conj(stack.bs_ris.reshape(p, g, k, -1)).swapaxes(-1, -2)
        self._hold(stack.direct, device, bs_dag, structure)

    def _hold(self, direct, device, bs_dag, structure: BlockStructure) -> None:
        """Keep the per-block links R_g, P L rows each (G, P L, k), and B_g† (P, G, M, k); conj(B) and R^T whole."""
        self.structure = structure
        self.direct = direct
        self.device = np.ascontiguousarray(device)
        self.bs_dag = np.ascontiguousarray(bs_dag)
        p, g, m, k = self.bs_dag.shape
        self.bs = np.ascontiguousarray(self.bs_dag.swapaxes(-1, -2).reshape(p, g * k, m))  # conj(B), (P, N, M)
        per_snapshot = self.device.reshape(g, p, -1, k).transpose(1, 0, 3, 2)  # R_g^T, (P, G, k, L)
        self.device_t = np.ascontiguousarray(per_snapshot.reshape(p, g * k, -1))  # (P, N, L)

    def compressed(self):
        """The same channels on (G, t, t) blocks and the map back, or None when no block is larger than t.

        Block g reaches the channels only through conj(R_g) Theta_g B_g.  Let
        Q_R hold the first t columns of a complete QR basis of the stacked
        R_g^T (k x P L) and Q_B those of the stacked B_g (k x P M), with
        t = P max(L, M); so they span the links whatever their rank, and no
        tolerance enters.  Then conj(R_g) Theta_g B_g = conj(R_g) Q_R X_g
        Q_B† B_g with X_g = Q_R† Theta_g Q_B: the channels at Theta are those
        of the (G, t, t) problem with links R_g conj(Q_R) and Q_B† B_g at X.
        ``dilate`` maps a (G, t, t) stack X to the (G, k, k) stack
        Q_R X Q_B† + Q_R⊥ Q_B⊥†, which has X's channels and is unitary
        per block when X is.  Every t x t unitary is reached that way, and
        the gain is convex in X, so its maximum over k x k unitary blocks is
        its maximum over t x t ones; the gain's Riemannian gradient norm at
        dilate(X) equals the reduced one at X.
        Returns None when k <= t: the caller solves at full size.
        """
        p, g, m, k = self.bs_dag.shape
        t = p * max(self.direct.shape[1], m)
        if t >= k:
            return None
        # the stacked R_g^T and B_g of each block, (G, k, P L) and (G, k, P M)
        left = np.linalg.qr(self.device.swapaxes(-1, -2), mode="complete")[0]
        right = np.linalg.qr(np.conj(self.bs_dag).transpose(1, 3, 0, 2).reshape(g, k, -1), mode="complete")[0]
        rest = left[..., t:] @ right[..., t:].conj().swapaxes(-1, -2)
        left, right = left[..., :t], right[..., :t]
        right_dag = right.conj().swapaxes(-1, -2)
        reduced = object.__new__(CascadedChannels)
        reduced._hold(self.direct, self.device @ np.conj(left), self.bs_dag @ right, BlockStructure((t,) * g))

        def dilate(x: np.ndarray) -> np.ndarray:
            return rest + left @ x @ right_dag

        return reduced, dilate

    def whole_block(self, theta) -> np.ndarray:
        """An N x N ``theta`` as the (1, N, N) stack of the whole-matrix maps.

        DimensionMismatch for another shape, InvalidInput for a NaN or infinite entry.
        """
        n = self.structure.dimension
        t = np.ascontiguousarray(theta, dtype=complex)
        if t.shape != (n, n):
            raise DimensionMismatch(f"theta shape {t.shape} != ({n}, {n})")
        if not np.isfinite(t.view(float)).all():
            raise InvalidInput("theta has non-finite entries")
        return t[None]

    def reflected(self, theta: np.ndarray) -> np.ndarray:
        """The surface's share of the channels as rows, (P, L, M), at the (G, k, k) stack ``theta``."""
        p, l = self.direct.shape[:2]
        g, _, k = self.device.shape
        scaled = self.device @ np.conj(theta)  # one product per block, (G, P L, k)
        return scaled.reshape(g, p, l, k).transpose(1, 2, 0, 3).reshape(p, l, -1) @ self.bs

    def adjoint(self, rows: np.ndarray) -> np.ndarray:
        """The (G, k, k) stack of blocks sum_p R_g^T rows_p B_g† of (P, L, M) rows."""
        p, g, m, k = self.bs_dag.shape
        left = (self.device_t @ rows).reshape(p, g, k, m)
        return np.sum(left @ self.bs_dag, axis=0)

    def channels(self, theta: np.ndarray) -> np.ndarray:
        """Effective channels as rows, (P, L, M)."""
        return self.direct + self.reflected(theta)

    def value(self, theta: np.ndarray) -> float:
        return float(np.sum(np.abs(self.channels(theta)) ** 2))

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        h = self.channels(theta)
        return float(np.sum(np.abs(h) ** 2)), self.adjoint(np.conj(h))


def effective_channel_matrix(channels: ChannelRealization | ChannelStack, theta) -> np.ndarray:
    """Effective channels h_l = a_l + C†Θ†b_l as rows: (L, M) for a realization, (P, L, M) for a stack of P."""
    whole = CascadedChannels(channels)
    h = whole.channels(whole.whole_block(theta))
    return h[0] if isinstance(channels, ChannelRealization) else h


def path_loss_db(distance_m: float, exponent: float, model: PathLossModel = PathLossModel()) -> float:
    """Log-distance path loss in dB (a negative gain)."""
    if not (math.isfinite(distance_m) and math.isfinite(exponent)):
        raise InvalidInput(f"distance and exponent must be finite, got {distance_m!r} and {exponent!r}")
    if distance_m < model.reference_distance_m:
        raise BelowReferenceDistance(
            f"distance {distance_m:.3f} m < reference {model.reference_distance_m:.3f} m"
        )
    return model.reference_loss_db - 10.0 * exponent * math.log10(
        distance_m / model.reference_distance_m
    )


def path_loss_linear(distance_m: float, exponent: float, model: PathLossModel = PathLossModel()) -> float:
    return 10.0 ** (path_loss_db(distance_m, exponent, model) / 10.0)


def sample_fading(rows: int, cols: int, rician_k_db: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-average-power fading block.

    sqrt(K/(K+1)) * LoS phase + sqrt(1/(K+1)) * CN(0,1); K = -inf dB is pure
    Rayleigh, K = +inf dB is a deterministic-magnitude LoS draw.
    """
    check_integers(rows=rows, cols=cols)
    if rows < 1 or cols < 1:
        raise InvalidInput("fading block must have positive shape")
    if math.isnan(rician_k_db):
        raise InvalidInput("rician_k_db must not be NaN")
    if rician_k_db == -math.inf:
        return (
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        ) / np.sqrt(2.0)
    los = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (rows, cols)))
    if rician_k_db == math.inf:
        return los
    k = 10.0 ** (rician_k_db / 10.0)
    nlos = (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)
    return np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * nlos


def _device_point(device: Device) -> np.ndarray:
    return np.array([device.position[0], device.position[1], 0.0])


def generate_realization(
    geometry: NetworkGeometry,
    devices: list[Device],
    pathloss: PathLossModel,
    fading: FadingModel,
    num_elements: int,
    rng: np.random.Generator,
    num_bs_antennas: int = 4,
    tx_snr_db: float = 18.0,
) -> ChannelRealization:
    """Draw one channel snapshot for the given device positions.

    Each link is sqrt(linear path loss) times a unit-power fading draw; the
    per-device links flip an independent LoS coin per link.  Draw order is
    fixed (per device: BS coin, BS fading, RIS coin, RIS fading; then the
    backbone), so a given generator state maps to exactly one realization.
    """
    check_counts(num_elements=num_elements, num_bs_antennas=num_bs_antennas)
    if not devices:
        raise InvalidInput("need at least one device")
    m, n = num_bs_antennas, num_elements
    direct = np.zeros((len(devices), m), dtype=complex)
    ris_device = np.zeros((len(devices), n), dtype=complex)
    for idx, device in enumerate(devices):
        if not geometry.device_area.contains(device.position):
            raise InvalidInput(f"device {idx} is outside the movement area")
        point = _device_point(device)
        d_bs = float(np.linalg.norm(point - geometry.bs_position))
        d_ris = float(np.linalg.norm(point - geometry.ris_position))
        for target, dist, exponent, cols in (
            (direct, d_bs, pathloss.exponent_device_bs, m),
            (ris_device, d_ris, pathloss.exponent_device_ris, n),
        ):
            gain = path_loss_linear(dist, exponent, pathloss)
            k_db = (
                fading.device_links_rician_k_db
                if rng.uniform() < fading.los_probability
                else -math.inf
            )
            target[idx] = np.sqrt(gain) * sample_fading(1, cols, k_db, rng)[0]
    backbone_gain = path_loss_linear(geometry.bs_ris_distance_m, pathloss.exponent_bs_ris, pathloss)
    bs_ris = np.sqrt(backbone_gain) * sample_fading(n, m, fading.bs_ris_rician_k_db, rng)
    return ChannelRealization(direct, ris_device, bs_ris, tx_snr_db)


def random_waypoint_step(
    device: Device,
    dt_s: float,
    area: Rectangle,
    speed_range: tuple[float, float],
    rng: np.random.Generator,
) -> Device:
    """Advance one time step of the random-waypoint model (zero pause time).

    The device heads straight for its waypoint; on arrival within one step it
    lands there and draws a fresh uniform waypoint and speed from
    ``speed_range``, which must be finite with 0 <= min <= max.
    """
    if not (math.isfinite(dt_s) and dt_s > 0):
        raise InvalidInput(f"dt must be finite and positive, got {dt_s!r}")
    _require_speed_range(speed_range)
    to_target = device.waypoint - device.position
    dist = float(np.linalg.norm(to_target))
    travel = device.speed_mps * dt_s
    if travel >= dist:
        new_waypoint = area.sample(rng)
        new_speed = float(rng.uniform(speed_range[0], speed_range[1]))
        return Device(device.waypoint.copy(), new_waypoint, new_speed)
    new_pos = device.position + (travel / dist) * to_target
    new_pos[0] = min(max(new_pos[0], area.x_min), area.x_max)
    new_pos[1] = min(max(new_pos[1], area.y_min), area.y_max)
    return replace(device, position=new_pos)


def initial_devices(
    count: int,
    area: Rectangle,
    speed_range: tuple[float, float],
    rng: np.random.Generator,
) -> list[Device]:
    """Uniform starting positions, waypoints and speeds."""
    check_integers(count=count)
    if count < 1:
        raise InvalidInput("need at least one device")
    _require_speed_range(speed_range)
    return [
        Device(area.sample(rng), area.sample(rng), float(rng.uniform(*speed_range)))
        for _ in range(count)
    ]


def mobility_snapshots(
    devices: list[Device],
    area: Rectangle,
    speed_range: tuple[float, float],
    dt_s: float,
    steps_per_snapshot: int,
    num_snapshots: int,
    rng: np.random.Generator,
) -> list[list[Device]]:
    """Device positions sampled along a shared random-waypoint run.

    The first snapshot is the initial state; each further snapshot is taken
    after ``steps_per_snapshot`` steps of ``dt_s`` seconds.
    """
    check_integers(steps_per_snapshot=steps_per_snapshot)
    check_counts(num_snapshots=num_snapshots)
    snapshots = [list(devices)]
    current = list(devices)
    for _ in range(num_snapshots - 1):
        for _ in range(steps_per_snapshot):
            current = [
                random_waypoint_step(d, dt_s, area, speed_range, rng) for d in current
            ]
        snapshots.append(current)
    return snapshots


@dataclass(frozen=True)
class ScenarioConfig:
    """Case-study bundle: geometry, propagation, mobility and system scalars.

    The fading default switches the device links to Rician K = 10 dB when
    the LoS coin lands heads, the mix used throughout the experiments;
    ``FadingModel()`` on its own defaults to pure Rayleigh device links.
    The rates read ``tx_snr_db`` only; ``noise_power_dbm + tx_snr_db`` is
    the transmit power of the power comparison.
    """

    geometry: NetworkGeometry = field(default_factory=NetworkGeometry)
    pathloss: PathLossModel = field(default_factory=PathLossModel)
    fading: FadingModel = field(
        default_factory=lambda: FadingModel(device_links_rician_k_db=10.0)
    )
    num_devices: int = 4
    num_bs_antennas: int = 4
    noise_power_dbm: float = -80.0
    tx_snr_db: float = 18.0
    speed_min_mps: float = 0.5
    speed_max_mps: float = 2.0
    dt_s: float = 0.1
    snapshots: int = 10
    steps_per_snapshot: int = 10

    def __post_init__(self):
        check_counts(num_devices=self.num_devices, num_bs_antennas=self.num_bs_antennas,
                     snapshots=self.snapshots, steps_per_snapshot=self.steps_per_snapshot)
        _require_finite(self, "noise_power_dbm", "tx_snr_db", "speed_max_mps", "dt_s")
        _require_speed_range((self.speed_min_mps, self.speed_max_mps))
        if self.dt_s <= 0:
            raise InvalidInput("dt_s must be positive")
        area, reference = self.geometry.device_area, self.pathloss.reference_distance_m
        for name, site in (("BS", self.geometry.bs_position), ("RIS", self.geometry.ris_position)):
            nearest = np.clip(site[:2], (area.x_min, area.y_min), (area.x_max, area.y_max))
            gap = math.hypot(*(site[:2] - nearest), site[2])
            if gap < reference:
                raise InvalidInput(f"device area comes within {gap:.3f} m of the {name}, inside "
                                   f"the {reference:.3f} m path-loss reference distance")


def scenario_realizations(
    scenario: ScenarioConfig, num_elements: int, rng: np.random.Generator
) -> list[ChannelRealization]:
    """One mobility trial: a channel realization per location snapshot."""
    speed_range = (scenario.speed_min_mps, scenario.speed_max_mps)
    devices = initial_devices(scenario.num_devices, scenario.geometry.device_area, speed_range, rng)
    snapshots = mobility_snapshots(
        devices,
        scenario.geometry.device_area,
        speed_range,
        scenario.dt_s,
        scenario.steps_per_snapshot,
        scenario.snapshots,
        rng,
    )
    return [
        generate_realization(
            scenario.geometry,
            snapshot,
            scenario.pathloss,
            scenario.fading,
            num_elements,
            rng,
            num_bs_antennas=scenario.num_bs_antennas,
            tx_snr_db=scenario.tx_snr_db,
        )
        for snapshot in snapshots
    ]
