"""Design algorithms for the surface configuration matrix.

Four optimizers over the unitary (or block-unitary) feasible set:

* ``rzf_one_shot`` -- one-shot Procrustes alignment of the direct-path cross
  term, the cheapest baseline.
* ``ao_manifold`` -- Riemannian gradient ascent with Armijo backtracking and
  polar retraction, maximizing total channel gain.
* ``qnm_manifold`` -- limited-memory quasi-Newton ascent; curvature pairs are
  carried between iterates by tangent projection, and the whole memory is
  re-transported every step, which is what makes it expensive at large N.
* ``fp_sum_rate`` -- fractional programming on the downlink sum rate:
  closed-form SINR and quadratic-transform auxiliaries alternate with
  guarded precoder refreshes and projected conjugate-gradient maximization
  of the concave surrogate in the surface matrix.

RZF/AO/QNM maximize the channel-gain objective and are judged by the sum
rate afterwards; FP maximizes the sum rate directly.  All optimizers keep
every iterate feasible for the requested architecture and report a monotone
objective trace.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .architectures import ArchitectureKind, BdRisArchitecture, effective_channel_matrix
from .channel import ChannelRealization, ScenarioConfig, scenario_realizations
from .errors import DimensionMismatch, InvalidInput, RankDeficient, RankDeficientWarning
from .manifold import BlockStructure, polar_factor, skew_part
from .seeding import derive_seed, derived_rng

LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 500
    objective_tolerance: float = 1e-6  # relative change of the objective
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0
    lbfgs_memory: int = 10
    fp_inner_theta_steps: int = 20
    stationarity_tolerance: float = 1e-4
    max_backtracks: int = 50
    seed: int = 0

    def __post_init__(self):
        if min(self.max_iterations, self.lbfgs_memory, self.fp_inner_theta_steps, self.max_backtracks) < 1:
            raise InvalidInput("iteration counts must be positive")
        if min(self.objective_tolerance, self.armijo_c, self.initial_step, self.stationarity_tolerance) <= 0:
            raise InvalidInput("tolerances and the initial step must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise InvalidInput("backtrack_factor must lie in (0, 1)")


@dataclass
class OptimizerResult:
    theta: np.ndarray
    objective_trace: list[float]
    wall_time_s: float
    iterations: int
    converged: bool


def _as_list(realizations) -> list[ChannelRealization]:
    if isinstance(realizations, ChannelRealization):
        return [realizations]
    reals = list(realizations)
    if not reals:
        raise InvalidInput("need at least one channel realization")
    shape = (reals[0].num_elements, reals[0].num_bs_antennas)
    for r in reals:
        if (r.num_elements, r.num_bs_antennas) != shape:
            raise DimensionMismatch("realizations disagree on (N, M)")
    return reals


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """Real part of the Frobenius inner product (the manifold metric)."""
    return float(np.real(np.sum(np.conj(x) * y)))


def _tangent(theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """theta * skew(theta† grad) for a matrix or a (G, k, k) stack of blocks."""
    return theta @ skew_part(theta.conj().swapaxes(-1, -2) @ grad)


class _Feasible:
    """Projection / tangent machinery for one architecture at dimension N.

    Block architectures work on the (G, k, k) block stacks of
    ``BlockStructure.gather``, one batched call per block size; the
    fully-connected set (``structure`` None) is the single N x N block.
    """

    def __init__(self, arch: BdRisArchitecture, n: int):
        if arch.kind is ArchitectureKind.FULLY_CONNECTED:
            self.structure = None
        elif arch.kind is ArchitectureKind.DIAGONAL:
            self.structure = BlockStructure((1,) * n)
        elif arch.kind is ArchitectureKind.GROUP_CONNECTED:
            if arch.structure.dimension != n:
                raise DimensionMismatch("block structure does not fit the element count")
            self.structure = arch.structure
        else:
            raise InvalidInput(f"no optimizer support for {arch.kind.value}")
        self.n = n

    def _blockwise(self, fn, *matrices: np.ndarray) -> np.ndarray:
        if self.structure is None:
            return fn(*matrices)
        return self.structure.map_blocks(fn, *matrices)

    def project(self, m: np.ndarray) -> np.ndarray:
        return self._blockwise(polar_factor, m)

    def tangent(self, grad: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return self._blockwise(_tangent, theta, grad)

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        # the polar factor of a complex Gaussian matrix is Haar distributed;
        # per block this yields independent Haar blocks
        z = (rng.standard_normal((self.n, self.n)) + 1j * rng.standard_normal((self.n, self.n))) / np.sqrt(2.0)
        return self.project(z)


class _Stacked:
    """Realization list flattened to (P, ...) arrays for batched linear algebra."""

    def __init__(self, realizations):
        reals = _as_list(realizations)
        self.direct = np.stack([r.direct for r in reals])          # (P, L, M)
        self.ris_device = np.stack([r.ris_device for r in reals])  # (P, L, N)
        self.bs_ris = np.stack([r.bs_ris for r in reals])          # (P, N, M)
        self.bs_ris_conj = np.conj(self.bs_ris)
        self.ris_device_t = self.ris_device.transpose(0, 2, 1).copy()
        self.bs_ris_dag = self.bs_ris_conj.transpose(0, 2, 1).copy()
        self.count = len(reals)
        self.num_devices = reals[0].num_devices
        self.n = reals[0].num_elements
        self.tx_snr_db = reals[0].tx_snr_db

    def effective(self, theta: np.ndarray) -> np.ndarray:
        """Effective channel rows for all snapshots: (P, L, M)."""
        return self.direct + (self.ris_device @ np.conj(theta)) @ self.bs_ris_conj


class _GainProblem:
    """Channel-gain objective summed over devices and snapshots, plus gradient."""

    def __init__(self, realizations):
        self.stack = _Stacked(realizations)
        self.n = self.stack.n

    def value(self, theta: np.ndarray) -> float:
        h = self.stack.effective(theta)
        return float(np.sum(np.abs(h) ** 2))

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        h = self.stack.effective(theta)
        grad = np.sum(self.stack.ris_device_t @ np.conj(h) @ self.stack.bs_ris_dag, axis=0)
        return float(np.sum(np.abs(h) ** 2)), grad


def euclidean_gradient(theta: np.ndarray, realizations) -> np.ndarray:
    """Conjugate gradient of the channel-gain objective.

    With G the returned matrix the objective changes as
    df = 2 Re tr(G† dTheta); the manifold ascent direction is the tangent
    projection of G.
    """
    theta = np.asarray(theta, dtype=complex)
    problem = _GainProblem(realizations)
    if theta.shape != (problem.n, problem.n):
        raise DimensionMismatch(f"theta shape {theta.shape} != ({problem.n}, {problem.n})")
    return problem.value_and_grad(theta)[1]


def _finish(theta, trace, start, iterations, converged) -> OptimizerResult:
    return OptimizerResult(
        theta=theta,
        objective_trace=trace,
        wall_time_s=time.perf_counter() - start,
        iterations=iterations,
        converged=converged,
    )


def _align_cross_term(reals, feas: _Feasible, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """Feasible matrix maximizing Re tr(Theta† C) for the direct-path cross term.

    C sums b a† C† over devices and snapshots; per block the maximizer is
    the SVD factor UV†.  Zero singular directions do not affect the maximum,
    so partial rank deficiency keeps the SVD factor; only a fully degenerate
    block falls back to a Haar sample, drawn from ``rng`` in block order
    (second return flags any fallback).
    """
    cross = np.zeros((feas.n, feas.n), dtype=complex)
    for r in reals:
        cross += r.ris_device.T @ np.conj(r.direct) @ r.bs_ris.conj().T
    gather = (feas.structure or BlockStructure((feas.n,))).gather
    factors, degenerate = [], []
    for j, g in enumerate(gather):
        u, s, vh = np.linalg.svd(cross[g.rows, g.cols])
        factors.append(u @ vh)
        degenerate += [(g.block_ids[i], j, i) for i in np.flatnonzero(np.max(s, axis=-1) <= 1e-300)]
    for _, j, i in sorted(degenerate):
        k = factors[j].shape[-1]
        z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
        factors[j][i] = polar_factor(z)
    theta = np.zeros_like(cross)
    for g, f in zip(gather, factors):
        theta[g.rows, g.cols] = f
    return theta, bool(degenerate)


def rzf_one_shot(
    realizations,
    arch: BdRisArchitecture = BdRisArchitecture.fully_connected(),
    cfg: OptimizerConfig = OptimizerConfig(),
) -> OptimizerResult:
    """One-shot alignment of the direct-path cross term.

    Builds the cross matrix sum over devices and snapshots of b a† C† and
    returns the feasible matrix maximizing Re tr(Theta† M): the per-block
    SVD factor.  Falls back to a random feasible point with a warning when
    the cross matrix is degenerate (no direct paths at all).
    """
    start = time.perf_counter()
    reals = _as_list(realizations)
    problem = _GainProblem(reals)
    feas = _Feasible(arch, problem.n)
    theta, fell_back = _align_cross_term(reals, feas, np.random.default_rng(cfg.seed))
    if fell_back:
        warnings.warn(
            "cross matrix is rank deficient; fell back to a random feasible point",
            RankDeficientWarning,
            stacklevel=2,
        )
    return _finish(theta, [problem.value(theta)], start, 1, True)


def _armijo_search(feas, value_fn, theta, direction, slope, f_current, step0, cfg):
    """Backtracking search for sufficient increase along a tangent direction.

    Failed steps shrink by parabolic interpolation through (0, f), f'(0) and
    the rejected point, clamped into [0.1 s, backtrack_factor * s].  Returns
    (new_theta, new_value, accepted_step), or (None, None, None) when every
    backtrack fails (a stall).
    """
    s = step0
    for _ in range(cfg.max_backtracks):
        try:
            candidate = feas.project(theta + s * direction)
        except RankDeficient:
            s *= cfg.backtrack_factor
            continue
        f_new = value_fn(candidate)
        if f_new >= f_current + cfg.armijo_c * s * slope:
            return candidate, f_new, s
        denom = 2.0 * (f_current + s * slope - f_new)
        s_fit = s * s * slope / denom if denom > 0 else cfg.backtrack_factor * s
        s = min(max(s_fit, 0.1 * s), cfg.backtrack_factor * s)
    return None, None, None


def ao_manifold(
    realizations,
    arch: BdRisArchitecture = BdRisArchitecture.fully_connected(),
    cfg: OptimizerConfig = OptimizerConfig(),
    iterate_callback=None,
    initial_theta=None,
) -> OptimizerResult:
    """Riemannian gradient ascent on the channel-gain objective.

    Steps along the Riemannian gradient with polar (per-block) retraction;
    the trial step uses the Barzilai-Borwein curvature estimate from the
    last accepted move and an Armijo backtracking safeguard, so the trace is
    monotone.  Stops on a two-iteration objective plateau, a line-search
    stall, or the iteration cap; ``converged`` reports whether the final
    gradient passed the stationarity test.
    """
    start = time.perf_counter()
    problem = _GainProblem(realizations)
    feas = _Feasible(arch, problem.n)
    if initial_theta is None:
        theta = feas.random_point(np.random.default_rng(cfg.seed))
    else:
        theta = feas.project(np.asarray(initial_theta, dtype=complex))
    if iterate_callback:
        iterate_callback(theta)
    f, grad = problem.value_and_grad(theta)
    trace = [f]
    converged = False
    iterations = 0
    prev_move = None  # (delta_theta, riem_old) of the last accepted step
    step = None
    flat_streak = 0  # a single small change may be a bad step, two in a row is a plateau
    for iterations in range(1, cfg.max_iterations + 1):
        riem = feas.tangent(grad, theta)
        gnorm = float(np.sqrt(_inner(riem, riem)))
        if gnorm <= 1e-12 * max(abs(f), 1e-300):  # numerically stationary
            converged = True
            break
        if prev_move is not None:
            delta_theta, riem_old = prev_move
            denom = -_inner(delta_theta, riem - riem_old)
            ss = _inner(delta_theta, delta_theta)
            step = ss / denom if denom > 0 else (2.0 * step if step else None)
        if step is None:
            step = cfg.initial_step / max(gnorm, 1e-300)
        step = min(step, 2.0 * np.sqrt(problem.n) / gnorm)
        slope = 2.0 * gnorm * gnorm  # df/ds along the unnormalized gradient
        theta_new, f_new, s = _armijo_search(
            feas, problem.value, theta, riem, slope, f, step, cfg
        )
        if theta_new is None:  # stall: the step is effectively zero
            converged = gnorm <= cfg.stationarity_tolerance * max(abs(f), 1e-300)
            break
        prev_move = (theta_new - theta, riem)
        theta = theta_new
        step = s
        if iterate_callback:
            iterate_callback(theta)
        rel_change = abs(f_new - f) / max(abs(f), 1e-300)
        f, grad = problem.value_and_grad(theta)
        trace.append(f)
        flat_streak = flat_streak + 1 if rel_change < cfg.objective_tolerance else 0
        if flat_streak >= 2:
            resid = feas.tangent(grad, theta)
            converged = (
                float(np.sqrt(_inner(resid, resid)))
                <= cfg.stationarity_tolerance * max(abs(f), 1e-300)
            )
            break
    return _finish(theta, trace, start, iterations, converged)


def _two_loop(gradient, memory, scale):
    q = gradient.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * _inner(s, q)
        alphas.append(a)
        q -= a * y
    q *= scale
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * _inner(y, q)
        q += (a - b) * s
    return q


def qnm_manifold(
    realizations,
    arch: BdRisArchitecture = BdRisArchitecture.fully_connected(),
    cfg: OptimizerConfig = OptimizerConfig(),
    iterate_callback=None,
    initial_theta=None,
) -> OptimizerResult:
    """Limited-memory quasi-Newton ascent on the channel-gain objective.

    Internally a textbook two-loop recursion on the negated objective, with
    curvature pairs living in the tangent space.  After every accepted step
    the whole memory is transported to the new tangent space by projection,
    the extra per-iteration cost that dominates at large N.  Falls back to
    steepest ascent whenever the quasi-Newton direction fails the ascent
    test; shares the Armijo safeguard and stopping rules with ``ao_manifold``.
    """
    start = time.perf_counter()
    problem = _GainProblem(realizations)
    feas = _Feasible(arch, problem.n)
    if initial_theta is None:
        theta = feas.random_point(np.random.default_rng(cfg.seed))
    else:
        theta = feas.project(np.asarray(initial_theta, dtype=complex))
    if iterate_callback:
        iterate_callback(theta)
    f, grad = problem.value_and_grad(theta)
    trace = [f]
    memory: list[tuple[np.ndarray, np.ndarray, float]] = []
    converged = False
    iterations = 0
    fallback_step = cfg.initial_step
    step_cap = 2.0 * np.sqrt(problem.n)
    flat_streak = 0
    for iterations in range(1, cfg.max_iterations + 1):
        riem = feas.tangent(grad, theta)
        gnorm = float(np.sqrt(_inner(riem, riem)))
        if gnorm <= 1e-12 * max(abs(f), 1e-300):  # numerically stationary
            converged = True
            break
        used_fallback = True
        direction = riem / gnorm
        step0 = fallback_step
        if memory:
            s_last, y_last, _ = memory[-1]
            scale = _inner(s_last, y_last) / max(_inner(y_last, y_last), 1e-300)
            candidate = -_two_loop(-riem, memory, scale)
            if _inner(candidate, riem) > 0.0:  # ascent direction for f
                direction = candidate
                step0 = 1.0
                used_fallback = False
        slope = 2.0 * _inner(riem, direction)
        theta_new, f_new, s = _armijo_search(
            feas, problem.value, theta, direction, slope, f, step0, cfg
        )
        if theta_new is None:
            converged = gnorm <= cfg.stationarity_tolerance * max(abs(f), 1e-300)
            break
        if iterate_callback:
            iterate_callback(theta_new)
        rel_change = abs(f_new - f) / max(abs(f), 1e-300)
        f, grad = problem.value_and_grad(theta_new)
        trace.append(f)
        if used_fallback:
            fallback_step = min(max(2.0 * s, 1e-12), step_cap)
        # transport the memory into the new tangent space, refresh curvatures
        transported = []
        for s_i, y_i, _ in memory:
            s_t = feas.tangent(s_i, theta_new)
            y_t = feas.tangent(y_i, theta_new)
            sy = _inner(s_t, y_t)
            if sy > 1e-300:
                transported.append((s_t, y_t, 1.0 / sy))
        memory = transported
        riem_new = feas.tangent(grad, theta_new)
        s_vec = feas.tangent(s * direction, theta_new)
        y_vec = feas.tangent(riem, theta_new) - riem_new  # negated-objective gap
        sy = _inner(s_vec, y_vec)
        s_norm = float(np.sqrt(_inner(s_vec, s_vec)))
        y_norm = float(np.sqrt(_inner(y_vec, y_vec)))
        if sy > 1e-12 * s_norm * y_norm:
            memory.append((s_vec, y_vec, 1.0 / sy))
            if len(memory) > cfg.lbfgs_memory:
                memory.pop(0)
        theta = theta_new
        flat_streak = flat_streak + 1 if rel_change < cfg.objective_tolerance else 0
        if flat_streak >= 2:
            converged = (
                float(np.sqrt(_inner(riem_new, riem_new)))
                <= cfg.stationarity_tolerance * max(abs(f), 1e-300)
            )
            break
    return _finish(theta, trace, start, iterations, converged)


def _rzf_precoder(h_matrix: np.ndarray, rho: float) -> np.ndarray:
    """Regularized zero-forcing precoder, one column per device, unit total power."""
    h_cols = h_matrix.T  # (M, L): column l is the channel of device l
    l = h_cols.shape[1]
    gram = h_cols.conj().T @ h_cols + (l / rho) * np.eye(l)
    w = h_cols @ np.linalg.inv(gram)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        return w
    return w / norm


def _rzf_precoder_batch(h_stack: np.ndarray, rho: float) -> np.ndarray:
    """RZF precoders for all snapshots at once: (P, M, L)."""
    h_cols = h_stack.transpose(0, 2, 1)  # (P, M, L)
    l = h_cols.shape[2]
    gram = h_cols.conj().transpose(0, 2, 1) @ h_cols + (l / rho) * np.eye(l)
    w = h_cols @ np.linalg.inv(gram)
    norms = np.linalg.norm(w, axis=(1, 2), keepdims=True)
    return np.divide(w, norms, out=np.zeros_like(w), where=norms > 0)


def _cross_products(stack: "_Stacked", theta, w_stack) -> np.ndarray:
    """(P, L, L) matrices of h_l† w_j per snapshot."""
    return np.conj(stack.effective(theta)) @ w_stack


def _rates_from_cross(cross: np.ndarray, rho: float) -> float:
    diag = np.diagonal(cross, axis1=1, axis2=2)
    diag_power = np.abs(diag) ** 2
    signal = rho * diag_power
    interference = rho * (np.sum(np.abs(cross) ** 2, axis=2) - diag_power)
    per_snapshot = np.sum(np.log1p(signal / (interference + 1.0)), axis=1) / LOG2
    return float(np.mean(per_snapshot))


def _rates_given_precoders(stack: "_Stacked", theta, w_stack, rho) -> float:
    """Mean sum rate over snapshots with the precoders held fixed."""
    return _rates_from_cross(_cross_products(stack, theta, w_stack), rho)


def sum_rate(theta: np.ndarray, realization: ChannelRealization, tx_snr_db: float | None = None) -> float:
    """Downlink sum rate in bits/s/Hz under a freshly computed RZF precoder.

    SINR_l = rho |h_l† w_l|^2 / (rho sum_{j != l} |h_l† w_j|^2 + 1) with rho
    the linear transmit SNR and the precoder normalized to unit total power.
    """
    snr_db = realization.tx_snr_db if tx_snr_db is None else tx_snr_db
    rho = 10.0 ** (snr_db / 10.0)
    h = effective_channel_matrix(realization, theta)
    w = _rzf_precoder(h, rho)
    cross = (np.conj(h) @ w)[None, :, :]
    return _rates_from_cross(cross, rho)


def mean_sum_rate(theta, realizations, tx_snr_db: float | None = None) -> float:
    """Snapshot-averaged sum rate, each snapshot with its own RZF precoder."""
    reals = _as_list(realizations)
    return float(np.mean([sum_rate(theta, r, tx_snr_db) for r in reals]))


class _SumRateSurrogate:
    """Concave quadratic-transform surrogate of the sum rate at fixed auxiliaries.

    With the auxiliaries refreshed at the current point the surrogate equals
    the true (precoder-fixed) sum rate there and minorizes it everywhere
    else, which is what makes the outer trace monotone.
    """

    def __init__(self, stack: _Stacked, rho: float):
        self.stack = stack
        self.rho = rho
        self.sqrt_rho = float(np.sqrt(rho))
        self.gamma = None  # (P, L)
        self.y = None      # (P, L)
        self.const = None  # (P, L)

    def refresh(self, theta, w_stack):
        """Closed-form SINR (gamma) and quadratic-transform (y) auxiliaries."""
        cross = _cross_products(self.stack, theta, w_stack)
        diag = np.diagonal(cross, axis1=1, axis2=2)
        diag_power = np.abs(diag) ** 2
        row_power = np.sum(np.abs(cross) ** 2, axis=2)
        self.gamma = self.rho * diag_power / (self.rho * (row_power - diag_power) + 1.0)
        self.y = self.sqrt_rho * diag / (self.rho * row_power + 1.0)
        self.const = np.log1p(self.gamma) - self.gamma

    def value(self, theta, w_stack) -> float:
        cross = _cross_products(self.stack, theta, w_stack)
        diag = np.diagonal(cross, axis1=1, axis2=2)
        row_power = np.sum(np.abs(cross) ** 2, axis=2)
        lin = 2.0 * np.real(np.conj(self.y) * (self.sqrt_rho * diag))
        quad = np.abs(self.y) ** 2 * (self.rho * row_power + 1.0)
        total = float(np.sum(self.const + (1.0 + self.gamma) * (lin - quad)))
        return total / self.stack.count / LOG2

    def gradient(self, theta, w_stack) -> np.ndarray:
        cross = _cross_products(self.stack, theta, w_stack)
        w_rows = w_stack.conj().transpose(0, 2, 1)  # (P, L, M), row l is w_l†
        lin_rows = (self.sqrt_rho * (1.0 + self.gamma) * self.y)[:, :, None] * w_rows
        quad_rows = (self.rho * (1.0 + self.gamma) * np.abs(self.y) ** 2)[:, :, None] * (
            cross @ w_rows
        )
        grad = np.sum(self.stack.ris_device_t @ (lin_rows - quad_rows) @ self.stack.bs_ris_dag, axis=0)
        return grad / self.stack.count / LOG2

    def curvature_along(self, direction, w_stack) -> float:
        """Magnitude of the (negative) quadratic coefficient of g along a line.

        g(theta + s * direction) = g0 + slope * s - coef * s^2 exactly, since
        the surrogate is quadratic in the matrix; used for the optimal
        unconstrained step slope / (2 * coef).
        """
        dcross = (np.conj(self.stack.ris_device) @ direction) @ self.stack.bs_ris @ w_stack
        weights = (1.0 + self.gamma) * np.abs(self.y) ** 2
        coef = float(self.rho * np.sum(weights * np.sum(np.abs(dcross) ** 2, axis=2)))
        return coef / self.stack.count / LOG2


def _surrogate_cg(surrogate, w_stack, theta0, max_steps):
    """Unconstrained maximizer of the quadratic surrogate by conjugate gradients.

    The surrogate is an exactly quadratic concave function of the matrix, so
    Fletcher-Reeves with exact steps is plain linear CG.  Along directions of
    (numerically) zero curvature the maximum sits at infinity; since the
    later polar projection is scale invariant, a single long jump captures
    it.  Works in the ambient space; feasibility is restored by the caller.
    """
    x = theta0.astype(complex)
    g = surrogate.gradient(x, w_stack)
    gg = _inner(g, g)
    if gg <= 1e-300:
        return x
    d = g.copy()
    scale = float(np.linalg.norm(x)) + 1.0
    for _ in range(max_steps):
        coef = surrogate.curvature_along(d, w_stack)
        slope = 2.0 * _inner(g, d)
        if slope <= 0.0:
            break
        d_norm = float(np.linalg.norm(d))
        step_limit = 1e8 * scale / max(d_norm, 1e-300)
        step = slope / (2.0 * coef) if coef > 0.0 else step_limit
        step = min(step, step_limit)
        x = x + step * d
        if step >= step_limit:
            break
        g = surrogate.gradient(x, w_stack)
        gg_new = _inner(g, g)
        if gg_new <= 1e-24 * gg or gg_new <= 1e-300:
            break
        d = g + (gg_new / gg) * d
        gg = gg_new
    return x


def _surrogate_inner_update(surrogate, w_stack, theta, feas, g_start, cfg):
    """One feasible surrogate-ascent move: CG jump, projected, with damping.

    The projected full jump is tried first; if it regresses, the move toward
    the CG point is retried at geometrically shrinking step lengths (a trust
    region on the manifold scale).  With no improving length left the point
    is a fixed point of this outer stage and ``theta`` returns unchanged.
    """
    target = _surrogate_cg(surrogate, w_stack, theta, cfg.fp_inner_theta_steps)
    if not np.all(np.isfinite(target.view(float))):
        return theta, g_start
    delta = target - theta
    delta_norm = float(np.linalg.norm(delta))
    if delta_norm <= 1e-300:
        return theta, g_start
    scale = np.sqrt(feas.n)
    lengths = [delta_norm] + [c * scale for c in (2.0, 0.5, 0.1, 0.02) if c * scale < delta_norm]
    for length in lengths:
        try:
            candidate = feas.project(theta + (length / delta_norm) * delta)
        except RankDeficient:
            continue
        g_new = surrogate.value(candidate, w_stack)
        if g_new > g_start:
            return candidate, g_new
    return theta, g_start


def fp_sum_rate(
    realizations,
    arch: BdRisArchitecture = BdRisArchitecture.fully_connected(),
    cfg: OptimizerConfig = OptimizerConfig(),
    iterate_callback=None,
    initial_theta=None,
) -> OptimizerResult:
    """Fractional-programming ascent on the downlink sum rate.

    Starts from the one-shot cross-term alignment, then each outer iteration
    (i) refreshes the RZF precoders, keeping the old ones if the refresh
    would lower the rate, (ii) recomputes the closed-form SINR and
    quadratic-transform auxiliaries, at which point the surrogate touches
    the true precoder-fixed sum rate, and (iii) maximizes the concave
    quadratic surrogate: up to ``fp_inner_theta_steps`` conjugate-gradient
    steps followed by one feasibility projection, retried at shorter step
    lengths when the projection regresses.  Moves are only adopted when they
    do not lower the rate, so the recorded outer trace is non-decreasing.
    """
    start = time.perf_counter()
    reals = _as_list(realizations)
    stack = _Stacked(reals)
    rho = 10.0 ** (stack.tx_snr_db / 10.0)
    feas = _Feasible(arch, stack.n)
    if initial_theta is None:
        # warm start from the one-shot cross-term alignment: the alternation
        # is monotone from any start but random starts fall into noticeably
        # weaker fixed points at case-study SNR scales
        theta, _ = _align_cross_term(reals, feas, np.random.default_rng(cfg.seed))
    else:
        theta = feas.project(np.asarray(initial_theta, dtype=complex))
    if iterate_callback:
        iterate_callback(theta)
    surrogate = _SumRateSurrogate(stack, rho)
    precoders = _rzf_precoder_batch(stack.effective(theta), rho)
    rate = _rates_given_precoders(stack, theta, precoders, rho)
    trace = [rate]
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        rate_at_start = rate
        fresh = _rzf_precoder_batch(stack.effective(theta), rho)
        fresh_rate = _rates_given_precoders(stack, theta, fresh, rho)
        if fresh_rate >= rate:
            precoders, rate = fresh, fresh_rate
        surrogate.refresh(theta, precoders)
        g_start = surrogate.value(theta, precoders)
        candidate, _ = _surrogate_inner_update(surrogate, precoders, theta, feas, g_start, cfg)
        cand_rate = _rates_given_precoders(stack, candidate, precoders, rho)
        if cand_rate >= rate:
            theta = candidate
            rate = cand_rate
            if iterate_callback:
                iterate_callback(theta)
        trace.append(rate)
        # progress of the whole precoder/auxiliary/matrix cycle
        rel_change = (rate - rate_at_start) / max(abs(rate_at_start), 1e-300)
        if rel_change < cfg.objective_tolerance:
            converged = True
            break
    return _finish(theta, trace, start, iterations, converged)


ALGORITHMS = {
    "rzf": rzf_one_shot,
    "fp": fp_sum_rate,
    "ao": ao_manifold,
    "qnm": qnm_manifold,
}

BENCHMARK_COLUMNS = (
    "algorithm",
    "N",
    "trial",
    "sum_rate_bps_hz",
    "wall_time_s",
    "iterations",
    "converged",
)


def benchmark(
    algorithms,
    element_counts,
    trials: int,
    cfg: OptimizerConfig = OptimizerConfig(),
    scenario: ScenarioConfig | None = None,
    arch: BdRisArchitecture = BdRisArchitecture.fully_connected(),
    threads: int = 1,
) -> list[dict]:
    """Sweep (algorithm, element count) over mobility-driven channel trials.

    Every algorithm sees the same realizations at a given (N, trial), drawn
    from a child seed of ``cfg.seed``; initial points get their own child
    seed per algorithm, so rows are independent of scheduling and identical
    for any thread count (wall times excepted).  Wall time covers the
    optimizer call only; run single-threaded when timings must be
    comparable.  Rows carry the per-device mean rate alongside the
    aggregate.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise InvalidInput(f"unknown algorithms: {unknown}")
    scenario = scenario or ScenarioConfig()

    def run_cell(task):
        n, trial = task
        reals = scenario_realizations(
            scenario, n, derived_rng(cfg.seed, "bench-channel", n, trial)
        )
        cell = []
        for name in algorithms:
            run_cfg = replace(cfg, seed=derive_seed(cfg.seed, "bench-init", n, trial, name))
            result = ALGORITHMS[name](reals, arch, run_cfg)
            rate = mean_sum_rate(result.theta, reals)
            cell.append(
                {
                    "algorithm": name,
                    "N": n,
                    "trial": trial,
                    "sum_rate_bps_hz": rate,
                    "sum_rate_per_device_bps_hz": rate / reals[0].num_devices,
                    "wall_time_s": result.wall_time_s,
                    "iterations": result.iterations,
                    "converged": result.converged,
                }
            )
        return cell

    tasks = [(n, trial) for n in element_counts for trial in range(trials)]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(run_cell, tasks))
    else:
        cells = [run_cell(task) for task in tasks]
    return [row for cell in cells for row in cell]
