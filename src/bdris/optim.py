"""Design algorithms for the surface configuration matrix.

Four optimizers over the unitary (or block-unitary) feasible set:

* ``rzf_one_shot`` -- one-shot Procrustes alignment of the direct-path cross
  term, the cheapest baseline.
* ``ao_manifold`` -- Riemannian gradient ascent with Barzilai-Borwein trial
  steps, maximizing total channel gain.
* ``qnm_manifold`` -- limited-memory quasi-Newton ascent; curvature pairs are
  carried between iterates by tangent projection, and the whole memory is
  re-transported every step, which is what makes it expensive at a large
  block size (N, or t on a compressed surface, see below).
* ``fp_sum_rate`` -- fractional programming on the downlink sum rate:
  closed-form SINR and quadratic-transform auxiliaries alternate with
  guarded precoder refreshes and projected conjugate-gradient maximization
  of the concave surrogate in the surface matrix.

Every optimizer is a method run by one solve frame (``_solve``).  It
builds the channels on the surface's blocks (``channel.CascadedChannels``)
once and solves on their exact compression (``compressed``): the links
span at most t = P max(L, M) ports of a block, so a block of k > t ports
is solved as a t x t unitary and dilated back to k x k for
``iterate_callback`` and the returned ``theta``, the only N x N matrices
a solve forms (t = 40 at the case-study P = 10, L = M = 4).  The point is
the (G, k, k) stack of the blocks solved on (``BlockStructure.shape``)
from the first iterate to the return: AO and QNM start from Haar blocks
drawn from ``cfg.seed`` (``_random_blocks``), RZF and FP at the cross-term
alignment.  Projection is the per-block ``polar_factor``.  AO and QNM are
two direction rules on one line-search loop (``_ascend``) that holds
tangent vectors in body coordinates (``_tangent``: Omega with Theta Omega
the ambient vector), retracts in closed form (``_retract``: one batched
``eigh`` per step, one block product per trial) and transports by
projection.  RZF's objective is linear in the reduced point, and FP's
surrogate gradients and CG directions lie in the links' span, whose
complement the polar factor keeps, so all four solve the same problem.
``OptimizerResult.block_size`` records the block size a solve ran at.
RZF/AO/QNM maximize the channel-gain objective and are judged by the sum
rate afterwards; FP maximizes the sum rate directly.  All optimizers keep
every iterate feasible for the requested architecture and report a monotone
objective trace.  The line-search and stopping constants below are fixed;
``OptimizerConfig`` holds what a run may set.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .architectures import BdRisArchitecture
from .channel import CascadedChannels, ChannelStack, ScenarioConfig, effective_channel_matrix, scenario_realizations
from .errors import InvalidInput, RankDeficient, RankDeficientWarning, check_counts, check_integers
from .manifold import aligned_unitary, complex_gaussian, polar_factor, skew_part
from .seeding import derive_seed, derived_rng

LOG2 = float(np.log(2.0))
ARMIJO_C = 1e-4  # sufficient-increase fraction of the predicted gain
BACKTRACK_FACTOR = 0.5  # largest shrink of a rejected Armijo step
MAX_BACKTRACKS = 50  # rejected steps before the line search stalls
INITIAL_STEP = 1.0  # first trial step, in units of 1 / |Riemannian gradient|
STATIONARITY_TOLERANCE = 1e-4  # |Riemannian gradient| / |f| for `converged`
FP_INNER_THETA_STEPS = 20  # conjugate-gradient steps per FP surrogate maximization


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 500
    objective_tolerance: float = 1e-6  # relative change of the objective
    lbfgs_memory: int = 10
    seed: int = 0

    def __post_init__(self):
        check_counts(max_iterations=self.max_iterations, lbfgs_memory=self.lbfgs_memory)
        check_integers(seed=self.seed)
        if not (math.isfinite(self.objective_tolerance) and self.objective_tolerance > 0):
            raise InvalidInput("objective_tolerance must be finite and positive")
        if not 0 <= self.seed < 2**64:
            raise InvalidInput(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class OptimizerResult:
    """An optimizer's last iterate, objective trace and why it stopped.

    ``stop_reason`` is ``stationary`` (a numerically zero gradient),
    ``stalled`` (the line search found no increase), ``plateau`` (two small
    relative changes in a row for AO/QNM, one for FP), ``max_iterations``
    or, for RZF, ``closed_form``.
    ``converged`` is the separate stationarity verdict.
    ``block_size`` is the size k of the (G, k, k) blocks the solve ran on:
    the surface's own, or t on the compressed blocks.
    """

    theta: np.ndarray
    objective_trace: list[float]
    wall_time_s: float
    iterations: int
    converged: bool
    stop_reason: str
    block_size: int


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """Real part of the Frobenius inner product (the manifold metric)."""
    return float(np.vdot(x, y).real)


def _tangent(frame: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Body-coordinate tangent projection skew(frame† x), one product per block of a (G, k, k) stack.

    With ``frame`` a point Theta and ``x`` the Euclidean gradient this is
    the Riemannian gradient.  With ``frame`` the block rotation
    W = Theta_old† Theta_new of a step and ``x`` a body vector at
    Theta_old, it is the vector's transport by projection to Theta_new.
    """
    return skew_part(frame.conj().swapaxes(-1, -2) @ x)


def _times_adjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b† for a matrix or a (G, k, k) stack of blocks."""
    return a @ b.conj().swapaxes(-1, -2)


def _retract(theta: np.ndarray, omega: np.ndarray):
    """Closed-form polar retraction of the (G, k, k) stack ``theta`` along the body tangent ``omega``.

    With -i Omega = V diag(lam) V† per block, I + s Omega is never
    singular and polar(Theta + s Theta Omega) = Theta V diag(exp(i atan(s
    lam))) V† (Absil, Mahony & Sepulchre 2008, section 4.1.1).  One
    batched ``eigh`` here; returns ``step(s)``, the retracted stack at one
    block product, and ``rotation(s)``, the stack of block rotations
    W(s) = V diag(exp(i atan(s lam))) V† at one product more.
    """
    lam, v = np.linalg.eigh(-1j * omega)
    theta_v = theta @ v

    def rotated(left, s: float) -> np.ndarray:
        """left · diag(exp(i atan(s lam))) · V† per block."""
        return _times_adjoint(left * np.exp(1j * np.arctan(s * lam))[:, None, :], v)

    return (lambda s: rotated(theta_v, s)), (lambda s: rotated(v, s))


def _random_blocks(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Independent Haar blocks of a (G, k, k) stack (or one k x k block): the polar factor of a complex Gaussian draw."""
    return polar_factor(complex_gaussian(shape, rng))


def channel_gain_objective(theta, realizations) -> float:
    """Total squared effective-channel norm over devices and location snapshots."""
    whole = CascadedChannels(realizations)
    return whole.value(whole.whole_block(theta))


def euclidean_gradient(theta: np.ndarray, realizations) -> np.ndarray:
    """Conjugate gradient of the channel-gain objective.

    With G the returned matrix the objective changes as
    df = 2 Re tr(G† dTheta); the manifold ascent direction is the tangent
    projection of G.
    """
    whole = CascadedChannels(realizations)
    return whole.value_and_grad(whole.whole_block(theta))[1][0]


def _align_cross_term(problem: CascadedChannels, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """Feasible block stack maximizing Re tr(Theta† C) for the direct-path cross term.

    C's blocks sum b a† C† over devices and snapshots, taken by the block
    maps of ``problem``; the maximizer is their aligned unitary
    (``manifold.aligned_unitary``).  Only a fully degenerate block falls
    back to a Haar sample, drawn from ``rng`` in block order (second return
    flags any fallback).
    """
    theta, degenerate = aligned_unitary(problem.adjoint(np.conj(problem.direct)))
    for i in degenerate:
        theta[i] = _random_blocks(theta.shape[1:], rng)
    return theta, bool(len(degenerate))


def _solve(realizations, arch, cfg, iterate_callback, method) -> OptimizerResult:
    """Run ``method`` on the surface's blocks, or on their compression when there is one.

    ``method(problem, n, rho, cfg, report)`` gets the blocks to solve on,
    the surface's N, the linear transmit SNR and ``report(x)``, which hands
    ``iterate_callback`` the surface's N x N matrix at the stack x; it
    returns (theta, trace, iterations, converged, stop_reason) with theta
    on those blocks.
    """
    start = time.perf_counter()
    stack = ChannelStack(realizations)
    blocks = arch.unitary_blocks(stack.num_elements)
    problem = CascadedChannels(stack, blocks)
    unpack = blocks.unpack
    compressed = problem.compressed()
    if compressed is not None:
        problem, dilate = compressed

        def unpack(x):
            return blocks.unpack(dilate(x))

    def report(x):
        if iterate_callback:
            iterate_callback(unpack(x))

    rho = 10.0 ** (stack.tx_snr_db / 10.0)
    theta, trace, iterations, converged, reason = method(problem, stack.num_elements, rho, cfg, report)
    return OptimizerResult(
        unpack(theta), trace, time.perf_counter() - start, iterations, converged, reason, problem.structure.shape[1]
    )


def _align(problem, n, rho, cfg, report):
    """RZF on ``problem``'s blocks; a fallback's warning points at the caller of ``rzf_one_shot``."""
    theta, fell_back = _align_cross_term(problem, np.random.default_rng(cfg.seed))
    if fell_back:
        warnings.warn("cross matrix is rank deficient; fell back to a random feasible point", RankDeficientWarning,
                      stacklevel=4)
    return theta, [problem.value(theta)], 1, True, "closed_form"


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
    return _solve(realizations, arch, cfg, None, _align)


def _armijo_search(step_fn, value_fn, slope, f_current, step0):
    """Backtracking search for sufficient increase along a retraction curve.

    ``step_fn(s)`` is the retracted point at step length s.  Failed steps
    shrink by parabolic interpolation through (0, f), f'(0) and the rejected
    point, clamped into [0.1 s, BACKTRACK_FACTOR * s].  Returns (new_theta,
    new_value, accepted_step), or (None, None, None) when every backtrack
    fails (a stall).
    """
    s = step0
    for _ in range(MAX_BACKTRACKS):
        candidate = step_fn(s)
        f_new = value_fn(candidate)
        if f_new >= f_current + ARMIJO_C * s * slope:
            return candidate, f_new, s
        denom = 2.0 * (f_current + s * slope - f_new)
        s_fit = s * s * slope / denom if denom > 0 else BACKTRACK_FACTOR * s
        s = min(max(s_fit, 0.1 * s), BACKTRACK_FACTOR * s)
    return None, None, None


class _BarzilaiBorwein:
    """AO's rule: the Riemannian gradient, with the Barzilai-Borwein trial step.

    The step comes from the curvature of the last accepted move (doubled
    when that curvature is not positive) and is capped at 2 sqrt(N) / |g|.
    """

    def __init__(self, n: int, cfg: OptimizerConfig):
        self.cap = 2.0 * np.sqrt(n)
        self.step = None

    def propose(self, riem, gnorm):
        step = INITIAL_STEP / max(gnorm, 1e-300) if self.step is None else self.step
        # slope: df/ds along the unnormalized gradient
        return riem, 2.0 * gnorm * gnorm, min(step, self.cap / gnorm)

    def accepted(self, rotation, riem, riem_new, direction, s):
        # Premultiplied by Theta†, the move is W - I and the ambient gradient
        # change is W Omega_new - Omega_old.  <W - I, (W - I) Omega_new> is the
        # real part of tr(H Omega_new) with H Hermitian, which is zero, so the
        # product W Omega_new drops out of the curvature.
        delta = rotation - np.eye(rotation.shape[-1])
        denom = -_inner(delta, riem_new - riem)
        ss = _inner(delta, delta)
        self.step = ss / denom if denom > 0 else (2.0 * s if s else None)


class _LimitedMemoryBfgs:
    """QNM's rule: a two-loop quasi-Newton direction, else steepest ascent.

    Internally a textbook two-loop recursion on the negated objective, with
    curvature pairs living in the tangent space.  After every accepted step
    the whole memory is transported to the new tangent space by projection
    through the block rotation W (``_tangent(W, v)``), the extra
    per-iteration cost that dominates at large N.  Falls back to the
    normalized gradient whenever the quasi-Newton direction fails the ascent
    test.
    """

    def __init__(self, n: int, cfg: OptimizerConfig):
        self.size = cfg.lbfgs_memory
        self.memory: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1 / <s, y>)
        self.fallback_step = INITIAL_STEP
        self.cap = 2.0 * np.sqrt(n)
        self.used_fallback = True

    def _two_loop(self, gradient, scale):
        q = gradient.copy()
        alphas = []
        for s, y, rho in reversed(self.memory):
            a = rho * _inner(s, q)
            alphas.append(a)
            q -= a * y
        q *= scale
        for (s, y, rho), a in zip(self.memory, reversed(alphas)):
            b = rho * _inner(y, q)
            q += (a - b) * s
        return q

    def propose(self, riem, gnorm):
        self.used_fallback = True
        direction, step0 = riem / gnorm, self.fallback_step
        if self.memory:
            s_last, y_last, _ = self.memory[-1]
            scale = _inner(s_last, y_last) / max(_inner(y_last, y_last), 1e-300)
            candidate = -self._two_loop(-riem, scale)
            if _inner(candidate, riem) > 0.0:  # ascent direction for f
                direction, step0, self.used_fallback = candidate, 1.0, False
        return direction, 2.0 * _inner(riem, direction), step0

    def accepted(self, rotation, riem, riem_new, direction, s):
        if self.used_fallback:
            self.fallback_step = min(max(2.0 * s, 1e-12), self.cap)
        # transport the memory into the new tangent space, refresh curvatures
        memory = []
        for s_i, y_i, _ in self.memory:
            s_t, y_t = _tangent(rotation, s_i), _tangent(rotation, y_i)
            sy = _inner(s_t, y_t)
            if sy > 1e-300:
                memory.append((s_t, y_t, 1.0 / sy))
        s_vec = _tangent(rotation, s * direction)
        y_vec = _tangent(rotation, riem) - riem_new  # negated-objective gap
        sy = _inner(s_vec, y_vec)
        s_norm = float(np.sqrt(_inner(s_vec, s_vec)))
        y_norm = float(np.sqrt(_inner(y_vec, y_vec)))
        if sy > 1e-12 * s_norm * y_norm:
            memory.append((s_vec, y_vec, 1.0 / sy))
            if len(memory) > self.size:
                memory.pop(0)
        self.memory = memory


def _ascend(rule, problem, n, rho, cfg, report):
    """Riemannian line-search ascent on the channel-gain objective, a ``_solve`` method once ``rule`` is bound.

    Starts from Haar blocks drawn from ``cfg.seed``; the step caps take the
    surface's N, so a compressed solve is the full-size one from the
    dilated start.  Gradients and directions are body-coordinate tangent
    vectors.  ``rule(N, cfg)`` builds the direction rule:
    ``propose(riem, gnorm)`` returns (direction, slope, trial step) and
    ``accepted(rotation, riem, riem_new, direction, s)`` updates the rule
    after each step, where ``rotation`` is the step's block rotation
    W = Theta† Theta_new.  Every step is an Armijo backtracking search along
    the closed-form polar retraction (``_retract``): one ``eigh`` per step,
    one block product per trial, and no SVD inside the loop.
    The trace is monotone.  Stops at a numerically stationary point, on a
    line-search stall, on a two-iteration objective plateau, or at the
    iteration cap (``stop_reason``); ``converged`` reports whether the
    final gradient passed the stationarity test.
    """
    theta = _random_blocks(problem.structure.shape, np.random.default_rng(cfg.seed))
    report(theta)
    rule = rule(n, cfg)
    f, grad = problem.value_and_grad(theta)
    riem = _tangent(theta, grad)
    trace = [f]
    converged, reason = False, "max_iterations"
    iterations = 0
    flat_streak = 0  # a single small change may be a bad step, two in a row is a plateau
    for iterations in range(1, cfg.max_iterations + 1):
        gnorm = float(np.sqrt(_inner(riem, riem)))
        if gnorm <= 1e-12 * max(abs(f), 1e-300):  # numerically stationary
            converged, reason = True, "stationary"
            break
        direction, slope, step0 = rule.propose(riem, gnorm)
        step, rotation = _retract(theta, direction)
        theta_new, f_new, s = _armijo_search(step, problem.value, slope, f, step0)
        if theta_new is None:  # stall: the step is effectively zero
            converged, reason = gnorm <= STATIONARITY_TOLERANCE * max(abs(f), 1e-300), "stalled"
            break
        report(theta_new)
        rel_change = abs(f_new - f) / max(abs(f), 1e-300)
        f, grad = problem.value_and_grad(theta_new)
        trace.append(f)
        riem_new = _tangent(theta_new, grad)
        rule.accepted(rotation(s), riem, riem_new, direction, s)
        theta, riem = theta_new, riem_new
        flat_streak = flat_streak + 1 if rel_change < cfg.objective_tolerance else 0
        if flat_streak >= 2:
            converged = float(np.sqrt(_inner(riem, riem))) <= STATIONARITY_TOLERANCE * max(abs(f), 1e-300)
            reason = "plateau"
            break
    return theta, trace, iterations, converged, reason


def ao_manifold(
    realizations,
    arch: BdRisArchitecture = BdRisArchitecture.fully_connected(),
    cfg: OptimizerConfig = OptimizerConfig(),
    iterate_callback=None,
) -> OptimizerResult:
    """Riemannian gradient ascent on the channel-gain objective.

    Steps along the Riemannian gradient, held in body coordinates, with the
    closed-form polar (per-block) retraction; the trial step uses the
    Barzilai-Borwein curvature estimate from the last accepted move.  The
    Armijo safeguard and the stopping rules are ``_ascend``'s.
    """
    return _solve(realizations, arch, cfg, iterate_callback, partial(_ascend, _BarzilaiBorwein))


def qnm_manifold(
    realizations,
    arch: BdRisArchitecture = BdRisArchitecture.fully_connected(),
    cfg: OptimizerConfig = OptimizerConfig(),
    iterate_callback=None,
) -> OptimizerResult:
    """Limited-memory quasi-Newton ascent on the channel-gain objective.

    Keeps up to ``cfg.lbfgs_memory`` curvature pairs (``_LimitedMemoryBfgs``)
    as body-coordinate tangent vectors, transported after every step by
    projection through the step's block rotation, one matrix product per
    vector; the closed-form polar retraction, the Armijo safeguard and the
    stopping rules are ``_ascend``'s, as for AO.
    """
    return _solve(realizations, arch, cfg, iterate_callback, partial(_ascend, _LimitedMemoryBfgs))


def _sinr(h_stack: np.ndarray, w_stack: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(SINR, d, row) per device: rho |d|^2 / (rho (row - |d|^2) + 1), d = h_l† w_l, row = sum_j |h_l† w_j|^2."""
    cross = np.conj(h_stack) @ w_stack  # h_l† w_j, (P, L, L)
    diag = np.diagonal(cross, axis1=1, axis2=2)
    diag_power = np.abs(diag) ** 2
    row_power = np.sum(np.abs(cross) ** 2, axis=2)
    return rho * diag_power / (rho * (row_power - diag_power) + 1.0), diag, row_power


def _mean_rate(h_stack: np.ndarray, w_stack: np.ndarray, rho: float) -> float:
    """Snapshot-mean sum rate in bits/s/Hz of channel rows (P, L, M) under precoders (P, M, L)."""
    per_snapshot = np.sum(np.log1p(_sinr(h_stack, w_stack, rho)[0]), axis=1) / LOG2
    return float(np.mean(per_snapshot))


def _rzf_rate(h_stack: np.ndarray, rho: float) -> tuple[np.ndarray, float]:
    """Regularized zero-forcing precoders, unit total power per snapshot, (P, M, L), and their mean sum rate.

    Column l of each precoder serves device l; ``h_stack`` holds the
    effective channels as rows, (P, L, M).
    """
    h_cols = h_stack.transpose(0, 2, 1)  # (P, M, L)
    l = h_cols.shape[2]
    gram = h_cols.conj().transpose(0, 2, 1) @ h_cols + (l / rho) * np.eye(l)
    try:
        w = h_cols @ np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("the regularized Gram matrix of the channels is singular") from exc
    norms = np.linalg.norm(w, axis=(1, 2), keepdims=True)
    w = np.divide(w, norms, out=np.zeros_like(w), where=norms > 0)
    return w, _mean_rate(h_stack, w, rho)


def mean_sum_rate(theta, realizations) -> float:
    """Snapshot-averaged downlink sum rate in bits/s/Hz, one RZF precoder per snapshot.

    ``realizations`` is one ``ChannelRealization`` or a sequence of them.

    SINR_l = rho |h_l† w_l|^2 / (rho sum_{j != l} |h_l† w_j|^2 + 1) with rho
    the snapshots' linear transmit SNR and each precoder normalized to unit
    total power.  A singular regularized Gram matrix raises RankDeficient.
    """
    stack = ChannelStack(realizations)
    rho = 10.0 ** (stack.tx_snr_db / 10.0)
    return _rzf_rate(effective_channel_matrix(stack, theta), rho)[1]


class _SumRateSurrogate:
    """Concave quadratic-transform surrogate of the sum rate at fixed auxiliaries.

    With the auxiliaries refreshed at the current point the surrogate equals
    the true (precoder-fixed) sum rate there and minorizes it everywhere
    else, which is what makes the outer trace monotone.  Points are
    (G, k, k) block stacks.
    """

    def __init__(self, problem: CascadedChannels, rho: float):
        self.problem = problem
        self.count = problem.direct.shape[0]
        self.rho = rho
        self.sqrt_rho = float(np.sqrt(rho))
        self.gamma = None  # (P, L)
        self.y = None      # (P, L)
        self.const = None  # (P, L)

    def refresh(self, theta, w_stack):
        """Closed-form SINR (gamma) and quadratic-transform (y) auxiliaries."""
        self.gamma, diag, row_power = _sinr(self.problem.channels(theta), w_stack, self.rho)
        self.y = self.sqrt_rho * diag / (self.rho * row_power + 1.0)
        self.const = np.log1p(self.gamma) - self.gamma

    def value(self, theta, w_stack) -> float:
        _, diag, row_power = _sinr(self.problem.channels(theta), w_stack, self.rho)
        lin = 2.0 * np.real(np.conj(self.y) * (self.sqrt_rho * diag))
        quad = np.abs(self.y) ** 2 * (self.rho * row_power + 1.0)
        total = float(np.sum(self.const + (1.0 + self.gamma) * (lin - quad)))
        return total / self.count / LOG2

    def gradient(self, theta, w_stack) -> np.ndarray:
        cross = np.conj(self.problem.channels(theta)) @ w_stack
        w_rows = w_stack.conj().transpose(0, 2, 1)  # (P, L, M), row l is w_l†
        lin_rows = (self.sqrt_rho * (1.0 + self.gamma) * self.y)[:, :, None] * w_rows
        quad_rows = (self.rho * (1.0 + self.gamma) * np.abs(self.y) ** 2)[:, :, None] * (cross @ w_rows)
        return self.problem.adjoint(lin_rows - quad_rows) / self.count / LOG2

    def curvature_along(self, direction, w_stack) -> float:
        """Magnitude of the (negative) quadratic coefficient of g along a line.

        g(theta + s * direction) = g0 + slope * s - coef * s^2 exactly, since
        the surrogate is quadratic in the matrix; used for the optimal
        unconstrained step slope / (2 * coef).
        """
        dcross = np.conj(self.problem.reflected(direction)) @ w_stack
        weights = (1.0 + self.gamma) * np.abs(self.y) ** 2
        coef = float(self.rho * np.sum(weights * np.sum(np.abs(dcross) ** 2, axis=2)))
        return coef / self.count / LOG2


def _surrogate_cg(surrogate, w_stack, x, max_steps):
    """Unconstrained maximizer of the quadratic surrogate by conjugate gradients.

    The surrogate is an exactly quadratic concave function of the matrix, so
    Fletcher-Reeves with exact steps is plain linear CG.  Along directions of
    (numerically) zero curvature the maximum sits at infinity; since the
    later polar projection is scale invariant, a single long jump captures
    it.  Moves the block stack off the manifold; the caller projects.
    """
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
        step = min(slope / (2.0 * coef), step_limit) if coef > 0.0 else step_limit
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


def _surrogate_inner_update(surrogate, w_stack, theta, n):
    """One feasible surrogate-ascent move: CG jump, projected, with damping.

    The projected full jump is tried first; if it regresses, the move toward
    the CG point is retried at geometrically shrinking step lengths (a trust
    region on the manifold scale sqrt(n), n the surface's N, also on a
    compressed solve).  With no improving length left ``theta`` returns.
    """
    target = _surrogate_cg(surrogate, w_stack, theta, FP_INNER_THETA_STEPS)
    if not np.all(np.isfinite(target.view(float))):
        return theta
    delta = target - theta
    delta_norm = float(np.linalg.norm(delta))
    if delta_norm <= 1e-300:
        return theta
    g_start = surrogate.value(theta, w_stack)
    scale = np.sqrt(n)
    lengths = [delta_norm] + [c * scale for c in (2.0, 0.5, 0.1, 0.02) if c * scale < delta_norm]
    for length in lengths:
        try:
            candidate = polar_factor(theta + (length / delta_norm) * delta)
        except RankDeficient:
            continue
        if surrogate.value(candidate, w_stack) > g_start:
            return candidate
    return theta


def _fractional_programming(problem, n, rho, cfg, report):
    """FP's outer loop on ``problem``'s blocks (``fp_sum_rate``), trust lengths on the surface's N."""
    # warm start from the one-shot cross-term alignment: the alternation
    # is monotone from any start but random starts fall into noticeably
    # weaker fixed points at case-study SNR scales
    theta = _align_cross_term(problem, np.random.default_rng(cfg.seed))[0]
    report(theta)
    surrogate = _SumRateSurrogate(problem, rho)
    precoders, rate = _rzf_rate(problem.channels(theta), rho)
    # the RZF precoders and rate of the current theta, kept until theta moves
    fresh, fresh_rate = precoders, rate
    trace = [rate]
    converged, reason = False, "max_iterations"
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        rate_at_start = rate
        if fresh is None:
            fresh, fresh_rate = _rzf_rate(problem.channels(theta), rho)
        if fresh_rate >= rate:
            precoders, rate = fresh, fresh_rate
        surrogate.refresh(theta, precoders)
        candidate = _surrogate_inner_update(surrogate, precoders, theta, n)
        cand_rate = _mean_rate(problem.channels(candidate), precoders, rho)
        if cand_rate >= rate:
            if not np.array_equal(candidate, theta):
                fresh = None
            theta, rate = candidate, cand_rate
            report(theta)
        trace.append(rate)
        # progress of the whole precoder/auxiliary/matrix cycle
        rel_change = (rate - rate_at_start) / max(abs(rate_at_start), 1e-300)
        if rel_change < cfg.objective_tolerance:
            converged, reason = True, "plateau"
            break
    return theta, trace, iterations, converged, reason


def fp_sum_rate(
    realizations,
    arch: BdRisArchitecture = BdRisArchitecture.fully_connected(),
    cfg: OptimizerConfig = OptimizerConfig(),
    iterate_callback=None,
) -> OptimizerResult:
    """Fractional-programming ascent on the downlink sum rate.

    Starts from the one-shot cross-term alignment, then each outer iteration
    (i) refreshes the RZF precoders, keeping the old ones if the refresh
    would lower the rate (a theta's refresh is computed once and kept until
    theta moves), (ii) recomputes the closed-form SINR and
    quadratic-transform auxiliaries, at which point the surrogate touches
    the true precoder-fixed sum rate, and (iii) maximizes the concave
    quadratic surrogate: up to ``FP_INNER_THETA_STEPS`` conjugate-gradient
    steps followed by one feasibility projection, retried at shorter step
    lengths when the projection regresses.  Moves are only adopted when they
    do not lower the rate, so the recorded outer trace is non-decreasing.
    """
    return _solve(realizations, arch, cfg, iterate_callback, _fractional_programming)


ALGORITHMS = {
    "rzf": rzf_one_shot,
    "fp": fp_sum_rate,
    "ao": ao_manifold,
    "qnm": qnm_manifold,
}


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
    comparable.
    """
    check_counts(trials=trials, threads=threads)
    for n in element_counts:
        check_counts(**{"element count": n})
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
            cell.append(
                {
                    "algorithm": name,
                    "N": n,
                    "trial": trial,
                    "sum_rate_bps_hz": mean_sum_rate(result.theta, reals),
                    "wall_time_s": result.wall_time_s,
                    "iterations": result.iterations,
                    "converged": result.converged,
                    "block_size": result.block_size,
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
