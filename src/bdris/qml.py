"""Hybrid quantum-classical beam prediction at desk scale.

A dense statevector simulator (up to 12 qubits) drives a small variational
model: amplitude embedding of the classical features, one or more entangling
layers (per-qubit RY rotations followed by a ring of CNOTs), and per-qubit
Pauli-Z expectations.  Those expectations are concatenated with the raw
features and fed to a linear softmax head; everything trains by full-batch
gradient descent.  Amplitude embedding is linear in the unit feature row x^
and so is the circuit, so a sample's final state is V x^ with V the circuit
applied to the first d basis states, d the feature width.  The model
therefore simulates V, a real float64 (2^q, d) array in batch-last layout
(each RY is one real 2x2 product, the CNOT ring one row gather), and reads
each sample's Pauli-Z outputs as quadratic forms x^T (V^T Z_j V) x^: the
gates act on d columns whatever the sample count n.  The circuit gradient
comes by adjoint differentiation: one forward pass, then one backward sweep
on the same d columns that reads each angle's gradient before un-applying
its gate.  A model builds V once, so an epoch makes 3 L q gate applications
for L layers of q qubits (V of the updated model, psi and lambda in the
sweep).  Both are exact, not approximations, as long as the embedding stays
linear in x^; a nonlinear encoding such as angle encoding would need its own
per-sample forward pass.  The exact parameter-shift rule stays as the oracle
it is tested against.  A synthetic position-to-beam dataset stands in for
field data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, LengthMismatch, TooLong, ZeroVector, check_counts

MAX_QUBITS = 12
NORM_TOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitudes of a q-qubit register."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.ndim != 1:
            raise DimensionMismatch(f"amplitudes of shape {amp.shape} are not a vector")
        size = amp.shape[0]
        q = int(np.log2(size)) if size > 0 else -1
        if size != 2**q or q < 1:
            raise DimensionMismatch(f"amplitude vector of length {size} is not a qubit register")
        if q > MAX_QUBITS:
            raise InvalidInput(f"{q} qubits exceed the dense-simulation cap of {MAX_QUBITS}")
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails
            raise InvalidInput(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL:g}")

    @property
    def num_qubits(self) -> int:
        return int(np.log2(self.amplitudes.shape[0]))


@dataclass(frozen=True)
class CircuitParams:
    """Trainable rotation angles, one per (layer, qubit)."""

    angles: np.ndarray

    def __post_init__(self):
        a = np.array(self.angles, dtype=float)
        a.setflags(write=False)  # a model's cached circuit is built from these
        object.__setattr__(self, "angles", a)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionMismatch("angles must be a (layers, qubits) matrix")
        if a.shape[1] > MAX_QUBITS:
            raise InvalidInput(f"{a.shape[1]} qubits exceed the dense-simulation cap of {MAX_QUBITS}")
        if not np.all(np.isfinite(a)):
            raise InvalidInput("angles must be finite")

    @property
    def num_layers(self) -> int:
        return self.angles.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.angles.shape[1]


@dataclass(frozen=True)
class HybridModel:
    """Circuit parameters plus the linear softmax head on [z, features]."""

    circuit: CircuitParams
    head_weights: np.ndarray  # (num_beams, num_qubits + feature_dim)
    head_bias: np.ndarray     # (num_beams,)

    def __post_init__(self):
        w = np.asarray(self.head_weights, dtype=float)
        b = np.asarray(self.head_bias, dtype=float)
        object.__setattr__(self, "head_weights", w)
        object.__setattr__(self, "head_bias", b)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise DimensionMismatch("head weights and bias disagree")
        if w.shape[1] <= self.circuit.num_qubits:
            raise DimensionMismatch("head must also see the classical features")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise InvalidInput("head weights and bias must be finite")

    @property
    def num_beams(self) -> int:
        return self.head_weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.head_weights.shape[1] - self.circuit.num_qubits

    @functools.cached_property
    def columns(self) -> np.ndarray:
        """V, the circuit on the feature basis (``_circuit_columns``), built once per model."""
        return _circuit_columns(self.circuit.angles, self.feature_dim, self.circuit.num_qubits)


@dataclass(frozen=True)
class SyntheticBeamDataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,)
    num_beams: int

    def __post_init__(self):
        check_counts(num_beams=self.num_beams)
        f = np.asarray(self.features, dtype=float)
        l = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)
        if f.ndim != 2 or l.ndim != 1 or f.shape[0] != l.shape[0]:
            raise DimensionMismatch("features and labels disagree")
        if not np.all(np.isfinite(f)):
            raise InvalidInput("features must be finite")
        if l.size and (l.min() < 0 or l.max() >= self.num_beams):
            raise InvalidInput("labels must lie in [0, num_beams)")

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_beams)


# ---------------------------------------------------------------------------
# statevector primitives (batched over columns; single states are batch 1)
#
# A batch of states is one (2^q, m) array with one state per column, so the
# batch is the last axis.  Qubit 0 is the most significant bit of a basis
# index, and a gate on qubit k sees the (2^k, 2, 2^(q-k-1) m) view of the
# batch, whose two half-views are runs of at least m contiguous amplitudes.
# RY and CNOT keep amplitudes real, so the circuit runs on float64; the
# helpers are dtype-generic, so the complex ``StateVector`` goes through them
# unchanged as a single column.
#
# The model's circuit runs on the feature basis: a row x of width d embeds as
# its unit vector x^ zero-padded to 2^q, so its final state is V x^ with
# V = U[:, :d] (``_circuit_columns``) and z_j = x^T (V^T Z_j V) x^.  That
# holds only while the embedding is linear in x^.

def _embed_batch(x: np.ndarray, num_qubits: int) -> np.ndarray:
    """Check feature rows against a q-qubit register and scale each to unit norm: (n, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dim = 2**num_qubits
    if x.shape[1] > dim:
        raise TooLong(f"{x.shape[1]} features exceed the state dimension {dim}")
    if x.shape[1] < 1:
        raise ZeroVector("need at least one feature")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("features must be finite to amplitude-embed")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector("cannot amplitude-embed a zero vector")
    return x / norms[:, None]


def _apply_ry_batch(states: np.ndarray, angle: float, qubit: int) -> np.ndarray:
    """RY(angle) on one qubit of every column: one real 2x2 product on the pair axis."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.matmul(np.array([[c, -s], [s, c]]), states.reshape(2**qubit, 2, -1)).reshape(states.shape)


@functools.lru_cache(maxsize=None)
def _ring_permutation(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Index gathers of the CNOT ring and of its inverse.

    ``states.take(forward, axis=0)`` applies CNOT(k, k+1 mod q) for
    k = 0..q-1 in that order to every column; ``take(inverse, axis=0)``
    undoes it.  One qubit has no ring (both are the identity).  The gather
    moves whole rows of the batch and returns a C-ordered array.
    """
    index = np.arange(2**num_qubits)
    if num_qubits > 1:
        # state_after[i] = state_before[P_0(P_1(...P_{q-1}(i)))], P_k the CNOT k's bit flip
        for control in range(num_qubits - 1, -1, -1):
            target = (control + 1) % num_qubits
            flip = (index >> (num_qubits - 1 - control)) & 1
            index = index ^ (flip << (num_qubits - 1 - target))
    inverse = np.argsort(index)
    index.setflags(write=False)
    inverse.setflags(write=False)
    return index, inverse


@functools.lru_cache(maxsize=None)
def _z_signs(num_qubits: int) -> np.ndarray:
    """signs[i, k] = <i|Z_k|i>: +1 where qubit k is 0 in basis state i, else -1."""
    bits = (np.arange(2**num_qubits)[:, None] >> np.arange(num_qubits - 1, -1, -1)[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs


def _layer_batch(states: np.ndarray, layer_angles: np.ndarray, num_qubits: int) -> np.ndarray:
    for k in range(num_qubits):
        states = _apply_ry_batch(states, float(layer_angles[k]), k)
    return states.take(_ring_permutation(num_qubits)[0], axis=0)


def _circuit_columns(angles: np.ndarray, width: int, num_qubits: int) -> np.ndarray:
    """V = U[:, :width]: the circuit on the first ``width`` basis states, a real (2^q, width) array."""
    columns = np.eye(2**num_qubits, width)
    for layer in angles:
        columns = _layer_batch(columns, layer, num_qubits)
    return columns


def _measure_z_rows(unit: np.ndarray, columns: np.ndarray, num_qubits: int) -> np.ndarray:
    """Z expectations (n, q) of the states V x^_s, as the quadratic forms x^_s^T Q_j x^_s.

    Q_j = V^T Z_j V is a (q, d, d) stack; no (2^q, n) state is formed.  The
    stack holds q d^2 numbers, few for the narrow rows every caller has
    (d = 2 positions) but more than the n states once d^2 q > 2^q n.
    """
    forms = np.matmul(columns.T * _z_signs(num_qubits).T[:, None, :], columns)
    return np.einsum("sa,jab,sb->sj", unit, forms, unit)


def _forward_batch(angles: np.ndarray, x: np.ndarray, num_qubits: int) -> np.ndarray:
    """Z expectations of the circuit on every feature row: (n, q)."""
    unit = _embed_batch(x, num_qubits)
    return _measure_z_rows(unit, _circuit_columns(angles, unit.shape[1], num_qubits), num_qubits)


# ---------------------------------------------------------------------------
# public single-state operations

def amplitude_embed(x: np.ndarray, num_qubits: int) -> StateVector:
    """Encode a feature vector as normalized amplitudes (zero-padded)."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise InvalidInput(f"qubit count must be in [1, {MAX_QUBITS}]")
    unit = _embed_batch(np.asarray(x, float).reshape(1, -1), num_qubits)[0]
    amplitudes = np.zeros(2**num_qubits)
    amplitudes[: unit.shape[0]] = unit
    return StateVector(amplitudes)


def entangling_layer(state: StateVector, layer_angles: np.ndarray) -> StateVector:
    """RY on every qubit, then CNOTs in a ring (control k, target k+1 mod q)."""
    angles = np.asarray(layer_angles, dtype=float).reshape(-1)
    q = state.num_qubits
    if angles.shape[0] != q:
        raise DimensionMismatch(f"{angles.shape[0]} angles for {q} qubits")
    return StateVector(_layer_batch(state.amplitudes[:, None], angles, q)[:, 0])


def measure_z(state: StateVector) -> np.ndarray:
    """Exact per-qubit Pauli-Z expectations."""
    return np.abs(state.amplitudes) ** 2 @ _z_signs(state.num_qubits)


def circuit_outputs(params: CircuitParams, x: np.ndarray) -> np.ndarray:
    """Z-expectations of the full circuit on one feature vector."""
    return _forward_batch(params.angles, np.asarray(x, float).reshape(1, -1), params.num_qubits)[0]


def _shift_grad(angles: np.ndarray, x: np.ndarray, dl_dz: np.ndarray, num_qubits: int) -> np.ndarray:
    """Sum over the rows of ``x`` and ``dl_dz`` of dl_dz . dz/dtheta, for every angle.

    dz/dtheta comes from the parameter-shift rule; see ``parameter_shift_grad``.
    """
    grad = np.zeros_like(angles)
    for l in range(angles.shape[0]):
        for k in range(num_qubits):
            plus = angles.copy()
            plus[l, k] += np.pi / 2.0
            minus = angles.copy()
            minus[l, k] -= np.pi / 2.0
            dz = (_forward_batch(plus, x, num_qubits) - _forward_batch(minus, x, num_qubits)) / 2.0
            grad[l, k] = float(np.sum(dl_dz * dz))
    return grad


def parameter_shift_grad(params: CircuitParams, x: np.ndarray, loss_grad_z) -> np.ndarray:
    """Gradient of a loss over all angles by the exact parameter-shift rule.

    ``loss_grad_z`` maps the circuit outputs z to dloss/dz; the angle
    gradient composes it with dz/dtheta = [z(theta + pi/2) - z(theta -
    pi/2)] / 2, which is exact for RY generators.
    """
    x = np.asarray(x, float).reshape(1, -1)
    z = _forward_batch(params.angles, x, params.num_qubits)[0]
    dl_dz = np.asarray(loss_grad_z(z), dtype=float).reshape(-1)
    if dl_dz.shape[0] != params.num_qubits:
        raise DimensionMismatch("loss gradient length must equal the qubit count")
    return _shift_grad(params.angles, x, dl_dz[None, :], params.num_qubits)


def _adjoint_grad(
    angles: np.ndarray, columns: np.ndarray, unit: np.ndarray, dl_dz: np.ndarray, num_qubits: int
) -> np.ndarray:
    """Sum over rows of dl_dz . dz/dtheta for every angle, by one backward sweep.

    ``columns`` is V, the circuit on the feature basis that the forward pass
    built (``_circuit_columns``), and ``unit`` the unit feature rows x^_s,
    one per row of ``dl_dz``; no gate is applied forwards again.  Per sample
    the sweep would start from psi_s = V x^_s and
    lambda_s = (sum_j dl_dz_sj Z_j) psi_s and un-apply each gate, last first,
    to both.  Since dRY/dtheta = RY(theta + pi) / 2 and z is quadratic in
    psi, an angle's gradient is sum_s <lambda_s|RY(theta + pi)|psi_s,before>
    (adjoint differentiation: Jones & Gacon, arXiv:2009.02823).  That sum is
    bilinear in (lambda_s, psi_s), so it equals the same sweep on psi = V
    and Lambda = sum_j Z_j V A_j, A_j = sum_s dl_dz_sj x^_s x^_s^T: d
    columns instead of n, exactly.  RY(theta + pi) psi_before =
    RY(pi) psi_after, so the gradient is read before the gate is un-applied,
    as sum(lambda_1 psi_0 - lambda_0 psi_1) over the gate's two half-views:
    two gate applications per angle.  The result equals the shift rule.
    """
    inverse = _ring_permutation(num_qubits)[1]
    signs = _z_signs(num_qubits)
    psi = columns
    sums = np.matmul(unit.T * dl_dz.T[:, None, :], unit)  # A_j: (q, d, d)
    lam = np.einsum("ij,jia->ia", signs, np.matmul(columns, sums))
    grad = np.zeros_like(angles)
    for l in range(angles.shape[0] - 1, -1, -1):
        psi = psi.take(inverse, axis=0)
        lam = lam.take(inverse, axis=0)
        for k in range(num_qubits - 1, -1, -1):
            pairs = 2**k
            # [sum lambda_0 psi_1, sum lambda_1 psi_0]
            cross = np.einsum("bim,bim->i", lam.reshape(pairs, 2, -1), psi.reshape(pairs, 2, -1)[:, ::-1])
            grad[l, k] = cross[1] - cross[0]
            theta = float(angles[l, k])
            psi = _apply_ry_batch(psi, -theta, k)
            lam = _apply_ry_batch(lam, -theta, k)
    return grad


# ---------------------------------------------------------------------------
# metrics

def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy in nats (log-sum-exp form)."""
    logits = np.atleast_2d(logits)
    labels = np.asarray(labels, dtype=int)
    if labels.shape != logits.shape[:1]:
        raise LengthMismatch("logits and labels differ in length")
    if not labels.size:
        raise InvalidInput("need at least one sample")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise InvalidInput("labels must lie in [0, number of classes)")
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1)) + np.max(logits, axis=1)
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


def distance_accuracy(predictions, labels, delta: int) -> float:
    """Fraction of predictions within ``delta`` beam indices of the truth."""
    predictions = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if predictions.shape != labels.shape:
        raise LengthMismatch("predictions and labels differ in length")
    if not labels.size:
        raise InvalidInput("need at least one sample")
    return float(np.mean(np.abs(predictions - labels) <= delta))


def confusion_matrix(predictions, labels, num_beams: int) -> np.ndarray:
    """Counts[i, j] = samples with true beam i predicted as beam j."""
    check_counts(num_beams=num_beams)
    predictions = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if predictions.shape != labels.shape:
        raise LengthMismatch("predictions and labels differ in length")
    if labels.size and (min(labels.min(), predictions.min()) < 0
                        or max(labels.max(), predictions.max()) >= num_beams):
        raise InvalidInput("indices must lie in [0, num_beams)")
    counts = np.zeros((num_beams, num_beams), dtype=int)
    np.add.at(counts, (labels, predictions), 1)
    return counts


# ---------------------------------------------------------------------------
# synthetic data and training

def generate_synthetic_dataset(
    n: int, num_beams: int, noise_sigma: float, rng: np.random.Generator
) -> SyntheticBeamDataset:
    """Positions uniform in the unit square, beams = angle sectors.

    The label quantizes the angle to the square's center into ``num_beams``
    equal sectors (for eight beams each sector carries exactly 1/8 of the
    mass by symmetry); features are the positions plus Gaussian noise.
    ``n`` and ``num_beams`` must be integers >= 1 (not bools), and
    ``noise_sigma`` finite and >= 0.
    """
    check_counts(n=n, num_beams=num_beams)
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise InvalidInput(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    if n < num_beams:
        raise InvalidInput("need at least one sample per beam")
    positions = rng.uniform(0.0, 1.0, (n, 2))
    angles = np.arctan2(positions[:, 1] - 0.5, positions[:, 0] - 0.5)
    labels = np.floor((angles + np.pi) / (2.0 * np.pi) * num_beams).astype(int)
    labels = np.clip(labels, 0, num_beams - 1)
    features = positions + noise_sigma * rng.standard_normal((n, 2))
    return SyntheticBeamDataset(features, labels, num_beams)


def init_hybrid_model(
    num_qubits: int, num_layers: int, feature_dim: int, num_beams: int, rng: np.random.Generator
) -> HybridModel:
    """Uniform random angles and a small random head; every count must be an integer >= 1 (not a bool)."""
    check_counts(num_qubits=num_qubits, num_layers=num_layers, feature_dim=feature_dim, num_beams=num_beams)
    angles = rng.uniform(-np.pi, np.pi, (num_layers, num_qubits))
    weights = 0.01 * rng.standard_normal((num_beams, num_qubits + feature_dim))
    bias = np.zeros(num_beams)
    return HybridModel(CircuitParams(angles), weights, bias)


def _check_feature_width(model: HybridModel, x: np.ndarray) -> None:
    if x.shape[1] != model.feature_dim:
        raise DimensionMismatch(f"{x.shape[1]} features for a head that expects {model.feature_dim}")


def _forward(model: HybridModel, unit: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The head input [z, x] of feature rows ``x`` with unit rows ``unit``, and its logits; z reads V."""
    joint = np.concatenate([_measure_z_rows(unit, model.columns, model.circuit.num_qubits), x], axis=1)
    return joint, joint @ model.head_weights.T + model.head_bias


def hybrid_logits(model: HybridModel, features: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    _check_feature_width(model, x)
    return _forward(model, _embed_batch(x, model.circuit.num_qubits), x)[1]


def hybrid_predictions(model: HybridModel, features: np.ndarray) -> np.ndarray:
    return np.argmax(hybrid_logits(model, features), axis=1)


def _split_metrics(model, features, labels) -> dict:
    logits = hybrid_logits(model, features)
    preds = np.argmax(logits, axis=1)
    return {
        "cross_entropy": cross_entropy(logits, labels),
        "acc_delta0": distance_accuracy(preds, labels, 0),
        "acc_delta1": distance_accuracy(preds, labels, 1),
        "acc_delta2": distance_accuracy(preds, labels, 2),
    }


def train_hybrid(
    dataset: SyntheticBeamDataset,
    model: HybridModel,
    epochs: int,
    learning_rate: float,
    rng: np.random.Generator,
) -> tuple[HybridModel, list[dict]]:
    """Full-batch gradient descent on softmax cross-entropy.

    The dataset (at least 3 samples) splits 80/20 into train/validation by
    a seeded permutation, and the training rows are embedded once.  Head
    gradients are analytic.  The training outputs z come from the model's V
    (``HybridModel.columns``), which also starts the adjoint sweep
    (``_adjoint_grad``) for every angle gradient; each updated model builds
    its V once for both metrics splits and the next sweep, so an epoch makes
    3 L q gate applications.  ``epochs`` must be an integer >= 1 (not a
    bool), and the learning rate finite and >= 0 (0 leaves the model as it
    is).  Returns the trained model and one trace row per (epoch, split)
    with loss and distance accuracies.
    """
    check_counts(epochs=epochs)
    if not (math.isfinite(learning_rate) and learning_rate >= 0.0):
        raise InvalidInput(f"learning_rate must be finite and >= 0, got {learning_rate!r}")
    n = dataset.features.shape[0]
    if n < 3:
        raise InvalidInput(f"need >= 3 samples for a train/validation split, got {n}")
    _check_feature_width(model, dataset.features)
    order = rng.permutation(n)
    cut = int(round(0.8 * n))
    train_idx, val_idx = order[:cut], order[cut:]
    x_train, y_train = dataset.features[train_idx], dataset.labels[train_idx]
    x_val, y_val = dataset.features[val_idx], dataset.labels[val_idx]
    q = model.circuit.num_qubits
    unit = _embed_batch(x_train, q)
    trace: list[dict] = []
    for epoch in range(1, epochs + 1):
        joint, logits = _forward(model, unit, x_train)
        exp = np.exp(logits - np.max(logits, axis=1, keepdims=True))
        dlogits = exp / exp.sum(axis=1, keepdims=True)
        dlogits[np.arange(cut), y_train] -= 1.0
        dlogits /= cut
        grad_angles = _adjoint_grad(model.circuit.angles, model.columns, unit, dlogits @ model.head_weights[:, :q], q)
        model = HybridModel(
            CircuitParams(model.circuit.angles - learning_rate * grad_angles),
            model.head_weights - learning_rate * (dlogits.T @ joint),
            model.head_bias - learning_rate * dlogits.sum(axis=0),
        )
        trace.append({"epoch": epoch, "split": "train", **_split_metrics(model, x_train, y_train)})
        trace.append({"epoch": epoch, "split": "val", **_split_metrics(model, x_val, y_val)})
    return model, trace
