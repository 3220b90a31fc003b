"""Statevector circuit, adjoint and parameter-shift gradients, training and metrics."""

import math

import numpy as np
import pytest

from bdris.errors import DimensionMismatch, InvalidInput, LengthMismatch, TooLong, ZeroVector
from bdris import qml
from bdris.harness import dataset_csv_rows, load_dataset_csv
from bdris.qml import (
    MAX_QUBITS,
    CircuitParams,
    HybridModel,
    StateVector,
    SyntheticBeamDataset,
    amplitude_embed,
    circuit_outputs,
    confusion_matrix,
    cross_entropy,
    distance_accuracy,
    entangling_layer,
    generate_synthetic_dataset,
    hybrid_logits,
    hybrid_predictions,
    init_hybrid_model,
    measure_z,
    parameter_shift_grad,
    train_hybrid,
)


class TestAmplitudeEmbed:
    def test_basis_vector_gives_ground_state(self):
        state = amplitude_embed(np.array([1.0, 0.0]), 2)
        assert state.amplitudes[0] == 1.0
        assert np.allclose(measure_z(state), [1.0, 1.0])

    def test_uniform_vector(self):
        state = amplitude_embed(np.ones(4), 2)
        assert np.allclose(state.amplitudes, 0.5)

    def test_output_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(rng.integers(1, 9))
            state = amplitude_embed(x, 3)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            amplitude_embed(np.zeros(3), 2)

    def test_too_long_rejected(self):
        with pytest.raises(TooLong):
            amplitude_embed(np.ones(5), 2)


class TestEntanglingLayer:
    def test_zero_angles_fix_ground_state(self):
        state = amplitude_embed(np.array([1.0]), 3)
        out = entangling_layer(state, np.zeros(3))
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_single_qubit_analytic_expectation(self):
        for theta in (0.0, 0.4, np.pi / 2, 2.2):
            state = amplitude_embed(np.array([1.0]), 1)
            out = entangling_layer(state, np.array([theta]))
            assert measure_z(out)[0] == pytest.approx(np.cos(theta), abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for q in (1, 2, 4):
            state = amplitude_embed(rng.standard_normal(2**q), q)
            out = entangling_layer(state, rng.uniform(-np.pi, np.pi, q))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12

    def test_full_layer_matrix_is_unitary(self):
        rng = np.random.default_rng(2)
        for q in (2, 3, 4):
            angles = rng.uniform(-np.pi, np.pi, q)
            dim = 2**q
            matrix = np.zeros((dim, dim), dtype=complex)
            for col in range(dim):
                basis = np.zeros(dim, dtype=complex)
                basis[col] = 1.0
                out = entangling_layer(StateVector(basis), angles)
                matrix[:, col] = out.amplitudes
            defect = np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
            assert defect <= 1e-10

    def test_angle_count_checked(self):
        state = amplitude_embed(np.ones(4), 2)
        with pytest.raises(DimensionMismatch):
            entangling_layer(state, np.zeros(3))


class TestMeasureZ:
    def test_ground_state(self):
        state = amplitude_embed(np.array([1.0]), 3)
        assert np.allclose(measure_z(state), [1.0, 1.0, 1.0])

    def test_uniform_superposition(self):
        state = StateVector(np.full(8, 1 / np.sqrt(8), dtype=complex))
        assert np.allclose(measure_z(state), 0.0, atol=1e-14)

    def test_matches_sampled_estimate(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = StateVector(raw / np.linalg.norm(raw))
        exact = measure_z(state)
        assert np.all(np.abs(exact) <= 1.0)
        probs = np.abs(state.amplitudes) ** 2
        shots = 1_000_000
        outcomes = rng.choice(8, size=shots, p=probs / probs.sum())
        bits = (outcomes[:, None] >> np.array([2, 1, 0])[None, :]) & 1
        sampled = 1.0 - 2.0 * bits.mean(axis=0)
        sigma = np.sqrt((1.0 - exact**2) / shots) + 1e-9
        assert np.all(np.abs(sampled - exact) <= 3.5 * sigma)


class TestParameterShift:
    def test_single_qubit_analytic_gradient(self):
        params = CircuitParams(np.array([[np.pi / 2]]))
        grad = parameter_shift_grad(params, np.array([1.0]), lambda z: np.array([1.0]))
        assert grad[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_gradient_at_cosine_peak(self):
        params = CircuitParams(np.array([[0.0]]))
        grad = parameter_shift_grad(params, np.array([1.0]), lambda z: np.array([1.0]))
        assert grad[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 4))
        layers = int(rng.integers(1, 3))
        angles = rng.uniform(-np.pi, np.pi, (layers, q))
        x = rng.uniform(0.1, 1.0, int(rng.integers(1, 2**q + 1)))
        weights = rng.standard_normal(q)

        def loss_of_angles(a):
            z = circuit_outputs(CircuitParams(a), x)
            return float(weights @ z)

        analytic = parameter_shift_grad(CircuitParams(angles), x, lambda z: weights)
        h = 1e-5
        fd = np.zeros_like(angles)
        for l in range(layers):
            for k in range(q):
                up, down = angles.copy(), angles.copy()
                up[l, k] += h
                down[l, k] -= h
                fd[l, k] = (loss_of_angles(up) - loss_of_angles(down)) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
        assert rel <= 1e-6

    @pytest.mark.parametrize("q,layers", [(1, 1), (2, 3), (4, 2)])
    def test_batched_shift_equals_sum_of_rows(self, q, layers):
        """Training's batched gradient is the sum of the per-row oracle gradients."""
        rng = np.random.default_rng(10 * q + layers)
        angles = rng.uniform(-np.pi, np.pi, (layers, q))
        x = rng.uniform(0.1, 1.0, (7, 2))
        dl_dz = rng.standard_normal((7, q))
        batched = qml._shift_grad(angles, x, dl_dz, q)
        rows = sum(
            parameter_shift_grad(CircuitParams(angles), x[i], lambda z, w=dl_dz[i]: w) for i in range(7)
        )
        assert np.linalg.norm(batched - rows) <= 1e-12 * np.linalg.norm(rows)


def _reference_ring(states, q):
    """The CNOT ring as q single CNOTs, each a bit flip of the basis index (rows of the batch)."""
    index = np.arange(2**q)
    for control in range(q):
        target = (control + 1) % q
        flipped = np.where((index >> (q - 1 - control)) & 1, index ^ (1 << (q - 1 - target)), index)
        states = states[flipped]
    return states


def _statevector_outputs(angles, row, q):
    """z of one feature row on the complex single-state path, gate by gate."""
    state = amplitude_embed(row, q)
    for layer in angles:
        state = entangling_layer(state, layer)
    return measure_z(state)


def _statevector_shift_grad(angles, x, dl_dz, q):
    """The parameter-shift rule evaluated one sample at a time on ``StateVector``s."""
    grad = np.zeros_like(angles)
    for index in np.ndindex(angles.shape):
        shift = np.zeros_like(angles)
        shift[index] = np.pi / 2.0
        for row, weights in zip(x, dl_dz):
            dz = (_statevector_outputs(angles + shift, row, q) - _statevector_outputs(angles - shift, row, q)) / 2.0
            grad[index] += weights @ dz
    return grad


class TestAdjointGradient:
    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("q", [1, 2, 4, 6, 8])
    def test_matches_shift_oracle(self, q, layers):
        """The sweep on the d feature-basis columns equals the per-sample shift rule, n < d included."""
        rng = np.random.default_rng(100 * q + layers)
        angles = rng.uniform(-np.pi, np.pi, (layers, q))
        for width in sorted({1, 2, 2**q}):
            for n in [9, *(n for n in (1, 3) if n < width)]:
                x = rng.uniform(-1.0, 1.0, (n, width))
                dl_dz = rng.standard_normal((n, q))
                oracle = _statevector_shift_grad(angles, x, dl_dz, q)
                columns = qml._circuit_columns(angles, width, q)
                adjoint = qml._adjoint_grad(angles, columns, qml._embed_batch(x, q), dl_dz, q)
                assert np.linalg.norm(adjoint - oracle) <= 1e-12 * np.linalg.norm(oracle), (width, n)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("q", range(2, 9))
    def test_gathered_ring_equals_single_cnots(self, q, dtype):
        rng = np.random.default_rng(q)
        states = rng.standard_normal((2**q, 5)).astype(dtype)
        if dtype is complex:
            states += 1j * rng.standard_normal((2**q, 5))
        # RY(0) is the identity to the bit, so a zero-angle layer is the ring alone
        ring = qml._layer_batch(states, np.zeros(q), q)
        assert ring.dtype == states.dtype and ring.flags.c_contiguous
        assert np.array_equal(ring, _reference_ring(states, q))
        assert np.array_equal(ring.take(qml._ring_permutation(q)[1], axis=0), states)

    @pytest.mark.parametrize("q", [1, 3, 6, 12])
    def test_batched_rows_equal_single_state_path(self, q):
        """Column j of the batch is the circuit on row j alone, as the complex StateVector runs it."""
        rng = np.random.default_rng(200 + q)
        angles = rng.uniform(-np.pi, np.pi, (2, q))
        x = rng.uniform(-1.0, 1.0, (6, min(2**q, 5)))
        batched = qml._forward_batch(angles, x, q)
        for row, z in zip(x, batched):
            assert np.max(np.abs(z - _statevector_outputs(angles, row, q))) <= 1e-14
            assert np.max(np.abs(z - circuit_outputs(CircuitParams(angles), row))) <= 1e-14

    def test_training_epoch_applies_three_gates_per_angle(self, monkeypatch):
        """The updated model's V, and two un-applied gates per angle in the backward sweep; plus the first V."""
        calls = []
        original = qml._apply_ry_batch

        def counting(states, angle, qubit):
            calls.append(qubit)
            return original(states, angle, qubit)

        monkeypatch.setattr(qml, "_apply_ry_batch", counting)
        layers, q, epochs = 3, 4, 2
        data = generate_synthetic_dataset(20, 2, 0.01, np.random.default_rng(25))
        model = init_hybrid_model(q, layers, 2, 2, np.random.default_rng(26))
        train_hybrid(data, model, epochs, 0.5, np.random.default_rng(27))
        assert len(calls) == (3 * epochs + 1) * layers * q

    def test_training_gates_act_on_feature_columns(self, monkeypatch):
        """Every gate of an epoch acts on the (2^q, d) feature-basis columns, whatever the sample count."""
        shapes = []
        original = qml._apply_ry_batch

        def recording(states, angle, qubit):
            shapes.append(states.shape)
            return original(states, angle, qubit)

        monkeypatch.setattr(qml, "_apply_ry_batch", recording)
        layers, q, epochs = 2, 5, 2
        per_count = []
        for n in (20, 200):
            shapes.clear()
            data = generate_synthetic_dataset(n, 2, 0.01, np.random.default_rng(28))
            model = init_hybrid_model(q, layers, 2, 2, np.random.default_rng(29))
            train_hybrid(data, model, epochs, 0.5, np.random.default_rng(30))
            per_count.append(list(shapes))
        assert per_count[0] == per_count[1]
        assert per_count[0] == [(2**q, 2)] * ((3 * epochs + 1) * layers * q)

    def test_training_embeds_train_split_once_and_twice_per_epoch(self, monkeypatch):
        """The training split once for every gradient, then one embedding per metrics split; no shift rule."""
        calls = []
        original = qml._embed_batch

        def counting(x, num_qubits):
            calls.append(len(x))
            return original(x, num_qubits)

        def no_shift(*args):
            raise AssertionError("training must not use the parameter-shift rule")

        monkeypatch.setattr(qml, "_embed_batch", counting)
        monkeypatch.setattr(qml, "_shift_grad", no_shift)
        data = generate_synthetic_dataset(20, 2, 0.01, np.random.default_rng(21))
        model = init_hybrid_model(3, 2, 2, 2, np.random.default_rng(22))
        train_hybrid(data, model, 4, 0.5, np.random.default_rng(23))
        assert calls == [16] + [16, 4] * 4

    def test_circuit_built_once_per_angle_vector(self, monkeypatch):
        """Each model builds V once: the given one, then one per epoch, reused by the metrics and the sweep."""
        calls = []
        original = qml._circuit_columns

        def counting(angles, width, num_qubits):
            calls.append(width)
            return original(angles, width, num_qubits)

        monkeypatch.setattr(qml, "_circuit_columns", counting)
        data = generate_synthetic_dataset(20, 2, 0.01, np.random.default_rng(31))
        model = init_hybrid_model(3, 2, 2, 2, np.random.default_rng(32))
        epochs = 5
        trained, _ = train_hybrid(data, model, epochs, 0.5, np.random.default_rng(33))
        assert calls == [2] * (epochs + 1)
        hybrid_predictions(trained, data.features)
        assert len(calls) == epochs + 1
        assert not trained.circuit.angles.flags.writeable
        with pytest.raises(ValueError):
            trained.circuit.angles[0, 0] = 0.0

    def test_circuit_params_copy_their_angles(self):
        angles = np.zeros((1, 2))
        params = CircuitParams(angles)
        angles[0, 0] = 1.0
        assert params.angles[0, 0] == 0.0 and angles.flags.writeable

    def test_simulation_stays_real(self):
        angles = np.random.default_rng(24).uniform(-np.pi, np.pi, (2, 3))
        assert qml._circuit_columns(angles, 2, 3).dtype == np.float64


class TestMetrics:
    def test_distance_accuracy_perfect(self):
        labels = np.arange(10)
        assert distance_accuracy(labels, labels, 0) == 1.0
        assert distance_accuracy(labels, labels, 3) == 1.0

    def test_off_by_one(self):
        labels = np.arange(10)
        preds = labels + 1
        assert distance_accuracy(preds, labels, 0) == 0.0
        assert distance_accuracy(preds, labels, 1) == 1.0

    def test_random_guess_rate(self):
        rng = np.random.default_rng(4)
        n, beams = 100_000, 16
        labels = rng.integers(0, beams, n)
        preds = rng.integers(0, beams, n)
        assert abs(distance_accuracy(preds, labels, 0) - 1 / 16) <= 0.01

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            distance_accuracy(np.arange(3), np.arange(4), 0)

    def test_confusion_matrix_diagonal_on_perfect(self):
        labels = np.array([0, 1, 2, 2, 1])
        counts = confusion_matrix(labels, labels, 3)
        assert np.array_equal(counts, np.diag([1, 2, 2]))

    def test_confusion_total_and_tally(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 5, 1000)
        preds = rng.integers(0, 5, 1000)
        counts = confusion_matrix(preds, labels, 5)
        assert counts.sum() == 1000
        slow = np.zeros((5, 5), dtype=int)
        for p, t in zip(preds, labels):
            slow[t, p] += 1
        assert np.array_equal(counts, slow)

    def test_confusion_rejects_out_of_range_indices(self):
        for preds, labels in (([-1, 0], [0, -2]), ([0, 1], [-1, 1]), ([0, 3], [0, 1]), ([0, 1], [3, 1])):
            with pytest.raises(InvalidInput):
                confusion_matrix(preds, labels, 3)

    def test_accuracy_equals_confusion_trace(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 7, 500)
        preds = rng.integers(0, 7, 500)
        counts = confusion_matrix(preds, labels, 7)
        assert distance_accuracy(preds, labels, 0) == counts.trace() / 500

    def test_uniform_logits_cross_entropy_is_log_beams(self):
        logits = np.zeros((10, 4))
        labels = np.arange(10) % 4
        assert cross_entropy(logits, labels) == math.log(4)


class TestSyntheticDataset:
    def test_noiseless_sectors_are_learnable_exactly(self):
        rng = np.random.default_rng(7)
        data = generate_synthetic_dataset(500, 4, 0.0, rng)
        centers = (np.arange(4) + 0.5) / 4 * 2 * np.pi - np.pi
        vecs = np.stack([np.cos(centers), np.sin(centers)], axis=1)
        scores = (data.features - 0.5) @ vecs.T
        preds = np.argmax(scores, axis=1)
        assert distance_accuracy(preds, data.labels, 0) == 1.0

    def test_histogram_deterministic(self):
        a = generate_synthetic_dataset(200, 8, 0.01, np.random.default_rng(8)).class_counts()
        b = generate_synthetic_dataset(200, 8, 0.01, np.random.default_rng(8)).class_counts()
        assert np.array_equal(a, b)

    def test_eight_beams_uniform_by_symmetry(self):
        rng = np.random.default_rng(9)
        data = generate_synthetic_dataset(10_000, 8, 0.0, rng)
        freq = data.class_counts() / 10_000
        assert np.all(np.abs(freq - 0.125) <= 0.02)

    def test_csv_roundtrip(self):
        rng = np.random.default_rng(10)
        data = generate_synthetic_dataset(50, 4, 0.01, rng)
        rows = dataset_csv_rows(data)
        back = load_dataset_csv(rows, 4)
        # 17 significant digits read back as the same float64
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)


class TestTraining:
    def test_zero_learning_rate_freezes_traces(self):
        rng = np.random.default_rng(11)
        data = generate_synthetic_dataset(40, 4, 0.01, rng)
        model = init_hybrid_model(3, 1, 2, 4, rng)
        _, trace = train_hybrid(data, model, epochs=4, learning_rate=0.0, rng=np.random.default_rng(0))
        train_rows = [r for r in trace if r["split"] == "train"]
        assert len(train_rows) == 4
        assert len({r["cross_entropy"] for r in train_rows}) == 1

    def test_deterministic_traces(self):
        rng = np.random.default_rng(12)
        data = generate_synthetic_dataset(40, 4, 0.01, rng)
        model = init_hybrid_model(2, 1, 2, 4, np.random.default_rng(1))
        _, a = train_hybrid(data, model, 3, 0.3, np.random.default_rng(2))
        _, b = train_hybrid(data, model, 3, 0.3, np.random.default_rng(2))
        assert a == b

    def test_separable_dataset_reaches_90_percent(self):
        rng = np.random.default_rng(13)
        data = generate_synthetic_dataset(200, 4, 0.01, rng)
        model = init_hybrid_model(4, 2, 2, 4, np.random.default_rng(3))
        trained, trace = train_hybrid(data, model, epochs=200, learning_rate=8.0, rng=np.random.default_rng(4))
        final_train = [r for r in trace if r["split"] == "train"][-1]
        assert final_train["acc_delta0"] >= 0.90
        # separability oracle: a plain linear classifier on the same features
        # clears an even higher bar
        from numpy.linalg import lstsq

        x = np.concatenate([data.features, np.ones((len(data.labels), 1))], axis=1)
        onehot = np.eye(4)[data.labels]
        w, *_ = lstsq(x, onehot, rcond=None)
        linear_preds = np.argmax(x @ w, axis=1)
        assert distance_accuracy(linear_preds, data.labels, 0) >= 0.95

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_samples_for_a_split_rejected(self, n):
        """Below 3 samples the 80/20 split leaves no validation row."""
        data = generate_synthetic_dataset(n, 1, 0.01, np.random.default_rng(15))
        model = init_hybrid_model(2, 1, 2, 1, np.random.default_rng(16))
        with pytest.raises(InvalidInput, match=">= 3 samples"):
            train_hybrid(data, model, 2, 0.5, np.random.default_rng(17))

    def test_three_samples_train(self):
        data = generate_synthetic_dataset(3, 2, 0.01, np.random.default_rng(18))
        model = init_hybrid_model(2, 1, 2, 2, np.random.default_rng(19))
        _, trace = train_hybrid(data, model, 2, 0.5, np.random.default_rng(20))
        assert [r["split"] for r in trace] == ["train", "val"] * 2
        assert all(math.isfinite(r["cross_entropy"]) for r in trace)

    def test_trace_row_count_and_keys(self):
        rng = np.random.default_rng(14)
        data = generate_synthetic_dataset(30, 4, 0.05, rng)
        model = init_hybrid_model(2, 1, 2, 4, rng)
        _, trace = train_hybrid(data, model, 5, 0.5, np.random.default_rng(5))
        assert len(trace) == 10
        assert all(set(r) == {"epoch", "split", "cross_entropy", "acc_delta0", "acc_delta1", "acc_delta2"} for r in trace)


class TestStateVectorType:
    def test_rejects_norm_violation(self):
        with pytest.raises(InvalidInput):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionMismatch):
            StateVector(np.ones(3, dtype=complex) / np.sqrt(3))

    def test_rejects_oversized_register(self):
        q = 13
        amp = np.zeros(2**q, dtype=complex)
        amp[0] = 1.0
        with pytest.raises(InvalidInput):
            StateVector(amp)


def _circuit(qubits=2):
    return CircuitParams(np.zeros((1, qubits)))


GUARDS = [
    pytest.param(lambda: CircuitParams(np.zeros(3)), DimensionMismatch, "layers, qubits", id="angles_1d"),
    pytest.param(lambda: CircuitParams(np.full((1, 2), np.nan)), InvalidInput, "finite", id="angles_nan"),
    pytest.param(lambda: HybridModel(_circuit(), np.zeros((4, 4)), np.zeros(3)), DimensionMismatch,
                 "disagree", id="head_bias_size"),
    pytest.param(lambda: HybridModel(_circuit(), np.zeros((4, 2)), np.zeros(4)), DimensionMismatch,
                 "classical features", id="head_without_features"),
    pytest.param(lambda: HybridModel(_circuit(), np.full((3, 4), np.nan), np.zeros(3)), InvalidInput,
                 "head weights and bias must be finite", id="head_nan_weights"),
    pytest.param(lambda: HybridModel(_circuit(), np.zeros((3, 4)), np.array([0.0, np.inf, 0.0])), InvalidInput,
                 "head weights and bias must be finite", id="head_inf_bias"),
    pytest.param(lambda: distance_accuracy([], [], 0), InvalidInput, "at least one sample", id="accuracy_empty"),
    pytest.param(lambda: cross_entropy(np.zeros((0, 3)), []), InvalidInput, "at least one sample",
                 id="cross_entropy_empty"),
    *(
        pytest.param(lambda args=args: generate_synthetic_dataset(*args, np.random.default_rng(0)), InvalidInput,
                     message, id=f"dataset_{name}")
        for name, args, message in (
            ("fractional_n", (10.5, 2, 0.01), "n must be an integer"),
            ("bool_beams", (10, True, 0.01), "num_beams must be an integer"),
            ("negative_noise", (10, 2, -1.0), "noise_sigma must be finite and >= 0"),
            ("nan_noise", (10, 2, math.nan), "noise_sigma must be finite and >= 0"),
            ("inf_noise", (10, 2, math.inf), "noise_sigma must be finite and >= 0"),
        )
    ),
    pytest.param(lambda: SyntheticBeamDataset(np.zeros((3, 2)), np.zeros(2), 4), DimensionMismatch,
                 "disagree", id="dataset_lengths"),
    pytest.param(lambda: SyntheticBeamDataset(np.zeros((2, 2)), np.array([0, 5]), 4), InvalidInput,
                 "num_beams", id="dataset_label_range"),
    pytest.param(lambda: amplitude_embed([], 2), ZeroVector, "at least one feature", id="embed_empty"),
    pytest.param(lambda: amplitude_embed([1.0], 0), InvalidInput, "qubit count", id="embed_no_qubits"),
    pytest.param(lambda: parameter_shift_grad(_circuit(), np.ones(2), lambda z: np.ones(3)),
                 DimensionMismatch, "qubit count", id="shift_grad_length"),
    pytest.param(lambda: confusion_matrix([0, 1], [0], 2), LengthMismatch, "length", id="confusion_lengths"),
    pytest.param(lambda: confusion_matrix([0], [0], 1.5), InvalidInput, "num_beams must be an integer",
                 id="confusion_fractional_beams"),
    pytest.param(lambda: SyntheticBeamDataset(np.zeros((2, 2)), np.array([0, 1]), 2.5), InvalidInput,
                 "num_beams must be an integer", id="dataset_fractional_beams"),
    pytest.param(lambda: cross_entropy([[0, 1, 2], [0, 0, 9]], [0, -1]), InvalidInput, "labels must lie",
                 id="cross_entropy_negative_label"),
    pytest.param(lambda: cross_entropy([[0, 1, 2], [0, 0, 9]], [0, 3]), InvalidInput, "labels must lie",
                 id="cross_entropy_label_too_large"),
    pytest.param(lambda: cross_entropy([[0, 1, 2], [0, 0, 9]], [0]), LengthMismatch, "length",
                 id="cross_entropy_lengths"),
    pytest.param(lambda: StateVector(np.array([np.nan, 0.0])), InvalidInput, "norm", id="state_nan"),
    pytest.param(lambda: StateVector(np.array(1.0)), DimensionMismatch, "not a vector", id="state_0d"),
    pytest.param(lambda: StateVector(np.ones((2, 2)) / 2.0), DimensionMismatch, "not a vector", id="state_2d"),
    pytest.param(lambda: CircuitParams(np.zeros((1, MAX_QUBITS + 1))), InvalidInput, "dense-simulation cap",
                 id="angles_too_many_qubits"),
    pytest.param(lambda: init_hybrid_model(MAX_QUBITS + 1, 1, 2, 2, np.random.default_rng(0)), InvalidInput,
                 "dense-simulation cap", id="init_model_too_many_qubits"),
    pytest.param(lambda: HybridModel(CircuitParams(np.zeros((1, MAX_QUBITS + 1))), np.zeros((2, MAX_QUBITS + 1)),
                                     np.zeros(2)), InvalidInput, "dense-simulation cap", id="model_too_many_qubits"),
    pytest.param(lambda: amplitude_embed([np.nan, 1.0], 1), InvalidInput, "finite", id="embed_nan"),
    pytest.param(lambda: amplitude_embed([np.inf, 1.0], 1), InvalidInput, "finite", id="embed_inf"),
    pytest.param(lambda: SyntheticBeamDataset(np.array([[0.1, np.nan], [0.2, 0.3]]), np.array([0, 1]), 2),
                 InvalidInput, "finite", id="dataset_nan_feature"),
    pytest.param(lambda: load_dataset_csv(["feature_0,feature_1,label", "0.1,nan,0", "0.2,0.3,1"], 2),
                 InvalidInput, "finite", id="dataset_csv_nan_feature"),
    pytest.param(lambda: hybrid_logits(init_hybrid_model(2, 1, 2, 2, np.random.default_rng(0)), np.ones((4, 3))),
                 DimensionMismatch, "expects 2", id="logits_feature_width"),
    pytest.param(
        lambda: train_hybrid(
            SyntheticBeamDataset(np.ones((8, 3)), np.arange(8) % 2, 2),
            init_hybrid_model(2, 1, 2, 2, np.random.default_rng(1)), 1, 1.0, np.random.default_rng(2),
        ),
        DimensionMismatch, "expects 2", id="train_feature_width",
    ),
    pytest.param(lambda: generate_synthetic_dataset(2, 4, 0.0, np.random.default_rng(0)), InvalidInput,
                 "one sample per beam", id="dataset_too_small"),
    pytest.param(
        lambda: train_hybrid(
            generate_synthetic_dataset(8, 2, 0.0, np.random.default_rng(0)),
            init_hybrid_model(2, 1, 2, 2, np.random.default_rng(1)), 0, 1.0, np.random.default_rng(2),
        ),
        InvalidInput, "epochs", id="no_epochs",
    ),
    *(
        pytest.param(
            lambda lr=lr: train_hybrid(
                generate_synthetic_dataset(8, 2, 0.0, np.random.default_rng(0)),
                init_hybrid_model(2, 1, 2, 2, np.random.default_rng(1)), 1, lr, np.random.default_rng(2),
            ),
            InvalidInput, "learning_rate", id=f"learning_rate_{name}",
        )
        for name, lr in (("negative", -1.0), ("inf", math.inf), ("nan", math.nan))
    ),
    *(
        pytest.param(
            lambda epochs=epochs: train_hybrid(
                generate_synthetic_dataset(8, 2, 0.0, np.random.default_rng(0)),
                init_hybrid_model(2, 1, 2, 2, np.random.default_rng(1)), epochs, 1.0, np.random.default_rng(2),
            ),
            InvalidInput, "epochs must be an integer", id=f"epochs_{name}",
        )
        for name, epochs in (("fractional", 2.5), ("bool", True), ("float", 2.0))
    ),
    *(
        pytest.param(
            lambda counts=counts: init_hybrid_model(*counts, np.random.default_rng(0)), InvalidInput,
            f"{name} must be an integer", id=f"init_model_{name}_{kind}",
        )
        for name, kind, counts in (
            ("num_qubits", "fractional", (2.5, 1, 2, 2)),
            ("num_qubits", "zero", (0, 1, 2, 2)),
            ("num_layers", "bool", (2, True, 2, 2)),
            ("num_layers", "fractional", (2, 1.5, 2, 2)),
            ("feature_dim", "float", (2, 1, 2.0, 2)),
            ("num_beams", "bool", (2, 1, 2, False)),
        )
    ),
]


@pytest.mark.parametrize("build,error,message", GUARDS)
def test_typed_guard(build, error, message):
    with pytest.raises(error, match=message):
        build()
