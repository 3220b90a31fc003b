"""Acceptance suite: ordinal-trend reproduction plus the property criteria.

One test per criterion; each prints a single ``ACCEPTANCE k: PASS/FAIL``
line with its key numbers (run ``pytest -s tests/test_acceptance.py`` to see
them all).  Trend criteria run at fixed seeds so a pass is reproducible.
"""

import time

import numpy as np
import pytest

from bdris.architectures import BdRisArchitecture, validate
from bdris.channel import ChannelRealization, ScenarioConfig, scenario_realizations
from bdris.harness import parse_config_text, run, run_power_comparison
from bdris.manifold import project_to_unitary, random_unitary, unitarity_defect
from bdris.optim import (
    ALGORITHMS,
    OptimizerConfig,
    ao_manifold,
    benchmark,
    euclidean_gradient,
    fp_sum_rate,
    mean_sum_rate,
    qnm_manifold,
    rzf_one_shot,
)
from bdris import qml
from bdris.qml import (
    CircuitParams,
    HybridModel,
    StateVector,
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
from bdris.seeding import derived_rng

FULL = BdRisArchitecture.fully_connected()
DIAG = BdRisArchitecture.diagonal()
SWEEP = (16, 32, 64, 128)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --------------------------------------------------------------------------
# shared expensive run for criteria 3 and 4

@pytest.fixture(scope="module")
def bench_run():
    start = time.monotonic()
    cfg = OptimizerConfig(seed=0, max_iterations=150)
    table = benchmark(["rzf", "fp", "ao", "qnm"], list(SWEEP), 50, cfg)
    return table, time.monotonic() - start


def mean_of(table, column, algo, n):
    return float(np.mean([r[column] for r in table if r["algorithm"] == algo and r["N"] == n]))


# --------------------------------------------------------------------------

def test_criterion_1_power_dominance_and_widening_gap():
    start = time.monotonic()
    cfg = parse_config_text(
        "experiment = power-comparison\n"
        "seed = 0\n"
        "trials = 2000\n"
        "element_counts = 8,16,32,64\n"
        "[channel]\n"
        "los_probability = 0.0\n"  # Rayleigh tag links, the asymptotic-oracle setting
    )
    lines = run_power_comparison(cfg)["results"][1:]
    powers = {}
    for line in lines:
        n, kind, trial, dbm = line.split(",")
        powers[(int(n), kind, int(trial))] = float(dbm)
    dominance = True
    mean_ok = True
    gaps = []
    for n in (8, 16, 32, 64):
        fc = np.array([powers[(n, "fully_connected", t)] for t in range(cfg.trials)])
        dg = np.array([powers[(n, "diagonal", t)] for t in range(cfg.trials)])
        dominance &= bool(np.all(fc >= dg))
        mean_ok &= float(np.mean(10 ** (fc / 10))) >= float(np.mean(10 ** (dg / 10)))
        gaps.append(float(np.mean(fc - dg)))
    widening = all(b >= a for a, b in zip(gaps, gaps[1:]))
    elapsed = time.monotonic() - start
    ok = dominance and mean_ok and widening and elapsed < 60.0
    report(
        1,
        ok,
        f"per-realization dominance={dominance}, mean dominance={mean_ok}, "
        f"mean dB gaps={[round(g, 3) for g in gaps]} widening={widening}, {elapsed:.1f}s",
    )
    assert dominance and mean_ok and widening
    assert elapsed < 60.0


def test_criterion_2_asymptotic_gap_magnitude():
    start = time.monotonic()
    rng = np.random.default_rng(20)
    n, trials = 64, 10_000
    b = random_complex(rng, trials, n) / np.sqrt(2)
    c = random_complex(rng, trials, n) / np.sqrt(2)
    p_full = np.sum(np.abs(b) ** 2, axis=1) * np.sum(np.abs(c) ** 2, axis=1)
    p_diag = np.sum(np.abs(b) * np.abs(c), axis=1) ** 2
    ratio = float(np.mean(p_full) / np.mean(p_diag))
    target = 16.0 / np.pi**2
    elapsed = time.monotonic() - start
    ok = abs(ratio / target - 1.0) <= 0.02 and elapsed < 60.0
    report(2, ok, f"mean power ratio {ratio:.4f} vs 16/pi^2 = {target:.4f} (+-2%), {elapsed:.1f}s")
    assert abs(ratio / target - 1.0) <= 0.02
    assert elapsed < 60.0


def test_criterion_3_sum_rate_trend(bench_run):
    table, elapsed = bench_run
    trends = {}
    for algo in ("rzf", "fp", "ao", "qnm"):
        seq = [mean_of(table, "sum_rate_bps_hz", algo, n) for n in SWEEP]
        trends[algo] = all(b >= a for a, b in zip(seq, seq[1:]))
    ok = all(trends.values()) and elapsed < 1800.0
    report(3, ok, f"mean sum rate non-decreasing per algorithm: {trends}, bench took {elapsed:.0f}s")
    assert all(trends.values())
    assert elapsed < 1800.0


def test_criterion_4_wall_time_ordering(bench_run):
    table, _ = bench_run
    others = ("fp", "ao", "qnm")
    rzf_lowest = all(
        mean_of(table, "wall_time_s", "rzf", n) < min(mean_of(table, "wall_time_s", a, n) for a in others)
        for n in SWEEP
    )
    n_max = max(SWEEP)
    qnm_time = mean_of(table, "wall_time_s", "qnm", n_max)
    qnm_highest = qnm_time > max(mean_of(table, "wall_time_s", a, n_max) for a in ("rzf", "fp", "ao"))
    ao_below = mean_of(table, "wall_time_s", "ao", n_max) < qnm_time
    times_at_max = {a: round(mean_of(table, "wall_time_s", a, n_max), 4) for a in ("rzf", "fp", "ao", "qnm")}
    ok = rzf_lowest and qnm_highest and ao_below
    report(
        4,
        ok,
        f"rzf lowest at every N={rzf_lowest}, qnm highest at N=128={qnm_highest}, "
        f"ao below qnm={ao_below}; mean seconds at N=128: {times_at_max}",
    )
    assert rzf_lowest
    assert qnm_highest
    assert ao_below


# --------------------------------------------------------------------------
# criterion 5 oracles

def grid_gain_max(reals, points=720):
    phases = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    e1 = np.exp(-1j * phases)[:, None, None]
    e2 = np.exp(-1j * phases)[None, :, None]
    total = np.zeros((points, points))
    for r in reals:
        for l in range(r.num_devices):
            w1 = r.ris_device[l, 0] * np.conj(r.bs_ris[0])
            w2 = r.ris_device[l, 1] * np.conj(r.bs_ris[1])
            h = r.direct[l][None, None, :] + e1 * w1[None, None, :] + e2 * w2[None, None, :]
            total += np.sum(np.abs(h) ** 2, axis=2)
    return float(np.max(total))


def grid_sum_rate_max(reals, points=720, chunk=24):
    rho = 10.0 ** (reals[0].tx_snr_db / 10.0)
    phases = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    e2 = np.exp(-1j * phases)
    l, m = reals[0].num_devices, reals[0].num_bs_antennas
    best = -np.inf
    for start in range(0, points, chunk):
        e1 = np.exp(-1j * phases[start : start + chunk])
        total = np.zeros((len(e1), points))
        for r in reals:
            w1 = r.ris_device[:, 0:1] * np.conj(r.bs_ris[0])[None, :]
            w2 = r.ris_device[:, 1:2] * np.conj(r.bs_ris[1])[None, :]
            h = (
                r.direct[None, None]
                + e1[:, None, None, None] * w1[None, None]
                + e2[None, :, None, None] * w2[None, None]
            ).reshape(-1, l, m)
            h_cols = h.transpose(0, 2, 1)
            gram = h_cols.conj().transpose(0, 2, 1) @ h_cols + (l / rho) * np.eye(l)
            w = h_cols @ np.linalg.inv(gram)
            norms = np.linalg.norm(w, axis=(1, 2), keepdims=True)
            w = np.divide(w, norms, out=np.zeros_like(w), where=norms > 0)
            cross = np.conj(h) @ w
            diag = np.abs(np.diagonal(cross, axis1=1, axis2=2)) ** 2
            sig = rho * diag
            intf = rho * (np.sum(np.abs(cross) ** 2, axis=2) - diag)
            total += (np.sum(np.log1p(sig / (intf + 1.0)), axis=1) / np.log(2.0)).reshape(
                len(e1), points
            )
        best = max(best, float(np.max(total)) / len(reals))
    return best


def gain_of(theta, reals):
    return sum(
        float(np.sum(np.abs(r.direct + r.ris_device @ np.conj(theta) @ np.conj(r.bs_ris)) ** 2))
        for r in reals
    )


def test_criterion_5_optimizer_oracles():
    start = time.monotonic()
    scen = ScenarioConfig(snapshots=3, steps_per_snapshot=2)
    worst_grid = {"rzf": 1.0, "ao": 1.0, "qnm": 1.0, "fp": 1.0}
    for seed in range(3):
        reals = scenario_realizations(scen, 2, derived_rng(seed, "acceptance-grid"))
        gain_star = grid_gain_max(reals)
        for name in ("rzf", "ao", "qnm"):
            res = ALGORITHMS[name](reals, DIAG, OptimizerConfig(seed=seed))
            worst_grid[name] = min(worst_grid[name], gain_of(res.theta, reals) / gain_star)
        rate_star = grid_sum_rate_max(reals)
        fp = fp_sum_rate(reals, DIAG, OptimizerConfig(seed=seed))
        worst_grid["fp"] = min(worst_grid["fp"], mean_sum_rate(fp.theta, reals) / rate_star)
    worst_tag = 1.0
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        b, c = random_complex(rng, 8), random_complex(rng, 8)
        real = ChannelRealization(
            direct=np.zeros((1, 1)), ris_device=b[None, :], bs_ris=c[:, None]
        )
        optimum = float(np.sum(np.abs(b) ** 2) * np.sum(np.abs(c) ** 2))
        for solver in (ao_manifold, qnm_manifold):
            res = solver(real, FULL, OptimizerConfig(seed=seed))
            worst_tag = min(worst_tag, res.objective_trace[-1] / optimum)
    elapsed = time.monotonic() - start
    grid_ok = all(v >= 0.99 for v in worst_grid.values())
    tag_ok = worst_tag >= 0.99
    ok = grid_ok and tag_ok and elapsed < 300.0
    report(
        5,
        ok,
        f"min fraction of 720x720 grid optimum {({k: round(v, 5) for k, v in worst_grid.items()})}, "
        f"min fraction of closed-form single-tag optimum {worst_tag:.5f}, {elapsed:.0f}s",
    )
    assert grid_ok and tag_ok
    assert elapsed < 300.0


def test_criterion_6_numerical_property_suite():
    start = time.monotonic()
    # analytic gradient vs central differences on 20 random small instances
    worst_rel = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        l, m, n = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 5))
        reals = [
            ChannelRealization(
                direct=random_complex(rng, l, m),
                ris_device=random_complex(rng, l, n),
                bs_ris=random_complex(rng, n, m),
            )
            for _ in range(int(rng.integers(1, 3)))
        ]
        theta = random_complex(rng, n, n)
        g = euclidean_gradient(theta, reals)
        h = 1e-5
        fd = np.zeros((n, n, 2))
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                fd[i, j, 0] = (gain_of(theta + h * e, reals) - gain_of(theta - h * e, reals)) / (2 * h)
                fd[i, j, 1] = (gain_of(theta + 1j * h * e, reals) - gain_of(theta - 1j * h * e, reals)) / (2 * h)
        analytic = np.stack([2 * np.real(g), 2 * np.imag(g)], axis=2)
        worst_rel = max(worst_rel, np.linalg.norm(analytic - fd) / np.linalg.norm(analytic))
    grad_ok = worst_rel <= 1e-6

    # iterate feasibility and trace monotonicity for the three iterative solvers
    rng = np.random.default_rng(77)
    reals = [
        ChannelRealization(
            direct=random_complex(rng, 2, 2),
            ris_device=random_complex(rng, 2, 4),
            bs_ris=random_complex(rng, 4, 2),
        )
        for _ in range(2)
    ]
    drift = 0.0
    monotone = True
    for solver, arch in ((ao_manifold, FULL), (ao_manifold, DIAG), (qnm_manifold, FULL), (fp_sum_rate, FULL)):
        iterates = []
        res = solver(reals, arch, OptimizerConfig(seed=5, max_iterations=60), iterate_callback=iterates.append)
        for theta in iterates:
            drift = max(drift, unitarity_defect(theta))
            assert validate(theta, arch, tolerance=1e-8).valid
        trace = res.objective_trace
        monotone &= all(b >= a for a, b in zip(trace, trace[1:]))
    drift_ok = drift <= 1e-8

    # polar projection: idempotent and nearest
    rng = np.random.default_rng(99)
    idem = 0.0
    nearest = True
    for _ in range(100):
        m = random_complex(rng, 4, 4)
        once = project_to_unitary(m).entries
        idem = max(idem, float(np.max(np.abs(project_to_unitary(once).entries - once))))
        other = random_unitary(4, rng).entries
        nearest &= np.linalg.norm(once - m) <= np.linalg.norm(other - m)
    polar_ok = idem <= 1e-12 and nearest
    elapsed = time.monotonic() - start
    ok = grad_ok and drift_ok and monotone and polar_ok and elapsed < 120.0
    report(
        6,
        ok,
        f"gradient rel err {worst_rel:.2e} (<=1e-6), iterate drift {drift:.2e} (<=1e-8), "
        f"monotone traces={monotone}, polar idempotence {idem:.2e} + nearest={nearest}, {elapsed:.0f}s",
    )
    assert grad_ok and drift_ok and monotone and polar_ok
    assert elapsed < 120.0


def test_criterion_7_qml_suite():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    # statevector norm drift across embeddings and layers
    drift = 0.0
    for q in (1, 2, 3, 4):
        state = amplitude_embed(rng.uniform(0.1, 1.0, 2**q), q)
        for _ in range(5):
            state = entangling_layer(state, rng.uniform(-np.pi, np.pi, q))
            drift = max(drift, abs(float(np.linalg.norm(state.amplitudes)) - 1.0))
    norm_ok = drift <= 1e-12

    # layer unitarity for q <= 4
    unit_defect = 0.0
    for q in (2, 3, 4):
        angles = rng.uniform(-np.pi, np.pi, q)
        dim = 2**q
        matrix = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[col] = 1.0
            matrix[:, col] = entangling_layer(StateVector(basis), angles).amplitudes
        unit_defect = max(unit_defect, float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))))
    unitary_ok = unit_defect <= 1e-10

    # parameter shift vs finite differences
    worst_rel = 0.0
    for seed in range(10):
        inner = np.random.default_rng(seed)
        q = int(inner.integers(1, 4))
        layers = int(inner.integers(1, 3))
        angles = inner.uniform(-np.pi, np.pi, (layers, q))
        x = inner.uniform(0.1, 1.0, int(inner.integers(1, 2**q + 1)))
        weights = inner.standard_normal(q)
        analytic = parameter_shift_grad(CircuitParams(angles), x, lambda z: weights)
        h = 1e-5
        fd = np.zeros_like(angles)
        for l in range(layers):
            for k in range(q):
                up, down = angles.copy(), angles.copy()
                up[l, k] += h
                down[l, k] -= h
                fd[l, k] = (
                    float(weights @ circuit_outputs(CircuitParams(up), x))
                    - float(weights @ circuit_outputs(CircuitParams(down), x))
                ) / (2 * h)
        worst_rel = max(worst_rel, np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12))
    shift_ok = worst_rel <= 1e-6

    # the training path: V = _circuit_columns has orthonormal columns (the
    # whole circuit is orthogonal for q <= 4), and _adjoint_grad matches
    # central finite differences of the training loss
    column_defect = 0.0
    for q in (1, 2, 3, 4, 6, 12):
        columns = qml._circuit_columns(rng.uniform(-np.pi, np.pi, (2, q)), 2**q if q <= 4 else 2, q)
        column_defect = max(column_defect, float(np.max(np.abs(columns.T @ columns - np.eye(columns.shape[1])))))
    columns_ok = column_defect <= 1e-10
    worst_adjoint = 0.0
    for seed in range(5):
        inner = np.random.default_rng(100 + seed)
        q, layers = int(inner.integers(1, 7)), int(inner.integers(1, 4))
        data = generate_synthetic_dataset(40, 4, 0.05, inner)
        angles = inner.uniform(-np.pi, np.pi, (layers, q))
        weights, bias = inner.standard_normal((4, q + 2)), inner.standard_normal(4)

        def training_loss(a):
            return cross_entropy(hybrid_logits(HybridModel(CircuitParams(a), weights, bias), data.features), data.labels)

        model = HybridModel(CircuitParams(angles), weights, bias)
        logits = hybrid_logits(model, data.features)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        dlogits = (exp / exp.sum(axis=1, keepdims=True) - np.eye(4)[data.labels]) / len(data.labels)
        unit = qml._embed_batch(data.features, q)
        adjoint = qml._adjoint_grad(angles, model.columns, unit, dlogits @ weights[:, :q], q)
        h = 1e-5
        fd = np.zeros_like(angles)
        for index in np.ndindex(angles.shape):
            step = np.zeros_like(angles)
            step[index] = h
            fd[index] = (training_loss(angles + step) - training_loss(angles - step)) / (2 * h)
        worst_adjoint = max(worst_adjoint, np.linalg.norm(adjoint - fd) / max(np.linalg.norm(adjoint), 1e-12))
    adjoint_ok = worst_adjoint <= 1e-6

    # separable training benchmark
    data = generate_synthetic_dataset(200, 4, 0.01, np.random.default_rng(13))
    model = init_hybrid_model(4, 2, 2, 4, np.random.default_rng(3))
    trained, trace = train_hybrid(data, model, 200, 8.0, np.random.default_rng(4))
    final_acc = [r for r in trace if r["split"] == "train"][-1]["acc_delta0"]
    train_ok = final_acc >= 0.90

    # metric identity on the trained model
    preds = hybrid_predictions(trained, data.features)
    counts = confusion_matrix(preds, data.labels, 4)
    identity_ok = distance_accuracy(preds, data.labels, 0) == counts.trace() / len(data.labels)
    elapsed = time.monotonic() - start
    ok = norm_ok and unitary_ok and shift_ok and columns_ok and adjoint_ok and train_ok and identity_ok
    ok = ok and elapsed < 300.0
    report(
        7,
        ok,
        f"norm drift {drift:.1e} (<=1e-12), layer unitarity {unit_defect:.1e} (<=1e-10), "
        f"shift-vs-FD {worst_rel:.1e} (<=1e-6), circuit columns {column_defect:.1e} (<=1e-10), "
        f"adjoint-vs-FD {worst_adjoint:.1e} (<=1e-6), train acc {final_acc:.3f} (>=0.90), "
        f"accuracy==trace(confusion)/n={identity_ok}, {elapsed:.0f}s",
    )
    assert norm_ok and unitary_ok and shift_ok and columns_ok and adjoint_ok and train_ok and identity_ok
    assert elapsed < 300.0


def test_criterion_8_reproducibility(tmp_path):
    configs = {
        "power-comparison": "experiment = power-comparison\ntrials = 30\nelement_counts = 4,8\n",
        "beamforming-bench": (
            "experiment = beamforming-bench\ntrials = 2\nelement_counts = 2,4\n"
            "algorithms = rzf,ao\n[channel]\nsnapshots = 2\nsteps_per_snapshot = 2\n"
            "[optimizer]\nmax_iterations = 20\n"
        ),
        "qml-beam": "experiment = qml-beam\n[qml]\nnum_samples = 40\nepochs = 3\nnum_qubits = 2\nnum_layers = 1\n",
    }
    identical = True
    for name, text in configs.items():
        pair = []
        for tag in ("a", "b"):
            cfg = parse_config_text(f"output_dir = {tmp_path}/{name}-{tag}\nseed = 3\n" + text)
            run(cfg, no_timing=True)
            pair.append((tmp_path / f"{name}-{tag}"))
        for filename in ("results.csv", "plotspec.csv"):
            first = (pair[0] / filename).read_bytes()
            second = (pair[1] / filename).read_bytes()
            identical &= first == second
    report(8, identical, "byte-identical non-timing CSVs across rerun pairs for all three experiments")
    assert identical
