"""Path loss, fading moments, realization generation, mobility and the cascaded-channel maps."""

import ast
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bdris import optim
from bdris.architectures import BdRisArchitecture, validate
from bdris.channel import (
    CascadedChannels,
    ChannelRealization,
    ChannelStack,
    Device,
    FadingModel,
    NetworkGeometry,
    PathLossModel,
    Rectangle,
    ScenarioConfig,
    generate_realization,
    initial_devices,
    mobility_snapshots,
    path_loss_db,
    path_loss_linear,
    random_waypoint_step,
    sample_fading,
    scenario_realizations,
)
from bdris.errors import BelowReferenceDistance, DimensionMismatch, InvalidInput
from bdris.harness import realization_csv_rows, write_realization_csv
from bdris.manifold import BlockStructure, polar_factor, skew_part
from bdris.optim import channel_gain_objective, euclidean_gradient
from bdris.seeding import derive_seed, derived_rng


class TestPathLoss:
    def test_reference_distance_gives_reference_loss(self):
        for exponent in (1.0, 2.0, 3.5):
            assert path_loss_db(1.0, exponent) == -30.0

    def test_hand_computed_values(self):
        assert path_loss_db(100.0, 2.0) == pytest.approx(-70.0, abs=1e-12)
        assert path_loss_db(10.0, 3.5) == pytest.approx(-65.0, abs=1e-12)

    def test_below_reference_rejected(self):
        with pytest.raises(BelowReferenceDistance):
            path_loss_db(0.5, 2.0)

    def test_strictly_decreasing_in_distance_and_exponent(self):
        distances = [1.5, 3.0, 10.0, 50.0, 200.0]
        losses = [path_loss_db(d, 2.2) for d in distances]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        exponents = [1.0, 2.0, 2.2, 3.5, 4.0]
        losses = [path_loss_db(10.0, e) for e in exponents]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_model_validation(self):
        with pytest.raises(InvalidInput):
            PathLossModel(exponent_device_bs=0.5)
        with pytest.raises(InvalidInput):
            PathLossModel(reference_distance_m=0.0)


class TestFading:
    def test_pure_los_is_unit_modulus(self):
        h = sample_fading(50, 50, math.inf, np.random.default_rng(0))
        assert np.allclose(np.abs(h), 1.0, atol=1e-12)

    def test_rayleigh_unit_power(self):
        h = sample_fading(1000, 1000, -math.inf, np.random.default_rng(1))
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) <= 0.005

    def test_rician_unit_power(self):
        h = sample_fading(1000, 1000, 10.0, np.random.default_rng(2))
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) <= 0.005

    def test_deterministic(self):
        a = sample_fading(4, 4, 3.0, np.random.default_rng(9))
        b = sample_fading(4, 4, 3.0, np.random.default_rng(9))
        assert np.array_equal(a, b)


def unit_test_geometry():
    """BS and RIS two meters apart with the area between them."""
    return NetworkGeometry(
        bs_position=np.zeros(3),
        ris_position=np.array([2.0, 0.0, 0.0]),
        device_area=Rectangle(0.9, 1.5, -0.5, 0.5),
    )


class TestGenerateRealization:
    def test_link_power_matches_path_loss(self):
        # device 1 m from BS and 1 m from RIS: E||A||^2 = 1e-3 * M per link
        geometry = unit_test_geometry()
        device = Device(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0)
        rng = np.random.default_rng(4)
        fading = FadingModel(device_links_rician_k_db=10.0)
        m, n, draws = 4, 8, 2000
        acc_a = acc_b = 0.0
        for _ in range(draws):
            real = generate_realization(
                geometry, [device] * 50, PathLossModel(), fading, n, rng, num_bs_antennas=m
            )
            acc_a += np.sum(np.abs(real.direct) ** 2)
            acc_b += np.sum(np.abs(real.ris_device) ** 2)
        mean_a = acc_a / (draws * 50)
        mean_b = acc_b / (draws * 50)
        assert mean_a == pytest.approx(1e-3 * m, rel=0.01)
        assert mean_b == pytest.approx(1e-3 * n, rel=0.01)

    def test_backbone_power(self):
        # >= 1e5 entry draws, 1% tolerance on the squared-norm expectation
        geometry = NetworkGeometry()
        device = Device(np.array([120.0, 0.0]), np.array([120.0, 0.0]), 0.0)
        rng = np.random.default_rng(8)
        total = 0.0
        n, m, draws = 16, 4, 1600
        for _ in range(draws):
            real = generate_realization(
                geometry, [device], PathLossModel(), FadingModel(), n, rng, num_bs_antennas=m
            )
            total += np.sum(np.abs(real.bs_ris) ** 2)
        expected = path_loss_linear(100.0, 2.0) * n * m
        assert total / draws == pytest.approx(expected, rel=0.01)

    def test_zero_devices_rejected(self):
        with pytest.raises(InvalidInput):
            generate_realization(
                NetworkGeometry(), [], PathLossModel(), FadingModel(), 4, np.random.default_rng(0)
            )

    def test_deterministic(self):
        geometry = NetworkGeometry()
        devices = initial_devices(3, geometry.device_area, (0.5, 2.0), np.random.default_rng(5))
        a = generate_realization(
            geometry, devices, PathLossModel(), FadingModel(), 8, np.random.default_rng(77)
        )
        b = generate_realization(
            geometry, devices, PathLossModel(), FadingModel(), 8, np.random.default_rng(77)
        )
        assert np.array_equal(a.direct, b.direct)
        assert np.array_equal(a.ris_device, b.ris_device)
        assert np.array_equal(a.bs_ris, b.bs_ris)

    def test_below_reference_distance_propagates(self):
        geometry = unit_test_geometry()
        device = Device(np.array([0.95, 0.0]), np.array([0.95, 0.0]), 0.0)  # 0.95 m from BS
        with pytest.raises(BelowReferenceDistance):
            generate_realization(
                geometry, [device], PathLossModel(), FadingModel(), 4, np.random.default_rng(0)
            )

    def test_realization_shape_validation(self):
        with pytest.raises(InvalidInput):
            ChannelRealization(
                direct=np.zeros((2, 4)), ris_device=np.zeros((2, 8)), bs_ris=np.zeros((4, 8))
            )
        with pytest.raises(InvalidInput):
            ChannelRealization(
                direct=np.full((1, 2), np.nan), ris_device=np.zeros((1, 3)), bs_ris=np.zeros((3, 2))
            )


def random_realization(rng, l=2, m=3, n=4, tx_snr_db=18.0):
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return ChannelRealization(draw(l, m), draw(l, n), draw(n, m), tx_snr_db=tx_snr_db)


class TestChannelStack:
    def test_stacks_snapshots_in_order(self):
        rng = np.random.default_rng(30)
        reals = [random_realization(rng) for _ in range(3)]
        stack = ChannelStack(reals)
        assert stack.direct.shape == (3, 2, 3) and stack.num_elements == 4
        assert stack.tx_snr_db == 18.0
        for p, real in enumerate(reals):
            assert np.array_equal(stack.direct[p], real.direct)
            assert np.array_equal(stack.ris_device[p], real.ris_device)
            assert np.array_equal(stack.bs_ris[p], real.bs_ris)

    def test_single_realization_is_one_snapshot(self):
        real = random_realization(np.random.default_rng(31))
        stack = ChannelStack(real)
        assert stack.direct.shape == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            ChannelStack([])

    @pytest.mark.parametrize("shape", [(3, 3, 4), (2, 2, 4), (2, 3, 5)], ids=["L", "M", "N"])
    def test_mixed_shapes_rejected(self, shape):
        rng = np.random.default_rng(32)
        l, m, n = shape
        with pytest.raises(DimensionMismatch):
            ChannelStack([random_realization(rng), random_realization(rng, l=l, m=m, n=n)])

    def test_mixed_snr_rejected(self):
        rng = np.random.default_rng(33)
        with pytest.raises(InvalidInput, match="tx_snr_db"):
            ChannelStack([random_realization(rng), random_realization(rng, tx_snr_db=10.0)])


FULL = BdRisArchitecture.fully_connected()
# diagonal and equal groups
BLOCK_ARCHS = [BdRisArchitecture.diagonal(), BdRisArchitecture.group_connected(BlockStructure((4, 4)))]
BLOCK_IDS = ["diag", "equal"]


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestCascadedChannels:
    """``CascadedChannels`` on block stacks equals the whole-matrix objective and gradient."""

    @pytest.mark.parametrize("arch", [FULL] + BLOCK_ARCHS, ids=["full"] + BLOCK_IDS)
    def test_matches_whole_matrix_forms(self, arch):
        rng = np.random.default_rng(78)
        reals = scenario_realizations(ScenarioConfig(), 8, rng)
        structure = arch.unitary_blocks(8)
        problem = CascadedChannels(ChannelStack(reals), structure)
        for blocks in (optim._random_blocks(structure.shape, rng), _gather(structure, random_complex(rng, 8, 8))):
            theta = structure.unpack(blocks)
            f, g = problem.value_and_grad(blocks)
            expected_f = channel_gain_objective(theta, reals)
            expected_g = _gather(structure, euclidean_gradient(theta, reals))
            assert problem.value(blocks) == f
            if arch is FULL:
                assert f == expected_f and np.array_equal(g, expected_g)
            else:
                assert f == pytest.approx(expected_f, rel=1e-12)
                assert np.linalg.norm(g - expected_g) <= 1e-12 * np.linalg.norm(expected_g)
        # the two linear maps against their dense forms: sum_p R_p^T X_p B_p† and R conj(D) conj(B)
        stack = ChannelStack(reals)
        rows = random_complex(rng, *stack.direct.shape)
        d_blocks = _gather(structure, random_complex(rng, 8, 8))
        d = structure.unpack(d_blocks)
        device_t = stack.ris_device.transpose(0, 2, 1).copy()
        bs_dag = np.conj(stack.bs_ris).transpose(0, 2, 1).copy()
        pairs = [
            (problem.adjoint(rows), _gather(structure, np.sum(device_t @ rows @ bs_dag, axis=0))),
            (problem.reflected(d_blocks), stack.ris_device @ np.conj(d) @ np.conj(stack.bs_ris)),
        ]
        for got, want in pairs:
            if arch is FULL:
                assert np.array_equal(got, want)
            else:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _gather(structure, m):
    """The (G, k, k) stack of an N x N matrix's blocks, one slice per block."""
    k = structure.shape[1]
    return np.stack([m[i : i + k, i : i + k] for i in range(0, structure.dimension, k)])


def _riemannian_norm(problem, theta):
    """Gain and norm of its Riemannian gradient skew(Theta_g† G_g) at the block stack ``theta``."""
    f, grad = problem.value_and_grad(theta)
    return f, float(np.linalg.norm(skew_part(theta.conj().swapaxes(-1, -2) @ grad)))


def _haar_blocks(rng, shape):
    return polar_factor(random_complex(rng, *shape) / np.sqrt(2.0))


def _links(rng, l, m, n, snapshots, ris_device=None, bs_ris=None):
    """Realizations with random links, or the given ``ris_device`` / ``bs_ris`` in every snapshot."""
    return [
        ChannelRealization(
            random_complex(rng, l, m),
            random_complex(rng, l, n) if ris_device is None else ris_device,
            random_complex(rng, n, m) if bs_ris is None else bs_ris,
        )
        for _ in range(snapshots)
    ]


class TestCompression:
    """``CascadedChannels.compressed`` is exact: the reduced blocks see the same gain and gradient norm."""

    GROUPS_64 = BlockStructure((64, 64))

    def cases(self):
        """(label, realizations, structure) with t = P max(L, M) below the block size."""
        rng = np.random.default_rng(91)
        u, v = random_complex(rng, 24), random_complex(rng, 5)
        return [
            ("default_full_64", scenario_realizations(ScenarioConfig(), 64, rng), BlockStructure((64,))),
            ("default_groups_64", scenario_realizations(ScenarioConfig(), 128, rng), self.GROUPS_64),
            ("zero_device_links", _links(rng, 2, 2, 24, 3, ris_device=np.zeros((2, 24))), BlockStructure((24,))),
            ("rank_one_backbone", _links(rng, 2, 2, 24, 3, bs_ris=np.outer(u, v[:2])), BlockStructure((24,))),
            ("padded_l_below_m", _links(rng, 2, 5, 24, 3), BlockStructure((24,))),
            ("padded_m_below_l", _links(rng, 5, 2, 48, 3), BlockStructure((24, 24))),
        ]

    def test_gain_and_gradient_norm_match_at_the_dilation(self):
        rng = np.random.default_rng(92)
        for label, reals, structure in self.cases():
            problem = CascadedChannels(ChannelStack(reals), structure)
            reduced, dilate = problem.compressed()
            p, l, m = ChannelStack(reals).direct.shape
            assert reduced.structure.shape == (structure.shape[0], p * max(l, m), p * max(l, m)), label
            x = _haar_blocks(rng, reduced.structure.shape)
            theta = dilate(x)
            assert theta.shape == structure.shape, label
            assert np.max(np.abs(theta.conj().swapaxes(-1, -2) @ theta - np.eye(structure.shape[1]))) <= 1e-12
            (f, g), (f_t, g_t) = _riemannian_norm(problem, theta), _riemannian_norm(reduced, x)
            assert f == pytest.approx(f_t, rel=1e-12), label
            assert g == pytest.approx(g_t, rel=1e-12), label

    @pytest.mark.parametrize("n", [40, 16], ids=["N_is_t", "N_below_t"])
    def test_nothing_to_compress(self, n):
        rng = np.random.default_rng(94)
        structure = BlockStructure((n,))
        problem = CascadedChannels(ChannelStack(scenario_realizations(ScenarioConfig(), n, rng)), structure)
        assert problem.compressed() is None

    @pytest.mark.parametrize("name", ["rzf", "fp", "ao", "qnm"])
    def test_solves_at_or_below_t_are_unchanged(self, name, monkeypatch):
        """With N <= t the solve never compresses: its rows equal those of a solve that cannot."""
        cfg = optim.OptimizerConfig(seed=95, max_iterations=25)

        def rows():
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in optim.benchmark([name], [16, 40], 2, cfg)]

        solved = rows()
        assert [r["block_size"] for r in solved] == [16, 16, 40, 40]
        monkeypatch.setattr(CascadedChannels, "compressed", lambda self: None)
        assert solved == rows()

    @pytest.mark.parametrize("name", ["ao", "qnm"])
    def test_compressed_solve_follows_the_full_size_solve(self, name):
        """From the dilated start the full-size ascent is the reduced one: same trace to rounding.

        On the fully-connected surface at N = 128 and on two groups of 64,
        both of which compress to t = 40.
        """
        reals = scenario_realizations(ScenarioConfig(), 128, np.random.default_rng(96))
        cfg = optim.OptimizerConfig(seed=97, max_iterations=8)
        for arch, k in ((FULL, 128), (BdRisArchitecture.group_connected(self.GROUPS_64), 64)):
            starts = []
            reduced = optim.ALGORITHMS[name](reals, arch, cfg, iterate_callback=starts.append)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(CascadedChannels, "compressed", lambda self: None)
                patch.setattr(optim, "_random_blocks", lambda shape, rng: _gather(arch.unitary_blocks(128), starts[0]))
                full = optim.ALGORITHMS[name](reals, arch, cfg)
            assert (reduced.block_size, full.block_size) == (40, k)
            assert reduced.iterations == full.iterations
            assert np.allclose(reduced.objective_trace, full.objective_trace, rtol=1e-9, atol=0.0)
            assert np.max(np.abs(reduced.theta - full.theta)) <= 1e-8

    @pytest.mark.parametrize("name", ["rzf", "fp"])
    @pytest.mark.parametrize("n", [64, 128])
    def test_aligned_solves_follow_the_full_size_solve(self, name, n):
        """RZF and FP start at the cross-term alignment, whose dilation is the full-size one's maximizer.

        So with no matched start the compressed solve makes the full-size
        solve's iterations, and its trace and judged rate agree.  At
        tx_snr_db = 100 FP moves for several iterations; over
        default_rng(7..10), N = 64 and 128 and a cap of 150, the largest
        trace difference measured was 3.5e-9 relative (FP, N = 64,
        default_rng(10)), so the bound is 1e-8.
        """
        reals = scenario_realizations(ScenarioConfig(tx_snr_db=100.0), n, np.random.default_rng(10))
        cfg = optim.OptimizerConfig(seed=10, max_iterations=150)
        reduced = optim.ALGORITHMS[name](reals, FULL, cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CascadedChannels, "compressed", lambda self: None)
            full = optim.ALGORITHMS[name](reals, FULL, cfg)
        assert (reduced.block_size, full.block_size) == (40, n)
        assert reduced.iterations == full.iterations
        assert np.allclose(reduced.objective_trace, full.objective_trace, rtol=1e-8, atol=0.0)
        rates = [optim.mean_sum_rate(r.theta, reals) for r in (reduced, full)]
        assert rates[0] == pytest.approx(rates[1], rel=1e-8)

    @pytest.mark.parametrize("name", ["rzf", "fp", "ao", "qnm"])
    def test_groups_of_64_compress_per_block(self, name):
        reals = scenario_realizations(ScenarioConfig(), 128, np.random.default_rng(98))
        arch = BdRisArchitecture.group_connected(self.GROUPS_64)
        iterates = []
        report = {} if name == "rzf" else {"iterate_callback": iterates.append}
        result = optim.ALGORITHMS[name](reals, arch, optim.OptimizerConfig(seed=99, max_iterations=30), **report)
        assert result.block_size == 40
        if name in ("ao", "qnm"):
            assert len(iterates) == result.iterations + 1
        for theta in iterates + [result.theta]:
            assert validate(theta, arch, tolerance=1e-8).valid
        if name == "fp":  # the start's rate, on the reduced channels, is the rate of its dilation
            assert result.objective_trace[0] == pytest.approx(optim.mean_sum_rate(iterates[0], reals), rel=1e-12)
        else:
            assert result.objective_trace[-1] == pytest.approx(channel_gain_objective(result.theta, reals), rel=1e-12)


def _link_products(source: str) -> list[int]:
    """Lines of ``source`` with a matrix product (``@``, matmul, dot, einsum, ...) on ``ris_device`` or ``bs_ris``."""
    products = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot", "multi_dot"}
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in products:
            operands = [node.func, *node.args]
        else:
            continue
        names = {getattr(n, "attr", getattr(n, "id", None)) for o in operands for n in ast.walk(o)}
        if names & {"ris_device", "bs_ris"}:
            lines.add(node.lineno)
    return sorted(lines)


def test_only_the_solve_frame_compresses():
    """``.compressed(`` is called at one place in ``src/bdris``: the solve frame every optimizer runs in."""
    src = Path(__file__).resolve().parents[1] / "src" / "bdris"
    found = [
        (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "compressed"
    ]
    assert [name for name, _ in found] == ["optim.py"], found


def test_only_channel_applies_the_links():
    """No module of ``src/bdris`` but ``channel`` applies a matrix product to ``ris_device`` or ``bs_ris``.

    ``CascadedChannels`` is the one implementation of the cascaded channel
    h = a + R conj(Theta) conj(B); a product on the links anywhere else is
    a second copy of it.
    """
    dense = "h = r.direct + r.ris_device @ np.conj(t) @ np.conj(r.bs_ris)\nc = np.einsum('pln,pnm->plm', ris_device, x)"
    assert _link_products(dense) == [1, 2]
    src = Path(__file__).resolve().parents[1] / "src" / "bdris"
    found = [
        (path.name, lineno)
        for path in sorted(src.glob("*.py"))
        if path.name != "channel.py"
        for lineno in _link_products(path.read_text(encoding="utf-8"))
    ]
    assert not found, found


class TestDerivedSettings:
    """Values the positions or the snapshots fix are read from them, not set beside them."""

    def test_backbone_distance_follows_the_positions(self):
        assert NetworkGeometry().bs_ris_distance_m == 100.0
        assert NetworkGeometry(bs_position=np.array([50.0, 0.0, 0.0])).bs_ris_distance_m == 50.0
        moved = NetworkGeometry(ris_position=np.array([3.0, 4.0, 0.0]), device_area=Rectangle(10, 11, 10, 11))
        assert moved.bs_ris_distance_m == 5.0
        assert [f.name for f in fields(NetworkGeometry)] == ["bs_position", "ris_position", "device_area"]

    def test_realization_fields(self):
        assert [f.name for f in fields(ChannelRealization)] == ["direct", "ris_device", "bs_ris", "tx_snr_db"]
        real = ChannelRealization(np.ones((1, 2)), np.ones((1, 3)), np.ones((3, 2)), 5.0)
        assert real.tx_snr_db == 5.0


class TestScenarioClearance:
    """No point of the device area may lie inside the path-loss reference distance."""

    @staticmethod
    def scenario(ris, area):
        ris = np.asarray(ris, dtype=float)
        return ScenarioConfig(geometry=NetworkGeometry(ris_position=ris, device_area=area))

    def test_defaults_keep_clear(self):
        ScenarioConfig()

    def test_ris_inside_area_rejected(self):
        with pytest.raises(InvalidInput, match="RIS"):
            self.scenario([120.0, 0.0, 0.0], Rectangle(107.5, 132.5, -12.5, 12.5))

    def test_area_around_bs_rejected(self):
        with pytest.raises(InvalidInput, match="BS"):
            self.scenario([100.0, 0.0, 0.0], Rectangle(-5.0, 20.0, -12.5, 12.5))

    def test_height_counts_toward_clearance(self):
        area = Rectangle(107.5, 132.5, -12.5, 12.5)
        with pytest.raises(InvalidInput, match="reference distance"):
            self.scenario([110.0, 0.0, 0.5], area)
        self.scenario([110.0, 0.0, 1.0], area)  # exactly at the reference distance

    def test_corner_distance_is_euclidean(self):
        # nearest area point is the corner (107.5, 0.5); both axis gaps are below 1 m
        area = Rectangle(107.5, 132.5, 0.5, 12.5)
        with pytest.raises(InvalidInput):
            self.scenario([106.8, -0.2, 0.0], area)  # 0.99 m from the corner
        self.scenario([106.7, -0.3, 0.0], area)  # 1.13 m from the corner


class TestRandomWaypoint:
    area = Rectangle(0.0, 25.0, 0.0, 25.0)

    def test_straight_line_kinematics(self):
        device = Device(np.array([0.0, 0.0]), np.array([10.0, 0.0]), 1.0)
        out = random_waypoint_step(device, 1.0, self.area, (0.5, 2.0), np.random.default_rng(0))
        assert np.allclose(out.position, [1.0, 0.0], atol=1e-12)

    def test_containment_many_steps(self):
        rng = np.random.default_rng(3)
        device = initial_devices(1, self.area, (0.5, 2.0), rng)[0]
        for _ in range(100_000):
            device = random_waypoint_step(device, 0.1, self.area, (0.5, 2.0), rng)
            assert self.area.contains(device.position)

    def test_stationary_speed_range(self):
        rng = np.random.default_rng(4)
        device = Device(np.array([5.0, 5.0]), np.array([20.0, 20.0]), 0.0)
        for _ in range(10):
            device = random_waypoint_step(device, 1.0, self.area, (0.0, 0.0), rng)
        assert np.array_equal(device.position, [5.0, 5.0])

    def test_arrival_draws_fresh_waypoint(self):
        rng = np.random.default_rng(5)
        device = Device(np.array([1.0, 1.0]), np.array([1.5, 1.0]), 1.0)
        out = random_waypoint_step(device, 1.0, self.area, (0.5, 2.0), rng)
        assert np.allclose(out.position, [1.5, 1.0])
        assert not np.array_equal(out.waypoint, device.waypoint)
        assert 0.5 <= out.speed_mps <= 2.0

    def test_identical_seeds_identical_trajectories(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            device = initial_devices(1, self.area, (0.5, 2.0), rng)[0]
            return [
                random_waypoint_step(device, 0.1, self.area, (0.5, 2.0), rng).position
                for _ in range(50)
            ]

        for a, b in zip(run(11), run(11)):
            assert np.array_equal(a, b)

    def test_snapshots_layout(self):
        rng = np.random.default_rng(6)
        devices = initial_devices(4, self.area, (0.5, 2.0), rng)
        snaps = mobility_snapshots(devices, self.area, (0.5, 2.0), 0.1, 10, 10, rng)
        assert len(snaps) == 10
        assert all(len(s) == 4 for s in snaps)
        assert all(self.area.contains(d.position) for s in snaps for d in s)


class TestCsvExport:
    def test_row_count_and_spot_values(self):
        geometry = NetworkGeometry()
        devices = initial_devices(2, geometry.device_area, (0.5, 2.0), np.random.default_rng(1))
        real = generate_realization(
            geometry, devices, PathLossModel(), FadingModel(), 3, np.random.default_rng(2),
            num_bs_antennas=2,
        )
        rows = realization_csv_rows(real)
        l, m, n = 2, 2, 3
        assert rows[0] == "link_type,device,row,col,re,im"
        assert len(rows) == 1 + l * m + l * n + n * m
        first = rows[1].split(",")
        assert first[0] == "direct" and first[1] == "0" and first[2] == "0"
        assert float(first[4]) == real.direct[0, 0].real
        backbone = [r for r in rows if r.startswith("bs_ris")]
        assert len(backbone) == n * m
        assert all(r.split(",")[1] == "-1" for r in backbone)

    def test_write_matches_rows_with_lf_endings(self, tmp_path):
        geometry = NetworkGeometry()
        devices = initial_devices(2, geometry.device_area, (0.5, 2.0), np.random.default_rng(3))
        real = generate_realization(
            geometry, devices, PathLossModel(), FadingModel(), 3, np.random.default_rng(4),
            num_bs_antennas=2,
        )
        path = tmp_path / "realization.csv"
        write_realization_csv(real, path)
        data = path.read_bytes()
        assert data == ("\n".join(realization_csv_rows(real)) + "\n").encode("utf-8")
        assert b"\r" not in data


class TestSeedDerivation:
    def test_fixed_vectors(self):
        # frozen to catch accidental changes to the splitting rule
        assert derive_seed(0, "power-comparison", 0) == 1161294648703445014
        assert derive_seed(42, "beamforming-bench", 7) == 14860253366289919256
        assert derive_seed(2**63, "qml-beam", 123) == 13621263249878765598

    def test_distinct_children(self):
        seeds = {derive_seed(1, "exp", t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_rng_determinism(self):
        a = derived_rng(5, "x", 1).standard_normal(4)
        b = derived_rng(5, "x", 1).standard_normal(4)
        assert np.array_equal(a, b)


def _devices(count=1):
    return initial_devices(count, NetworkGeometry().device_area, (0.5, 2.0), np.random.default_rng(0))


def _snapshots(steps_per_snapshot=2, num_snapshots=3):
    area = NetworkGeometry().device_area
    return mobility_snapshots(_devices(), area, (0.5, 2.0), 0.1, steps_per_snapshot, num_snapshots,
                              np.random.default_rng(2))


def _realization(devices, num_elements=2):
    return generate_realization(
        NetworkGeometry(), devices, PathLossModel(), FadingModel(), num_elements, np.random.default_rng(1)
    )


GUARDS = [
    pytest.param(lambda: Rectangle(1, 0, 0, 1), InvalidInput, "positive side", id="rectangle"),
    pytest.param(lambda: FadingModel(los_probability=1.5), InvalidInput, "los_probability", id="los"),
    pytest.param(lambda: FadingModel(bs_ris_rician_k_db=math.nan), InvalidInput, "must not be NaN", id="nan_k"),
    pytest.param(lambda: PathLossModel(reference_loss_db=math.inf), InvalidInput, "reference_loss_db must be finite",
                 id="infinite_reference_loss"),
    pytest.param(lambda: PathLossModel(exponent_device_ris=math.nan), InvalidInput,
                 "exponent_device_ris must be finite", id="nan_exponent"),
    pytest.param(lambda: Rectangle(0, math.nan, 0, 1), InvalidInput, "x_max must be finite", id="nan_rectangle"),
    pytest.param(lambda: NetworkGeometry(bs_position=np.array([math.nan, 0.0, 0.0])), InvalidInput,
                 "must be finite", id="nan_bs_position"),
    pytest.param(lambda: ScenarioConfig(dt_s=0.0), InvalidInput, "dt_s must be positive", id="scenario_zero_dt"),
    pytest.param(lambda: ScenarioConfig(speed_max_mps=math.inf), InvalidInput, "speed_max_mps must be finite",
                 id="scenario_infinite_speed"),
    pytest.param(lambda: ChannelRealization(np.ones(4), np.ones((1, 3)), np.ones((3, 4))), InvalidInput,
                 "2-D", id="realization_1d"),
    pytest.param(lambda: ChannelRealization(np.ones((2, 4)), np.ones((1, 3)), np.ones((3, 4))), InvalidInput,
                 "device count", id="realization_devices"),
    pytest.param(lambda: ChannelRealization(np.ones((1, 0)), np.ones((1, 3)), np.ones((3, 0))), InvalidInput,
                 "at least one", id="realization_empty"),
    pytest.param(lambda: sample_fading(0, 3, 0.0, np.random.default_rng(0)), InvalidInput,
                 "positive shape", id="fading_shape"),
    pytest.param(lambda: _realization(_devices(), num_elements=0), InvalidInput,
                 "num_elements must be an integer >= 1", id="no_elements"),
    pytest.param(lambda: scenario_realizations(ScenarioConfig(), 2.5, np.random.default_rng(0)), InvalidInput,
                 "num_elements must be an integer >= 1", id="scenario_fractional_elements"),
    pytest.param(lambda: generate_realization(NetworkGeometry(), _devices(), PathLossModel(), FadingModel(), 2,
                                              np.random.default_rng(1), num_bs_antennas=2.5),
                 InvalidInput, "num_bs_antennas must be an integer >= 1", id="realization_fractional_antennas"),
    pytest.param(lambda: _realization([Device(np.array([1e4, 1e4]), np.zeros(2), 1.0)]), InvalidInput,
                 "outside the movement area", id="device_outside"),
    pytest.param(lambda: random_waypoint_step(_devices()[0], 0, NetworkGeometry().device_area, (0.5, 2.0),
                                              np.random.default_rng(0)),
                 InvalidInput, "dt", id="waypoint_dt"),
    pytest.param(lambda: _devices(0), InvalidInput, "at least one device", id="no_devices"),
    pytest.param(lambda: _devices(2.5), InvalidInput, "count must be an integer, got 2.5", id="fractional_devices"),
    pytest.param(lambda: _devices(True), InvalidInput, "count must be an integer, got True", id="boolean_devices"),
    pytest.param(lambda: sample_fading(2.5, 3, 0.0, np.random.default_rng(0)), InvalidInput,
                 "rows must be an integer, got 2.5", id="fractional_fading_rows"),
    pytest.param(lambda: sample_fading(2, 3.0, 0.0, np.random.default_rng(0)), InvalidInput,
                 "cols must be an integer, got 3.0", id="float_fading_cols"),
    pytest.param(lambda: _snapshots(steps_per_snapshot=2.5), InvalidInput,
                 "steps_per_snapshot must be an integer, got 2.5", id="fractional_steps_per_snapshot"),
    pytest.param(lambda: _snapshots(num_snapshots=2.5), InvalidInput,
                 "num_snapshots must be an integer >= 1, got 2.5", id="fractional_snapshots"),
    pytest.param(lambda: _snapshots(num_snapshots=0), InvalidInput,
                 "num_snapshots must be an integer >= 1, got 0", id="no_snapshots"),
    pytest.param(lambda: ScenarioConfig(num_devices=0), InvalidInput, "num_devices must be an integer >= 1, got 0",
                 id="scenario_devices"),
    pytest.param(lambda: ScenarioConfig(snapshots=0), InvalidInput, "snapshots must be an integer >= 1, got 0",
                 id="scenario_snapshots"),
    *(
        pytest.param(lambda name=name, value=value: ScenarioConfig(**{name: value}), InvalidInput,
                     f"{name} must be an integer >= 1, got {value!r}", id=f"scenario_{name}_{type(value).__name__}")
        for name, value in (
            ("num_devices", True),
            ("num_bs_antennas", 2.0),
            ("snapshots", 2.5),
            ("steps_per_snapshot", 3.0),
        )
    ),
    pytest.param(lambda: ScenarioConfig(speed_min_mps=3.0, speed_max_mps=2.0), InvalidInput, "speed range",
                 id="scenario_speeds"),
    pytest.param(lambda: ScenarioConfig(tx_snr_db=math.nan), InvalidInput, "tx_snr_db must be finite",
                 id="scenario_nan_snr"),
    pytest.param(lambda: ScenarioConfig(noise_power_dbm=-math.inf), InvalidInput, "noise_power_dbm must be finite",
                 id="scenario_infinite_noise"),
    pytest.param(lambda: ChannelRealization(np.ones((1, 4)), np.ones((1, 3)), np.ones((3, 4)), tx_snr_db=math.inf),
                 InvalidInput, "tx_snr_db must be finite", id="realization_infinite_snr"),
    pytest.param(lambda: sample_fading(2, 2, math.nan, np.random.default_rng(0)), InvalidInput,
                 "rician_k_db must not be NaN", id="fading_nan_k"),
    pytest.param(lambda: path_loss_db(math.nan, 2.0), InvalidInput, "distance and exponent must be finite",
                 id="path_loss_nan_distance"),
    pytest.param(lambda: path_loss_db(5.0, math.nan), InvalidInput, "distance and exponent must be finite",
                 id="path_loss_nan_exponent"),
    pytest.param(lambda: random_waypoint_step(_devices()[0], math.nan, NetworkGeometry().device_area, (0.5, 2.0),
                                              np.random.default_rng(0)),
                 InvalidInput, "dt must be finite and positive", id="waypoint_nan_dt"),
    pytest.param(lambda: derive_seed(1.5, "trial"), InvalidInput, "master_seed must be an integer, got 1.5",
                 id="fractional_master_seed"),
    pytest.param(lambda: derive_seed(True, "trial"), InvalidInput, "master_seed must be an integer, got True",
                 id="boolean_master_seed"),
    pytest.param(lambda: Device([110.0, 0.0], [120.0, 5.0], math.nan), InvalidInput,
                 "speed_mps must be finite and >= 0, got nan", id="device_nan_speed"),
    pytest.param(lambda: Device([110.0, 0.0], [120.0, 5.0], -3.0), InvalidInput,
                 "speed_mps must be finite and >= 0, got -3.0", id="device_negative_speed"),
    pytest.param(lambda: Device([110.0, 0.0, 0.0], [120.0, 5.0], 1.0), DimensionMismatch,
                 r"position must be a 2-vector, got shape \(3,\)", id="device_3d_position"),
    pytest.param(lambda: Device([110.0, 0.0], [math.inf, 5.0], 1.0), InvalidInput,
                 "positions must be finite, got waypoint", id="device_infinite_waypoint"),
    pytest.param(lambda: random_waypoint_step(Device([120.0, 0.0], [120.0, 0.0], 1.0), 0.1,
                                              NetworkGeometry().device_area, (math.nan, 2.0), np.random.default_rng(0)),
                 InvalidInput, "speed range must be finite", id="waypoint_nan_speed_range"),
    pytest.param(lambda: random_waypoint_step(_devices()[0], 0.1, NetworkGeometry().device_area, (-1.0, 2.0),
                                              np.random.default_rng(0)),
                 InvalidInput, "0 <= min <= max", id="waypoint_negative_speed_range"),
    pytest.param(lambda: random_waypoint_step(_devices()[0], 0.1, NetworkGeometry().device_area, (2.0, 0.5),
                                              np.random.default_rng(0)),
                 InvalidInput, "0 <= min <= max", id="waypoint_reversed_speed_range"),
    pytest.param(lambda: initial_devices(1, NetworkGeometry().device_area, (math.nan, 2.0), np.random.default_rng(0)),
                 InvalidInput, "speed range must be finite", id="initial_devices_nan_speed_range"),
    pytest.param(lambda: NetworkGeometry(bs_position=[0.0, 0.0]), DimensionMismatch,
                 r"bs_position must be a 3-vector, got shape \(2,\)", id="geometry_2d_bs_position"),
    pytest.param(lambda: NetworkGeometry(ris_position=np.zeros((1, 3))), DimensionMismatch,
                 r"ris_position must be a 3-vector, got shape \(1, 3\)", id="geometry_matrix_ris_position"),
    pytest.param(lambda: NetworkGeometry(ris_position=[100.0, -math.inf, 0.0]), InvalidInput,
                 "positions must be finite, got ris_position", id="geometry_infinite_ris_position"),
]


@pytest.mark.parametrize("build,error,message", GUARDS)
def test_typed_guard(build, error, message):
    with pytest.raises(error, match=message):
        build()
