"""Path loss, fading moments, realization generation and mobility."""

import math

import numpy as np
import pytest

from bdris.channel import (
    ChannelRealization,
    Device,
    FadingModel,
    NetworkGeometry,
    PathLossModel,
    Rectangle,
    generate_realization,
    initial_devices,
    mobility_snapshots,
    path_loss_db,
    path_loss_linear,
    random_waypoint_step,
    realization_csv_rows,
    sample_fading,
    write_realization_csv,
)
from bdris.errors import BelowReferenceDistance, InvalidInput
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
        bs_ris_distance_m=2.0,
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
