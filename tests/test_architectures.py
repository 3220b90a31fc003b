"""Architecture validation, effective channels and single-tag optima."""

import numpy as np
import pytest

from bdris.architectures import (
    ArchitectureKind,
    BdRisArchitecture,
    diagonal_single_tag_amplitude,
    fully_connected_single_tag_amplitude,
    optimal_diagonal_single_tag,
    optimal_fully_connected_single_tag,
    _support_mask,
    validate,
)
from bdris.channel import ChannelRealization, ChannelStack, effective_channel_matrix
from bdris.errors import DimensionMismatch, InvalidInput, ZeroChannel
from bdris.manifold import BlockStructure, polar_factor, random_unitary
from bdris.optim import channel_gain_objective


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_realization(rng, l=2, m=3, n=4):
    return ChannelRealization(
        direct=random_complex(rng, l, m),
        ris_device=random_complex(rng, l, n),
        bs_ris=random_complex(rng, n, m),
    )


class TestValidate:
    def test_identity_is_valid_diagonal(self):
        report = validate(np.eye(4), BdRisArchitecture.diagonal())
        assert report.valid

    def test_dense_unitary_invalid_as_diagonal(self):
        u = random_unitary(4, np.random.default_rng(0)).entries
        report = validate(u, BdRisArchitecture.diagonal())
        assert not report.valid
        assert any("outside the support" in v for v in report.violations)

    def test_block_project_output_valid_for_matching_group(self):
        rng = np.random.default_rng(1)
        structure = BlockStructure((2, 2))
        arch = BdRisArchitecture.group_connected(structure)
        m = random_complex(rng, 4, 4)
        theta = structure.unpack(polar_factor(np.stack([m[:2, :2], m[2:, 2:]])))
        assert validate(theta, arch).valid

    def test_haar_unitary_valid_fully_connected(self):
        u = random_unitary(6, np.random.default_rng(2)).entries
        assert validate(u, BdRisArchitecture.fully_connected()).valid

    def test_rejects_perturbations(self):
        rng = np.random.default_rng(3)
        eps = 1e-6  # well above 10x the structural tolerance
        diag = optimal_diagonal_single_tag(random_complex(rng, 4), random_complex(rng, 4))[0]
        bumped = diag.entries.copy()
        bumped[0, 1] += eps
        assert not validate(bumped, BdRisArchitecture.diagonal()).valid
        full = random_unitary(8, rng).entries.copy()
        full[2, 5] += eps * (1 + 1j)
        assert not validate(full, BdRisArchitecture.fully_connected()).valid

    def test_reports_every_violation(self):
        theta = np.eye(3, dtype=complex) * 2.0
        theta[0, 1] = 0.5
        report = validate(theta, BdRisArchitecture.diagonal())
        assert len(report.violations) == 2

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate(np.ones((2, 3)), BdRisArchitecture.fully_connected())

    def test_non_finite_entries_are_violations(self):
        full = validate(np.full((4, 4), np.nan), BdRisArchitecture.fully_connected())
        assert not full.valid and "16 non-finite entries" in full.violations
        phases = np.diag(np.exp(1j * np.array([0.3, 1.1, -0.4, 2.0])))
        phases[2, 2] = np.nan
        diag = validate(phases, BdRisArchitecture.diagonal())
        assert diag.violations == ("1 non-finite entries",)
        phases[2, 2] = np.inf
        assert not validate(phases, BdRisArchitecture.diagonal()).valid


# diagonal and equal groups
STRUCTURES = [BlockStructure((1,) * 8), BlockStructure((4, 4))]
STRUCTURE_IDS = ["diag", "equal"]


class TestUnitaryBlocks:
    def test_mapping_per_kind(self):
        structure = BlockStructure((2, 2, 2, 2))
        assert BdRisArchitecture.diagonal().unitary_blocks(5) == BlockStructure((1,) * 5)
        assert BdRisArchitecture.group_connected(structure).unitary_blocks(8) is structure
        assert BdRisArchitecture.fully_connected().unitary_blocks(8) == BlockStructure((8,))

    def test_group_connected_needs_a_structure(self):
        for structure in (None, (2, 2)):
            with pytest.raises(InvalidInput, match="needs a BlockStructure"):
                BdRisArchitecture(ArchitectureKind.GROUP_CONNECTED, structure=structure)

    def test_misfit_structure_rejected(self):
        arch = BdRisArchitecture.group_connected(BlockStructure((2, 2)))
        for n in (3, 5):
            with pytest.raises(DimensionMismatch):
                arch.unitary_blocks(n)

    @pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURE_IDS)
    def test_support_mask_equals_per_block_reference(self, structure):
        """validate's zero pattern equals one np.ix_ fill per block."""
        expected = np.zeros((8, 8), dtype=bool)
        for idx in np.arange(8).reshape(structure.shape[:2]):
            expected[np.ix_(idx, idx)] = True
        arch = BdRisArchitecture.group_connected(structure)
        assert np.array_equal(_support_mask(arch, 8), expected)
        if structure.group_sizes == (1,) * 8:
            assert np.array_equal(_support_mask(BdRisArchitecture.diagonal(), 8), expected)
        assert np.all(_support_mask(BdRisArchitecture.fully_connected(), 8))


class TestEffectiveChannel:
    def test_zero_theta_leaves_direct_path(self):
        real = make_realization(np.random.default_rng(6), l=2, m=3, n=4)
        h = effective_channel_matrix(real, np.zeros((4, 4)))
        assert np.allclose(h, real.direct)

    def test_zero_reflector_link_leaves_direct_path(self):
        rng = np.random.default_rng(7)
        real = make_realization(rng, l=2, m=3, n=4)
        real = ChannelRealization(real.direct, np.zeros((2, 4)), real.bs_ris)
        h = effective_channel_matrix(real, random_unitary(4, rng).entries)
        assert np.allclose(h, real.direct)

    def test_matches_scalar_loop_expansion(self):
        rng = np.random.default_rng(8)
        l, m, n = 2, 2, 3
        real = make_realization(rng, l=l, m=m, n=n)
        a, b, c = real.direct, real.ris_device, real.bs_ris
        theta = random_complex(rng, n, n)
        h = effective_channel_matrix(real, theta)
        # h_l† = a_l† + b_l†ΘC expanded entry by entry
        expected_dag = np.zeros((l, m), dtype=complex)
        for k in range(l):
            for j in range(m):
                expected_dag[k, j] = np.conj(a[k, j])
                for p in range(n):
                    for q in range(n):
                        expected_dag[k, j] += np.conj(b[k, p]) * theta[p, q] * c[q, j]
        assert np.allclose(np.conj(h), expected_dag, atol=1e-12)

    def test_dimension_mismatch(self):
        real = make_realization(np.random.default_rng(9), n=4)
        with pytest.raises(DimensionMismatch, match="theta shape"):
            effective_channel_matrix(real, np.eye(3))

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_stack_form_equals_each_realization_exactly(self, n):
        rng = np.random.default_rng(20 + n)
        reals = [make_realization(rng, l=3, m=2, n=n) for _ in range(4)]
        theta = random_complex(rng, n, n)
        stacked = effective_channel_matrix(ChannelStack(reals), theta)
        assert stacked.shape == (4, 3, 2)
        for p, real in enumerate(reals):
            assert np.array_equal(stacked[p], effective_channel_matrix(real, theta))

    def test_stack_theta_shape_checked(self):
        stack = ChannelStack([make_realization(np.random.default_rng(23))])
        with pytest.raises(DimensionMismatch, match="theta shape"):
            effective_channel_matrix(stack, np.eye(3))


class TestGainObjective:
    def test_zero_theta_gives_direct_power(self):
        rng = np.random.default_rng(10)
        reals = [make_realization(rng) for _ in range(3)]
        value = channel_gain_objective(np.zeros((4, 4)), reals)
        expected = sum(float(np.sum(np.abs(r.direct) ** 2)) for r in reals)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_single_tag_cauchy_schwarz_value(self):
        rng = np.random.default_rng(11)
        n = 5
        b, c = random_complex(rng, n), random_complex(rng, n)
        theta, amplitude = optimal_fully_connected_single_tag(b, c)
        real = ChannelRealization(
            direct=np.zeros((1, 1)), ris_device=b[None, :], bs_ris=c[:, None]
        )
        value = channel_gain_objective(theta.entries, [real])
        assert value == pytest.approx(amplitude**2, rel=1e-10)
        assert amplitude == pytest.approx(np.linalg.norm(b) * np.linalg.norm(c), rel=1e-12)

    def test_invariant_under_device_permutation(self):
        rng = np.random.default_rng(12)
        real = make_realization(rng, l=4)
        theta = random_unitary(4, rng).entries
        permuted = ChannelRealization(
            direct=real.direct[::-1], ris_device=real.ris_device[::-1], bs_ris=real.bs_ris
        )
        assert channel_gain_objective(theta, [real]) == pytest.approx(
            channel_gain_objective(theta, [permuted]), rel=1e-12
        )

    def test_mismatched_realizations_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(DimensionMismatch):
            channel_gain_objective(
                np.eye(4), [make_realization(rng, n=4), make_realization(rng, n=5)]
            )


class TestDiagonalSingleTag:
    def test_scalar_case(self):
        theta, amplitude = optimal_diagonal_single_tag(np.array([1.0]), np.array([1.0]))
        assert amplitude == pytest.approx(1.0)
        assert np.allclose(theta.entries, [[1.0]])

    def test_sign_alignment(self):
        theta, amplitude = optimal_diagonal_single_tag(
            np.array([1.0, 1.0]), np.array([1.0, -1.0])
        )
        assert amplitude == pytest.approx(2.0)
        b, c = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        assert abs(np.conj(b) @ theta.entries @ c) == pytest.approx(2.0)

    def test_real_positive_channels_need_no_rotation(self):
        b = np.array([1.0, 2.0, 0.5])
        c = np.array([0.3, 1.0, 2.0])
        theta, amplitude = optimal_diagonal_single_tag(b, c)
        assert np.allclose(theta.entries, np.eye(3))
        assert amplitude == pytest.approx(float(b @ c))

    def test_never_beaten_by_random_phases(self):
        rng = np.random.default_rng(14)
        b, c = np.array([1.0, 1.0]), np.array([1.0, -1.0])
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (10_000, 2)))
        values = np.abs(np.sum(np.conj(b) * phases * c, axis=1))
        assert np.max(values) <= 2.0 + 1e-12

    def test_zero_channel_rejected(self):
        with pytest.raises(ZeroChannel):
            optimal_diagonal_single_tag(np.zeros(3), np.ones(3))


class TestFullyConnectedSingleTag:
    def test_scalar_case_equals_diagonal(self):
        b, c = np.array([2.0 + 1j]), np.array([0.5 - 0.5j])
        _, amp_full = optimal_fully_connected_single_tag(b, c)
        _, amp_diag = optimal_diagonal_single_tag(b, c)
        assert amp_full == pytest.approx(amp_diag, rel=1e-12)

    def test_dominates_diagonal(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            b = random_complex(rng, 8)
            c = random_complex(rng, 8)
            _, amp_full = optimal_fully_connected_single_tag(b, c)
            _, amp_diag = optimal_diagonal_single_tag(b, c)
            assert amp_full >= amp_diag

    def test_achieves_cauchy_schwarz_and_is_certified(self):
        rng = np.random.default_rng(16)
        b, c = random_complex(rng, 6), random_complex(rng, 6)
        theta, amplitude = optimal_fully_connected_single_tag(b, c)
        achieved = abs(np.conj(b) @ theta.entries @ c)
        assert achieved == pytest.approx(amplitude, rel=1e-10)
        # Monte-Carlo certification: no Haar sample exceeds the bound
        z = (
            rng.standard_normal((10_000, 6, 6)) + 1j * rng.standard_normal((10_000, 6, 6))
        ) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        samples = q * (d / np.abs(d))[:, None, :]
        values = np.abs(np.einsum("i,kij,j->k", np.conj(b), samples, c))
        assert np.max(values) <= amplitude * (1 + 1e-10)

    def test_mean_power_ratio_matches_rayleigh_moments(self):
        # E||b||^2 ||c||^2 over E(sum|b_i||c_i|)^2 approaches 16/pi^2 = 1.6211
        rng = np.random.default_rng(17)
        n, trials = 64, 10_000
        b = random_complex(rng, trials, n) / np.sqrt(2)
        c = random_complex(rng, trials, n) / np.sqrt(2)
        p_full = np.sum(np.abs(b) ** 2, axis=1) * np.sum(np.abs(c) ** 2, axis=1)
        p_diag = np.sum(np.abs(b) * np.abs(c), axis=1) ** 2
        ratio = np.mean(p_full) / np.mean(p_diag)
        assert ratio == pytest.approx(16.0 / np.pi**2, rel=0.02)

    def test_valid_fully_connected_matrix(self):
        rng = np.random.default_rng(18)
        theta, _ = optimal_fully_connected_single_tag(random_complex(rng, 7), random_complex(rng, 7))
        assert validate(theta.entries, BdRisArchitecture.fully_connected()).valid

    def test_zero_channel_rejected(self):
        with pytest.raises(ZeroChannel):
            optimal_fully_connected_single_tag(np.ones(3), np.zeros(3))


class TestSingleTagAmplitudes:
    @pytest.mark.parametrize("n", [1, 8])
    def test_achieved_by_the_optima(self, n):
        rng = np.random.default_rng(19 + n)
        b, c = random_complex(rng, n), random_complex(rng, n)
        for amplitude, optimum in (
            (diagonal_single_tag_amplitude, optimal_diagonal_single_tag),
            (fully_connected_single_tag_amplitude, optimal_fully_connected_single_tag),
        ):
            theta, value = optimum(b, c)
            assert amplitude(b, c) == value
            assert abs(np.conj(b) @ theta.entries @ c) == pytest.approx(value, rel=1e-12)


GUARDS = [
    pytest.param(lambda: validate(np.eye(4), BdRisArchitecture("diagonal")), InvalidInput,
                 "'diagonal' is not a block-unitary architecture", id="kind_not_a_member"),
    pytest.param(lambda: BdRisArchitecture(ArchitectureKind.DIAGONAL, structure=BlockStructure((4, 4))),
                 InvalidInput, "a diagonal architecture takes no BlockStructure", id="diagonal_with_structure"),
    pytest.param(lambda: BdRisArchitecture(ArchitectureKind.FULLY_CONNECTED, structure=BlockStructure((4, 4))),
                 InvalidInput, "a fully-connected architecture takes no BlockStructure",
                 id="fully_connected_with_structure"),
    pytest.param(lambda: optimal_diagonal_single_tag(np.ones(2), np.ones(3)), DimensionMismatch,
                 "equal length", id="diagonal_lengths"),
    pytest.param(lambda: optimal_fully_connected_single_tag(np.ones(2), np.ones(3)), DimensionMismatch,
                 "equal length", id="fully_connected_lengths"),
    pytest.param(lambda: diagonal_single_tag_amplitude(np.ones(2), np.ones(3)), DimensionMismatch,
                 "equal length", id="diagonal_amplitude_lengths"),
    pytest.param(lambda: fully_connected_single_tag_amplitude(np.zeros(3), np.ones(3)), ZeroChannel,
                 "zero channel", id="fully_connected_amplitude_zero"),
    pytest.param(lambda: diagonal_single_tag_amplitude([np.nan, 1], [1, 1]), InvalidInput,
                 "non-finite", id="diagonal_amplitude_nan"),
    pytest.param(lambda: fully_connected_single_tag_amplitude([1, 1], [1, np.inf]), InvalidInput,
                 "non-finite", id="fully_connected_amplitude_inf"),
    pytest.param(lambda: optimal_diagonal_single_tag(np.ones(2), np.array([1, np.nan])), InvalidInput,
                 "non-finite", id="diagonal_nan"),
    pytest.param(lambda: optimal_fully_connected_single_tag(np.array([np.nan, 1]), np.ones(2)), InvalidInput,
                 "non-finite", id="fully_connected_nan"),
    pytest.param(lambda: validate(np.ones((2, 2)), BdRisArchitecture.fully_connected(), float("nan")), InvalidInput,
                 "tolerance must be finite and >= 0, got nan", id="validate_nan_tolerance"),
    pytest.param(lambda: validate(np.eye(2), BdRisArchitecture.fully_connected(), -1e-10), InvalidInput,
                 "tolerance must be finite and >= 0, got -1e-10", id="validate_negative_tolerance"),
    pytest.param(lambda: validate(np.ones((2, 2)), BdRisArchitecture.diagonal(), float("inf")), InvalidInput,
                 "tolerance must be finite and >= 0, got inf", id="validate_inf_tolerance"),
]


@pytest.mark.parametrize("build,error,message", GUARDS)
def test_typed_guard(build, error, message):
    with pytest.raises(error, match=message):
        build()
