"""Unitary-manifold machinery: projections, tangents, retraction, Haar sampling.

The machinery the optimizers run on (G, k, k) block stacks -- the
projection ``polar_factor``, ``optim._tangent``, ``optim._retract`` and
``optim._random_blocks`` -- is checked here on the fully-connected surface
and on every block structure below, through N x N matrices.
"""

import numpy as np
import pytest

from bdris import optim
from bdris.architectures import BdRisArchitecture, _support_mask, optimal_diagonal_single_tag, validate
from bdris.channel import CascadedChannels, ChannelRealization
from bdris.errors import DimensionMismatch, InvalidInput, RankDeficient
from bdris.manifold import (
    BlockStructure,
    UnitaryMatrix,
    aligned_unitary,
    polar_factor,
    project_to_unitary,
    random_unitary,
    skew_part,
    unitarity_defect,
)

# diagonal and equal groups
STRUCTURES = [BlockStructure((1,) * 8), BlockStructure((4, 4))]
STRUCTURE_IDS = ["diag", "equal"]
N = 8
FULL = BdRisArchitecture.fully_connected()
ARCHS = [FULL, BdRisArchitecture.diagonal()] + [BdRisArchitecture.group_connected(s) for s in STRUCTURES[1:]]
SURFACES = [arch.unitary_blocks(N) for arch in ARCHS]


def runs(structure):
    """Port indices of each block: G consecutive runs of k ports."""
    g, k, _ = structure.shape
    return list(np.arange(g * k).reshape(g, k))


BLOCKS = [[np.arange(N)]] + [runs(s) for s in STRUCTURES]


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gather(structure, m):
    """Reference gather: the (G, k, k) stack of an N x N matrix's blocks, one np.ix_ per block."""
    return np.stack([m[np.ix_(idx, idx)] for idx in runs(structure)])


def random_point(structure, rng):
    """``optim._random_blocks`` on the blocks of ``structure``, as an N x N matrix."""
    return structure.unpack(optim._random_blocks(structure.shape, rng))


def block_project(m, structure):
    """The optimizers' projection, the polar factor of each block of the stack, on N x N matrices."""
    return structure.unpack(polar_factor(gather(structure, m)))


def per_block_project(m, structure):
    """Reference block projection: one np.ix_ gather and polar factor per block."""
    return per_block(runs(structure), polar_factor, m)


def per_block(blocks, fn, *matrices):
    """Reference block map: one np.ix_ gather and call per block, zero elsewhere."""
    out = np.zeros_like(matrices[0])
    for idx in blocks:
        sel = np.ix_(idx, idx)
        out[sel] = fn(*(m[sel] for m in matrices))
    return out


def tangent(structure, x, frame):
    """``optim._tangent`` on N x N matrices, through their block stacks."""
    return structure.unpack(optim._tangent(gather(structure, frame), gather(structure, x)))


def retract(structure, theta, omega):
    """``optim._retract`` on N x N matrices: ``step`` and ``rotation`` return N x N matrices."""
    step, rotation = optim._retract(gather(structure, theta), gather(structure, omega))
    return (lambda s: structure.unpack(step(s))), (lambda s: structure.unpack(rotation(s)))


def haar_batch(n, count, rng):
    """Independent Haar samples via batched QR with phase correction."""
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


class TestProjectToUnitary:
    def test_identity_is_fixed_point(self):
        out = project_to_unitary(np.eye(3))
        assert np.allclose(out.entries, np.eye(3), atol=1e-14)

    def test_positive_scaling_removed(self):
        out = project_to_unitary(2.0 * np.eye(3))
        assert np.allclose(out.entries, np.eye(3), atol=1e-14)

    def test_nearest_unitary_monte_carlo(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        proj = project_to_unitary(m)
        assert unitarity_defect(proj.entries) <= 1e-10
        dist = np.linalg.norm(proj.entries - m)
        samples = haar_batch(4, 10_000, rng)
        sample_dists = np.linalg.norm(samples - m, axis=(1, 2))
        assert np.all(dist <= sample_dists)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        once = project_to_unitary(m).entries
        twice = project_to_unitary(once).entries
        assert np.max(np.abs(twice - once)) <= 1e-12

    def test_nearest_point_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            proj = project_to_unitary(m).entries
            other = random_unitary(4, rng).entries
            assert np.linalg.norm(proj - m) <= np.linalg.norm(other - m)

    def test_rank_deficient_rejected(self):
        m = np.eye(3, dtype=complex)
        m[2, 2] = 0.0
        with pytest.raises(RankDeficient):
            project_to_unitary(m)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            polar_factor(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            polar_factor(np.ones((4, 2, 3)))
        with pytest.raises(DimensionMismatch):
            polar_factor(np.ones(3))

    def test_stack_matches_per_slice(self):
        rng = np.random.default_rng(13)
        for k in (1, 3):
            stack = rng.standard_normal((5, k, k)) + 1j * rng.standard_normal((5, k, k))
            out = polar_factor(stack)
            assert out.shape == stack.shape
            for g in range(5):
                assert np.array_equal(out[g], polar_factor(stack[g]))

    def test_stack_with_one_singular_slice_rejected(self):
        rng = np.random.default_rng(17)
        stack = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        stack[2] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(RankDeficient):
            polar_factor(stack)


class TestSkewPart:
    def test_exactly_skew_hermitian(self):
        rng = np.random.default_rng(18)
        for shape in ((1, 1), (7, 7), (5, 4, 4)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            out = skew_part(x)
            assert np.array_equal(out, (x - x.conj().swapaxes(-1, -2)) / 2.0)
            assert np.array_equal(out, -out.conj().swapaxes(-1, -2))
            assert not np.any(np.diagonal(out, axis1=-2, axis2=-1).real)

    def test_stack_matches_per_slice(self):
        rng = np.random.default_rng(19)
        stack = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        out = skew_part(stack)
        for g in range(6):
            assert np.array_equal(out[g], skew_part(stack[g]))
            assert np.array_equal(out[g], -out[g].conj().T)


class TestTangentProject:
    """``optim._tangent``: body coordinates skew(theta† G), per block.

    The ambient tangent vector is theta times the body vector.
    """

    def test_base_point_maps_to_zero(self):
        rng = np.random.default_rng(5)
        for blocks in SURFACES:
            base = random_point(blocks, rng)
            assert np.max(np.abs(tangent(blocks, base, base))) <= 1e-12

    def test_hand_evaluated_case(self):
        g = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        t = tangent(FULL.unitary_blocks(2), g, np.eye(2, dtype=complex))
        assert np.allclose(t, [[0.0, 0.5], [-0.5, 0.0]], atol=1e-14)
        # on a diagonal surface only the imaginary part of the diagonal survives
        g = np.array([[1.0 + 2.0j, 5.0], [0.0, 3.0 - 1.0j]])
        t = tangent(BdRisArchitecture.diagonal().unitary_blocks(2), g, np.eye(2, dtype=complex))
        assert np.allclose(t, np.diag([2.0j, -1.0j]), atol=1e-14)

    def test_output_is_tangent(self):
        """Exactly skew-Hermitian, zero off the blocks, and theta times it is the ambient projection."""
        rng = np.random.default_rng(13)
        for arch, surface, blocks in zip(ARCHS, SURFACES, BLOCKS):
            outside = ~_support_mask(arch, N)
            for _ in range(20):
                base = random_point(surface, rng)
                g = random_complex(rng, N, N)
                body = tangent(surface, g, base)
                assert np.array_equal(body, -body.conj().T)
                assert not np.any(body[outside])
                ambient = per_block(blocks, lambda t, x: t @ skew_part(t.conj().T @ x), base, g)
                assert np.max(np.abs(base @ body - ambient)) <= 1e-13

    def test_idempotent_linear_map(self):
        """Projecting the ambient vector theta * Omega of a body vector Omega returns Omega."""
        rng = np.random.default_rng(17)
        for surface in SURFACES:
            base = random_point(surface, rng)
            x, y = random_complex(rng, N, N), random_complex(rng, N, N)
            once = tangent(surface, x, base)
            twice = tangent(surface, base @ once, base)
            assert np.max(np.abs(twice - once)) <= 1e-12
            # at the identity frame a body vector is its own projection, bit for bit
            assert np.array_equal(tangent(surface, once, np.eye(N, dtype=complex)), once)
            combo = tangent(surface, 2.0 * x - 0.5 * y, base)
            assert np.max(np.abs(combo - (2.0 * once - 0.5 * tangent(surface, y, base)))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BdRisArchitecture.group_connected(BlockStructure((1, 1))).unitary_blocks(3)


class TestRetract:
    """``optim._retract``: the closed-form polar retraction the line search makes."""

    @staticmethod
    def setup(surface, rng, scale=1.0):
        base = random_point(surface, rng)
        omega = tangent(surface, random_complex(rng, N, N), base)
        return base, scale * omega / np.linalg.norm(omega)

    def test_zero_step_returns_base_point(self):
        rng = np.random.default_rng(19)
        for surface in SURFACES:
            base, omega = self.setup(surface, rng)
            step, rotation = retract(surface, base, omega)
            assert np.max(np.abs(step(0.0) - base)) <= 1e-13
            assert np.max(np.abs(rotation(0.0) - np.eye(N))) <= 1e-13

    def test_matches_exponential_map_to_first_order(self):
        t = 0.1
        omega = np.array([[0.0, t], [-t, 0.0]], dtype=complex)
        out = retract(FULL.unitary_blocks(2), np.eye(2, dtype=complex), omega)[0](1.0)
        exact = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        assert np.linalg.norm(out - exact) <= 1e-3
        rng = np.random.default_rng(21)
        for surface in SURFACES:
            base, omega = self.setup(surface, rng, 0.1)
            # exp map: base * expm(Omega), via H = -i Omega = V diag(lam) V†
            lam, v = np.linalg.eigh(-1j * omega)
            exact = base @ (v * np.exp(1j * lam)) @ v.conj().T
            assert np.linalg.norm(retract(surface, base, omega)[0](1.0) - exact) <= 1e-3

    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("index", range(len(ARCHS)), ids=["full"] + STRUCTURE_IDS)
    def test_equals_per_block_polar_factor(self, index, s):
        """step(s) is polar(theta + s theta Omega), block by block; W(s) is the step's block rotation."""
        arch, surface, blocks = ARCHS[index], SURFACES[index], BLOCKS[index]
        rng = np.random.default_rng(22)
        outside = ~_support_mask(arch, N)
        for _ in range(5):
            base, omega = self.setup(surface, rng, 3.0)
            step, rotation = retract(surface, base, omega)
            expected = per_block(blocks, lambda t, o: polar_factor(t + s * t @ o), base, omega)
            assert np.max(np.abs(step(s) - expected)) <= 1e-12
            w = rotation(s)
            assert not np.any(w[outside])
            for idx in blocks:
                assert unitarity_defect(w[np.ix_(idx, idx)]) <= 1e-12
            assert np.max(np.abs(base @ w - expected)) <= 1e-12

    @pytest.mark.parametrize("index", range(len(ARCHS)), ids=["full"] + STRUCTURE_IDS)
    def test_body_transport_equals_ambient_projection(self, index):
        """tangent(Omega_i, W) mapped back by theta_new is the projection of theta_old Omega_i at theta_new."""
        surface, blocks = SURFACES[index], BLOCKS[index]
        rng = np.random.default_rng(24)
        for s in (0.01, 1.0, 50.0):
            base, omega = self.setup(surface, rng)
            memory = tangent(surface, random_complex(rng, N, N), base)
            step, rotation = retract(surface, base, omega)
            new = step(s)
            moved = new @ tangent(surface, memory, rotation(s))
            ambient = per_block(blocks, lambda t, x: t @ skew_part(t.conj().T @ x), new, base @ memory)
            assert np.max(np.abs(moved - ambient)) <= 1e-12

    def test_output_unitary(self):
        rng = np.random.default_rng(23)
        for arch, surface in zip(ARCHS, SURFACES):
            for step in (0.01, 0.5, 3.0):
                base, omega = self.setup(surface, rng, np.sqrt(N))
                out = retract(surface, base, omega)[0](step)
                assert unitarity_defect(out) <= 1e-10
                assert validate(out, arch).valid


class TestRandomUnitary:
    def test_scalar_case_unit_modulus(self):
        u = random_unitary(1, np.random.default_rng(0))
        assert abs(abs(u.entries[0, 0]) - 1.0) <= 1e-12

    def test_deterministic_given_seed(self):
        a = random_unitary(5, np.random.default_rng(42)).entries
        b = random_unitary(5, np.random.default_rng(42)).entries
        assert np.array_equal(a, b)

    def test_haar_first_moment(self):
        rng = np.random.default_rng(29)
        samples = haar_batch(4, 10_000, rng)
        mean_sq = np.mean(np.abs(samples) ** 2)
        assert abs(mean_sq - 0.25) <= 0.01
        # same moment through the public single-sample path
        entries = np.array([random_unitary(4, rng).entries for _ in range(500)])
        assert abs(np.mean(np.abs(entries) ** 2) - 0.25) <= 0.02

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(31)
        for n in (2, 8, 32):
            u = random_unitary(n, rng).entries
            assert unitarity_defect(u) <= 1e-10

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInput):
            random_unitary(0, np.random.default_rng(0))

    def test_is_polar_factor_of_gaussian_draw(self):
        for n in (1, 3, 16):
            rng = np.random.default_rng(n)
            z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
            assert np.array_equal(random_unitary(n, np.random.default_rng(n)).entries, polar_factor(z))

    def test_fourth_moment_matches_qr_reference(self):
        """E|u_ij|^4 = 2 / (n (n + 1)) under Haar; every unitary has E|u_ij|^2 = 1/n."""
        rng = np.random.default_rng(37)
        n = 3
        entries = np.array([random_unitary(n, rng).entries for _ in range(2000)])
        reference = haar_batch(n, 2000, rng)
        for sample in (entries, reference):
            assert abs(np.mean(np.abs(sample) ** 4) - 2.0 / (n * (n + 1))) <= 0.01


class TestBlockProject:
    def test_singleton_groups_give_phases(self):
        rng = np.random.default_rng(37)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        structure = BlockStructure((1, 1, 1, 1))
        out = block_project(m, structure)
        expected = np.diag(np.diag(m) / np.abs(np.diag(m)))
        assert np.allclose(out, expected, atol=1e-12)

    def test_single_group_matches_full_projection(self):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = block_project(m, BlockStructure((4,)))
        assert np.allclose(out, project_to_unitary(m).entries, atol=1e-13)

    def test_two_by_two_blocks(self):
        rng = np.random.default_rng(43)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = block_project(m, BlockStructure((2, 2)))
        assert np.array_equal(out[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(out[2:, :2], np.zeros((2, 2)))
        for sel in (np.s_[:2, :2], np.s_[2:, 2:]):
            assert unitarity_defect(out[sel]) <= 1e-10
            u, s, vh = np.linalg.svd(m[sel])
            assert np.allclose(out[sel], u @ vh, atol=1e-12)

    @pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURE_IDS)
    def test_equals_per_block_reference(self, structure):
        rng = np.random.default_rng(53)
        n = structure.dimension
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(block_project(m, structure), per_block_project(m, structure))

    @pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURE_IDS)
    def test_gather_visits_every_block_once(self, structure):
        """``unpack`` writes each stack entry exactly once, in block order, and nothing else."""
        labels = np.arange(1, np.prod(structure.shape) + 1).reshape(structure.shape)
        out = structure.unpack(labels)
        assert np.count_nonzero(out) == labels.size
        written = np.concatenate([out[np.ix_(idx, idx)].reshape(-1) for idx in runs(structure)])
        assert np.array_equal(written, labels.reshape(-1))

    def test_single_singular_block_rejected(self):
        rng = np.random.default_rng(59)
        structure = STRUCTURES[1]
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        idx = runs(structure)[1]
        m[idx[0], idx] = m[idx[1], idx]
        with pytest.raises(RankDeficient):
            block_project(m, structure)

    def test_structure_validation(self):
        with pytest.raises(InvalidInput):
            BlockStructure((2, 0, 2))
        with pytest.raises(DimensionMismatch):
            BdRisArchitecture.group_connected(BlockStructure((2, 2))).unitary_blocks(3)


class TestPackedLayout:
    """``BlockStructure.unpack``: the (G, k, k) block stack a surface point is held as, placed in N x N."""

    @pytest.mark.parametrize("structure", STRUCTURES + [BlockStructure((N,))], ids=STRUCTURE_IDS + ["full"])
    def test_unpack_of_pack_keeps_the_blocks(self, structure):
        rng = np.random.default_rng(76)
        m = random_complex(rng, N, N)
        blocks = runs(structure)
        stack = gather(structure, m)
        assert stack.shape == structure.shape
        out = structure.unpack(stack)
        assert np.array_equal(out, per_block(blocks, lambda b: b, m))
        for block, idx in zip(stack, blocks):
            assert np.array_equal(out[np.ix_(idx, idx)], block)

    def test_blocks_are_consecutive_runs(self):
        structure = BlockStructure((3,) * 4)
        assert (structure.dimension, structure.shape) == (12, (4, 3, 3))
        labels = np.arange(36).reshape(4, 3, 3)
        out = structure.unpack(labels)
        for g, block in enumerate(labels):
            assert np.array_equal(out[3 * g : 3 * g + 3, 3 * g : 3 * g + 3], block)

    def test_unequal_sizes_and_permutation_rejected(self):
        with pytest.raises(InvalidInput, match="must be equal"):
            BlockStructure((2, 1, 3, 2))
        with pytest.raises(TypeError, match="permutation"):
            BlockStructure((2, 2), permutation=(1, 0, 3, 2))

    def test_whole_matrix_packs_to_its_own_entries(self):
        """The fully-connected surface's stack is the matrix itself, as the whole-matrix maps hold it."""
        rng = np.random.default_rng(77)
        m = random_complex(rng, N, N)
        structure = BlockStructure((N,))
        reals = [ChannelRealization(random_complex(rng, 2, 2), random_complex(rng, 2, N), random_complex(rng, N, 2))]
        stack = CascadedChannels(reals).whole_block(m)
        assert stack.shape == structure.shape and np.array_equal(stack[0], m)
        assert np.array_equal(structure.unpack(stack), m)


class TestAlignedUnitary:
    @pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURE_IDS)
    def test_matches_per_block_svd(self, structure):
        """SVD factor per block, with a zero block and a rank-deficient block mixed in."""
        rng = np.random.default_rng(73)
        m = random_complex(rng, N, N)
        blocks = runs(structure)
        zero = [0, 1] if len(blocks) > 2 else [0]
        for i in zero:
            m[np.ix_(blocks[i], blocks[i])] = 0.0
        for idx in [b for i, b in enumerate(blocks) if i not in zero and len(b) > 1][:1]:
            m[idx[0], idx] = m[idx[1], idx]
            assert np.linalg.matrix_rank(m[np.ix_(idx, idx)]) == len(idx) - 1
        expected, degenerate = np.zeros_like(m), []
        for i, idx in enumerate(blocks):
            u, s, vh = np.linalg.svd(m[np.ix_(idx, idx)])
            expected[np.ix_(idx, idx)] = u @ vh
            if np.max(s) <= 1e-300:
                degenerate.append(i)
        theta, ids = aligned_unitary(gather(structure, m))
        assert np.array_equal(structure.unpack(theta), expected)
        assert degenerate == zero and list(ids) == zero

    def test_whole_matrix_maximizes_real_trace(self):
        rng = np.random.default_rng(74)
        m = random_complex(rng, N, N)
        theta, ids = aligned_unitary(m)
        assert len(ids) == 0
        assert np.real(np.trace(theta.conj().T @ m)) == pytest.approx(np.sum(np.linalg.svd(m)[1]), rel=1e-12)

    def test_one_by_one_blocks_give_diagonal_single_tag_optimum(self):
        rng = np.random.default_rng(75)
        b, c = random_complex(rng, 64), random_complex(rng, 64)
        theta, ids = aligned_unitary((b * np.conj(c))[:, None, None])  # the 64 1 x 1 blocks of b c†
        assert theta.shape == (64, 1, 1) and len(ids) == 0
        assert np.max(np.abs(theta[:, 0, 0] - np.diag(optimal_diagonal_single_tag(b, c)[0].entries))) <= 1e-14


class TestTypeInvariants:
    def test_unitary_wrapper_rejects_non_unitary(self):
        with pytest.raises(InvalidInput):
            UnitaryMatrix(np.ones((2, 2)))

    def test_unitary_wrapper_rejects_non_finite(self):
        with pytest.raises(InvalidInput, match="non-finite"):
            UnitaryMatrix(np.full((4, 4), np.nan))
        eye = np.eye(3, dtype=complex)
        eye[1, 1] = np.inf
        with pytest.raises(InvalidInput, match="non-finite"):
            UnitaryMatrix(eye)

    def test_normal_direction_projects_to_zero(self):
        """A direction base * H, H Hermitian on the blocks, is not tangent: it projects to 0."""
        rng = np.random.default_rng(61)
        for arch, surface in zip(ARCHS, SURFACES):
            base = random_point(surface, rng)
            a = random_complex(rng, N, N) * _support_mask(arch, N)
            normal = base @ (a + a.conj().T)
            assert np.max(np.abs(normal)) > 1.0
            assert np.max(np.abs(tangent(surface, normal, base))) <= 1e-12


GUARDS = [
    pytest.param(lambda: UnitaryMatrix(np.ones((2, 3))), DimensionMismatch, "square", id="not_square"),
    pytest.param(lambda: UnitaryMatrix(np.zeros((0, 0))), InvalidInput, "dimension", id="empty"),
    pytest.param(lambda: project_to_unitary(np.full((2, 2), np.nan)), InvalidInput, "non-finite", id="nan_matrix"),
    pytest.param(lambda: random_unitary(2.5, np.random.default_rng(0)), InvalidInput, "n must be an integer >= 1",
                 id="haar_fractional_dimension"),
    pytest.param(lambda: BlockStructure((2.5, 2.5)), InvalidInput, "group size 0 must be an integer >= 1, got 2.5",
                 id="fractional_sizes"),
    pytest.param(lambda: BlockStructure((2.0, 2.0)), InvalidInput, "group size 0 must be an integer >= 1, got 2.0",
                 id="float_sizes"),
    pytest.param(lambda: BlockStructure((True, True)), InvalidInput, "group size 0 must be an integer >= 1, got True",
                 id="boolean_sizes"),
    pytest.param(lambda: BlockStructure(()), InvalidInput, "positive integers", id="no_groups"),
    pytest.param(lambda: BlockStructure((2, 2)).unpack(np.ones((2, 3, 3))), DimensionMismatch, "cannot unpack",
                 id="unpack_larger"),
    pytest.param(lambda: BlockStructure((2, 2)).unpack(np.ones((1, 2, 2))), DimensionMismatch, "cannot unpack",
                 id="unpack_smaller"),
    pytest.param(lambda: BlockStructure((2, 2)).unpack(np.ones(8)), DimensionMismatch, "cannot unpack",
                 id="unpack_flat"),
    pytest.param(lambda: BlockStructure((2, 2)).unpack(np.ones((4, 4))), DimensionMismatch, "cannot unpack",
                 id="unpack_matrix"),
]


@pytest.mark.parametrize("build,error,message", GUARDS)
def test_typed_guard(build, error, message):
    with pytest.raises(error, match=message):
        build()
