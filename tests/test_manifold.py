"""Unitary-manifold machinery: projections, tangents, retraction, Haar sampling."""

import numpy as np
import pytest

from bdris.errors import DimensionMismatch, InvalidInput, RankDeficient
from bdris.manifold import (
    BlockStructure,
    TangentDirection,
    UnitaryMatrix,
    block_project,
    polar_factor,
    project_to_unitary,
    random_unitary,
    retract,
    skew_part,
    tangent_project,
    unitarity_defect,
)

# diagonal, equal groups, unequal groups, and unequal groups through a permutation
STRUCTURES = [
    BlockStructure((1,) * 8),
    BlockStructure((4, 4)),
    BlockStructure((2, 1, 3, 2)),
    BlockStructure((2, 1, 3, 2), permutation=(7, 0, 5, 2, 4, 1, 6, 3)),
]
STRUCTURE_IDS = ["diag", "equal", "unequal", "permuted"]


def per_block_project(m, structure):
    """Reference block projection: one np.ix_ gather and polar factor per block."""
    out = np.zeros_like(m)
    for idx in structure.block_indices():
        sel = np.ix_(idx, idx)
        out[sel] = polar_factor(m[sel])
    return out


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
    def test_stack_matches_per_slice(self):
        rng = np.random.default_rng(19)
        stack = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        out = skew_part(stack)
        for g in range(6):
            assert np.array_equal(out[g], skew_part(stack[g]))
            assert np.array_equal(out[g], -out[g].conj().T)


class TestTangentProject:
    def test_base_point_maps_to_zero(self):
        rng = np.random.default_rng(5)
        base = random_unitary(4, rng)
        t = tangent_project(base.entries, base)
        assert np.max(np.abs(t.entries)) <= 1e-12

    def test_hand_evaluated_case(self):
        base = UnitaryMatrix(np.eye(2))
        g = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        t = tangent_project(g, base)
        expected = np.array([[0.0, 0.5], [-0.5, 0.0]])
        assert np.allclose(t.entries, expected, atol=1e-14)

    def test_output_is_tangent(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            base = random_unitary(5, rng)
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            t = tangent_project(g, base)
            x = base.entries.conj().T @ t.entries
            assert np.max(np.abs(x + x.conj().T)) <= 1e-12

    def test_idempotent_linear_map(self):
        rng = np.random.default_rng(17)
        base = random_unitary(4, rng)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        once = tangent_project(g, base)
        twice = tangent_project(once.entries, base)
        assert np.max(np.abs(twice.entries - once.entries)) <= 1e-12

    def test_dimension_mismatch(self):
        base = UnitaryMatrix(np.eye(2))
        with pytest.raises(DimensionMismatch):
            tangent_project(np.zeros((3, 3)), base)


class TestRetract:
    def test_zero_step_is_exact(self):
        rng = np.random.default_rng(19)
        base = random_unitary(4, rng)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t = tangent_project(g, base)
        out = retract(base, t, 0.0)
        assert out.entries is base.entries

    def test_matches_exponential_map_to_first_order(self):
        t = 0.1
        base = UnitaryMatrix(np.eye(2))
        direction = TangentDirection(np.array([[0.0, t], [-t, 0.0]], dtype=complex), base)
        out = retract(base, direction, 1.0)
        exact = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        assert np.linalg.norm(out.entries - exact) <= 1e-3

    def test_output_unitary(self):
        rng = np.random.default_rng(23)
        for step in (0.01, 0.5, 3.0):
            base = random_unitary(6, rng)
            g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            out = retract(base, tangent_project(g, base), step)
            assert unitarity_defect(out.entries) <= 1e-10


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


class TestBlockProject:
    def test_singleton_groups_give_phases(self):
        rng = np.random.default_rng(37)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        structure = BlockStructure((1, 1, 1, 1))
        out = block_project(m, structure).entries
        expected = np.diag(np.diag(m) / np.abs(np.diag(m)))
        assert np.allclose(out, expected, atol=1e-12)

    def test_single_group_matches_full_projection(self):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = block_project(m, BlockStructure((4,))).entries
        assert np.allclose(out, project_to_unitary(m).entries, atol=1e-13)

    def test_two_by_two_blocks(self):
        rng = np.random.default_rng(43)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = block_project(m, BlockStructure((2, 2))).entries
        assert np.array_equal(out[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(out[2:, :2], np.zeros((2, 2)))
        for sel in (np.s_[:2, :2], np.s_[2:, 2:]):
            assert unitarity_defect(out[sel]) <= 1e-10
            u, s, vh = np.linalg.svd(m[sel])
            assert np.allclose(out[sel], u @ vh, atol=1e-12)

    def test_permuted_blocks(self):
        rng = np.random.default_rng(47)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        structure = BlockStructure((2, 2), permutation=(0, 2, 1, 3))
        out = block_project(m, structure).entries
        # groups {0,2} and {1,3}: everything across them must vanish
        for i, j in [(0, 1), (0, 3), (2, 1), (2, 3), (1, 0), (1, 2), (3, 0), (3, 2)]:
            assert out[i, j] == 0
        assert unitarity_defect(out) <= 1e-10

    @pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURE_IDS)
    def test_equals_per_block_reference(self, structure):
        rng = np.random.default_rng(53)
        n = structure.dimension
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(block_project(m, structure).entries, per_block_project(m, structure))

    @pytest.mark.parametrize("structure", STRUCTURES, ids=STRUCTURE_IDS)
    def test_gather_visits_every_block_once(self, structure):
        n = structure.dimension
        covered = np.zeros((n, n), dtype=int)
        seen = []
        for g in structure.gather:
            k = g.rows.shape[1]
            assert g.rows.shape == (len(g.block_ids), k, 1) and g.cols.shape == (len(g.block_ids), 1, k)
            for block_id, rows in zip(g.block_ids, g.rows[:, :, 0]):
                assert np.array_equal(rows, structure.block_indices()[block_id])
            np.add.at(covered, (g.rows, g.cols), 1)
            seen += list(g.block_ids)
        assert sorted(seen) == list(range(len(structure.group_sizes)))
        expected = np.zeros((n, n), dtype=int)
        for idx in structure.block_indices():
            expected[np.ix_(idx, idx)] = 1
        assert np.array_equal(covered, expected)

    def test_single_singular_block_rejected(self):
        rng = np.random.default_rng(59)
        structure = STRUCTURES[3]
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        idx = structure.block_indices()[2]  # the 3 x 3 block
        m[idx[0], idx] = m[idx[1], idx]
        with pytest.raises(RankDeficient):
            block_project(m, structure)

    def test_structure_validation(self):
        with pytest.raises(InvalidInput):
            BlockStructure((2, 0, 2))
        with pytest.raises(InvalidInput):
            BlockStructure((2, 2), permutation=(0, 1, 2, 2))
        with pytest.raises(DimensionMismatch):
            block_project(np.eye(3), BlockStructure((2, 2)))


class TestTypeInvariants:
    def test_unitary_wrapper_rejects_non_unitary(self):
        with pytest.raises(InvalidInput):
            UnitaryMatrix(np.ones((2, 2)))

    def test_tangent_wrapper_rejects_non_tangent(self):
        base = UnitaryMatrix(np.eye(2))
        with pytest.raises(InvalidInput):
            TangentDirection(np.eye(2), base)
