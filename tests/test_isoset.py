import importlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hypothesis import given, settings, strategies as st

import perigeo as pg
from perigeo.cli import main
from perigeo.core import min_interpoint_distance, neighbor_arrays, neighbor_stack
from perigeo.io import write_set_text
from perigeo.isoset import (
    _StableScan,
    _distinct,
    _fit,
    _verify_map,
    cluster_symmetry_group,
    critical_radii,
    groups_equal,
)

from helpers import (
    UNIMODULAR,
    alpha_partition_scratch,
    bridge_length_loop,
    cluster_symmetry_group_referee,
    contract_sets,
    critical_radii_loop,
    isometry_witness,
    jitter_set,
    layered_set,
    min_interpoint_distance_loop,
    minimum_stable_radius_loop,
    minimum_stable_radius_scratch,
    random_orthogonal,
    random_periodic_set,
    random_unimodular,
    rot2,
    skew_unimodular,
    unstable_flag_referee,
)


def symmetric_sets():
    """Exactly symmetric sets by name: lattices, the paper's examples and
    criterion 9's 2x2 square supercell."""
    def make(basis, motif):
        return pg.PeriodicSet(pg.UnitCell(np.asarray(basis, dtype=float)),
                              np.asarray(motif, dtype=float))

    return {
        "square": make(np.eye(2), [[0, 0]]),
        "hexagonal": make([[1, 0], [0.5, np.sqrt(3) / 2]], [[0, 0]]),
        "cubic": make(np.eye(3), [[0, 0, 0]]),
        "bcc": make(np.eye(3), [[0, 0, 0], [0.5, 0.5, 0.5]]),
        "fcc": make(np.eye(3), [[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5],
                                [0, 0.5, 0.5]]),
        "s1": make(10 * np.eye(2), [[0.2, 0.2], [0.2, 0.8], [0.8, 0.2],
                                    [0.8, 0.8]]),
        "s2": make(10 * np.eye(2), [[0.2, 0.2], [0.2, 0.8], [0.8, 0.2],
                                    [0.8, 0.8], [0.5, 0.5]]),
        "s4": make([[1]], [[0], [1 / 4], [1 / 3], [1 / 2]]),
        "supercell": make(2 * np.eye(2), [[0, 0], [0, 0.5], [0.5, 0],
                                          [0.5, 0.5]]),
    }


def isometric_copies(S, rng):
    """S, S in another cell, and S moved by an isometry in a third cell."""
    n = S.dim
    moved = pg.apply_isometry(S, random_orthogonal(rng, n), rng.random(n))
    return [S, pg.change_cell(S, UNIMODULAR[n][-1]),
            pg.change_cell(moved, UNIMODULAR[n][1])]


class TestAlphaCluster:
    def test_square_nearest(self, square):
        c = pg.alpha_cluster(square, 0, 1.0)
        got = sorted(tuple(np.round(p).astype(int)) for p in c.points)
        assert got == sorted([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])

    def test_hexagonal_seven(self, hexagonal):
        c = pg.alpha_cluster(hexagonal, 0, 1.0)
        assert c.size == 7
        lengths = np.linalg.norm(c.points, axis=1)
        assert np.sum(lengths < 1e-12) == 1
        assert np.allclose(np.sort(lengths)[1:], 1.0, atol=1e-9)

    def test_s4_point_quarter(self, s4):
        # the cluster of the point 1/4 at radius 1/12 is {0, +1/12}
        c = pg.alpha_cluster(s4, 1, 1 / 12)
        assert np.allclose(np.sort(c.points.ravel()), [0, 1 / 12], atol=1e-12)

    def test_contains_origin_and_sorted(self, s2):
        c = pg.alpha_cluster(s2, 2, 9.0)
        lengths = np.linalg.norm(c.points, axis=1)
        assert lengths[0] == 0.0
        assert np.all(np.diff(lengths) >= -1e-12)
        assert np.all(lengths <= 9.0 + 1e-8)

    def test_lengths_are_the_norms_of_the_points(self):
        # the neighbor stack's lengths, bit for bit; a cluster built by hand
        # computes them, and neither repr nor equality reads them
        rng = np.random.default_rng(37)
        for n in (1, 2, 3):
            S = random_periodic_set(rng, n, 4)
            for alpha in (0.5, 1.2, pg.easy_stable_radius(S)):
                for p in range(S.m):
                    c = pg.alpha_cluster(S, p, alpha)
                    assert np.array_equal(c.lengths, np.linalg.norm(c.points, axis=1))
            by_hand = pg.Cluster(0, c.alpha, np.array(c.points))
            assert np.array_equal(by_hand.lengths, c.lengths)
            assert "lengths" not in repr(by_hand)


class TestNeighborStack:
    @staticmethod
    def assert_prefixes_exact(S, alpha_max):
        """Every stack read equals neighbor_arrays bit for bit at each
        critical radius and midpoint, from one enumeration per point."""
        radii = [0.0] + critical_radii(S, alpha_max)
        built = {p: S._stacks[p][0] for p in range(S.m)}
        mids = [0.5 * (a + b) for a, b in zip(radii, radii[1:])]
        for alpha in radii + mids:
            for p in range(S.m):
                stack = neighbor_stack(S, p, alpha)
                vecs, idx, shifts = neighbor_arrays(S, p, alpha)
                assert np.array_equal(stack.vectors, vecs)
                assert np.array_equal(stack.indices, idx)
                assert np.array_equal(stack.shifts, shifts)
                assert np.array_equal(stack.lengths,
                                      np.linalg.norm(vecs, axis=1))
                assert np.array_equal(pg.alpha_cluster(S, p, alpha).points, vecs)
        assert {p: S._stacks[p][0] for p in range(S.m)} == built

    def test_prefixes_equal_neighbor_arrays(self):
        rng = np.random.default_rng(83)
        for n in (2, 3):
            S = random_periodic_set(rng, n, 3)
            alpha_max = pg.easy_stable_radius(S)
            U = UNIMODULAR[n][1]
            M = random_orthogonal(rng, n)
            for T in (S, pg.change_cell(S, U),
                      pg.change_cell(S, skew_unimodular(n, 5)),
                      pg.apply_isometry(S, M, rng.random(n))):
                self.assert_prefixes_exact(T, alpha_max)

    def test_read_only_and_grown_on_demand(self, square):
        small = neighbor_stack(square, 0, 1.0)
        assert not small.vectors.flags.writeable
        with pytest.raises(ValueError):
            small.vectors[0, 0] = 1.0
        radius = square._stacks[0][0]
        assert radius >= 1.0
        large = neighbor_stack(square, 0, 3.0)
        assert square._stacks[0][0] > radius
        assert np.array_equal(large.vectors[:len(small.vectors)], small.vectors)
        with pytest.raises(ValueError):
            neighbor_stack(square, 0, -1.0)


class TestClustersIsometric:
    def test_transformed_copy(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            S = random_periodic_set(rng, n, 3)
            C = pg.alpha_cluster(S, 0, 1.5)
            M = random_orthogonal(rng, n)
            D = pg.Cluster(0, C.alpha, np.concatenate([C.points @ M.T]))
            found = pg.clusters_isometric(C, D)
            assert found is not None
            assert abs(abs(found.det) - 1.0) < 1e-7

    def test_square_vs_hexagonal_alpha2(self, square, hexagonal):
        C = pg.alpha_cluster(square, 0, 2.0)
        D = pg.alpha_cluster(hexagonal, 0, 2.0)
        assert (C.size, D.size) == (13, 19)
        assert pg.clusters_isometric(C, D) is None

    def test_self_map_identity(self, s2):
        C = pg.alpha_cluster(s2, 0, 6.0)
        m = pg.clusters_isometric(C, C)
        assert m is not None
        assert np.allclose(m(C.points)[np.lexsort(C.points.T)],
                           C.points[np.lexsort(C.points.T)], atol=1e-9)

    def test_mirrored_1d(self):
        a = pg.Cluster(0, 1.0, np.array([[0.0], [0.25], [0.9]]))
        b = pg.Cluster(0, 1.0, np.array([[-0.9], [-0.25], [0.0]]))
        m = pg.clusters_isometric(a, b)
        assert m is not None and m.matrix[0, 0] == pytest.approx(-1.0)

    def test_rank_deficient_planar_cluster_3d(self):
        rng = np.random.default_rng(43)
        flat = np.column_stack([rng.normal(size=(6, 2)), np.zeros(6)])
        flat[0] = 0.0
        M = random_orthogonal(rng, 3)
        a = pg.Cluster(0, 3.0, flat)
        b = pg.Cluster(0, 3.0, flat @ M.T)
        assert pg.clusters_isometric(a, b) is not None
        # versus a genuinely 3D cluster of the same size: no map
        solid = flat.copy()
        solid[3, 2] = 0.5
        assert pg.clusters_isometric(pg.Cluster(0, 3.0, solid), a) is None


class TestFit:
    def test_exact_correspondences_and_sign(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 3):
            M = random_orthogonal(rng, n)
            P = rng.normal(size=(7, n))
            Q = P @ M.T
            assert np.abs(_fit(P, Q) - M).max() <= 1e-12
            assert np.abs(_fit(P, Q, np.linalg.det(M)) - M).max() <= 1e-12
            # of the other determinant: still orthogonal, of that sign
            F = _fit(P, Q, -np.linalg.det(M))
            assert np.abs(F.T @ F - np.eye(n)).max() <= 1e-12
            assert np.linalg.det(F) == pytest.approx(-np.linalg.det(M))


class TestVerifyMap:
    def test_bijection_where_nearest_points_collide(self):
        # both points of pc are nearest to 0.45, within the tolerance: 1 is
        # 0.58 from its partner 1.58
        pc, ident = np.array([[0.0], [1.0]]), np.eye(1)
        assert _verify_map(ident, pc, cKDTree([[0.45], [1.58]]), 2, 0.6)
        assert not _verify_map(ident, pc, cKDTree([[0.45], [1.58]]), 2, 0.57)
        assert not _verify_map(ident, pc, cKDTree([[0.45], [2.0]]), 2, 0.6)

    def test_decides_as_the_distinct_nearest_rule(self):
        # random maps near the one that sends pc onto pd, with pd's points
        # in close pairs so that nearest points often collide: the decision
        # is that of the rule that counts distinct nearest points with
        # np.unique and falls back to an assignment (linear_sum_assignment,
        # not the matching _verify_map calls) of the pairs within tol
        from scipy.optimize import linear_sum_assignment

        def referee(m, pc, pd, tol):
            dist = np.linalg.norm((pc @ m.T)[:, None] - pd[None], axis=2)
            if dist.min(axis=1).max() > tol:
                return False
            if len(np.unique(dist.argmin(axis=1))) == len(pc):
                return True
            rows, cols = linear_sum_assignment(dist > tol)
            return bool(np.all(dist[rows, cols] <= tol))

        rng = np.random.default_rng(53)
        decided, collided = set(), 0
        for trial in range(600):
            n = 1 + trial % 3
            half = rng.normal(size=(3, n))
            pd = np.vstack([half, half + 0.05 * rng.normal(size=(3, n))])
            M = random_orthogonal(rng, n)
            pc = (pd + 0.02 * rng.normal(size=pd.shape)) @ M
            m = M + 0.02 * rng.normal(size=(n, n))
            tol = float(rng.choice([0.03, 0.06, 0.1]))
            tree = cKDTree(pd)
            got = _verify_map(m, pc, tree, len(pc), tol)
            assert got == referee(m, pc, pd, tol), trial
            decided.add(got)
            collided += len(np.unique(tree.query(pc @ m.T)[1])) < len(pc)
        assert decided == {True, False} and collided >= 100


class TestSymmetryGroup:
    def test_square_dihedral(self, square):
        # oracle: exactly the 8 signed permutation matrices preserve the
        # 4-neighbor cluster
        g = pg.symmetry_group(square, 0, 1.0)
        assert not g.continuous and g.order == 8
        signed_perms = []
        for perm in ([0, 1], [1, 0]):
            for sx in (1, -1):
                for sy in (1, -1):
                    m = np.zeros((2, 2))
                    m[0, perm[0]], m[1, perm[1]] = sx, sy
                    signed_perms.append(m)
        for m in signed_perms:
            assert any(np.abs(m - e).max() < 1e-9 for e in g.elements)

    def test_s4_examples(self, s4):
        # reflection symmetry of the point 0 below radius 1/4, trivial beyond
        for alpha in (0.0, 0.1, 0.24):
            g = pg.symmetry_group(s4, 0, alpha)
            assert g.order == 2
        for p in range(4):
            g = pg.symmetry_group(s4, p, 0.26)
            assert g.order == 1
        assert pg.symmetry_group(s4, 0, 0.25).order == 1

    def test_singleton_cluster_continuous_in_2d(self, square):
        g = pg.symmetry_group(square, 0, 0.5)
        assert g.continuous and g.rank == 0

    def test_collinear_cluster_continuous_in_3d(self):
        c = pg.Cluster(0, 1.0, np.array([[0, 0, 0], [1, 0, 0], [-1, 0, 0.0]]))
        g = cluster_symmetry_group(c)
        assert g.continuous and g.rank == 1 and g.reduced_order == 2

    def test_monotone_under_growth(self):
        rng = np.random.default_rng(47)
        S = random_periodic_set(rng, 2, 3)
        radii = [0.3, 0.8, 1.4, 2.2, 3.0]
        for p in range(S.m):
            orders = []
            for a in radii:
                g = pg.symmetry_group(S, p, a)
                orders.append(math.inf if g.continuous else g.order)
            assert all(x >= y for x, y in zip(orders, orders[1:]))


# the module, which the package's isoset function shadows as an attribute
isoset_module = importlib.import_module("perigeo.isoset")


def _full_svd_frame(points, scale):
    """_rank_and_frame from a full SVD, the k x k U included."""
    k, n = points.shape
    if k == 1:
        return 0, np.eye(n)
    _, sv, vt = np.linalg.svd(points, full_matrices=True)
    return int(np.sum(sv > isoset_module.RANK_TOL * max(scale, 1e-30))), vt


def _same_elements(a, b):
    return len(a) == len(b) and all(
        sum(np.abs(x - y).max() <= 1e-9 for y in b) == 1 for x in a)


def _frame_clusters():
    """Clusters by name, centre first: fewer points than dimensions,
    rank-deficient and full-rank."""
    rng = np.random.default_rng(1515)
    z3 = np.zeros((1, 3))
    line = np.outer([0.0, 1.0, -1.0, 2.5], rng.normal(size=3))
    plane = np.vstack([z3, rng.normal(size=(5, 2)) @ rng.normal(size=(2, 3))])
    square = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0.0]])
    return {
        "one point, 2D": np.zeros((1, 2)),
        "one point, 3D": z3,
        "two points, 3D": np.vstack([z3, rng.normal(size=(1, 3))]),
        "two points, 2D": np.array([[0.0, 0.0], [0.3, -0.8]]),
        "collinear, 3D": line,
        "planar, 3D": plane,
        "planar square, 3D": square @ random_orthogonal(rng, 3).T,
        "solid, 3D": np.vstack([z3, rng.normal(size=(6, 3))]),
        "cubic shell, 3D": np.vstack([z3, np.eye(3), -np.eye(3)]),
    }


class TestRankAndFrame:
    """The thin SVD frame (k >= n points) and the full one (k < n) give the
    ranks, groups and maps of a frame from a full SVD."""

    @pytest.mark.parametrize("name", sorted(_frame_clusters()))
    def test_groups_and_maps_match_a_full_svd_frame(self, name, monkeypatch):
        points = _frame_clusters()[name]
        n = points.shape[1]
        rng = np.random.default_rng(1616)
        C = pg.Cluster(0, 3.0, points)
        D = pg.Cluster(0, 3.0, points @ random_orthogonal(rng, n).T)
        scale = max(float(C.lengths.max()), 1e-30)
        rank, frame = isoset_module._rank_and_frame(points, scale)
        full_rank, full_frame = _full_svd_frame(points, scale)
        assert rank == full_rank and frame.shape == (n, n)
        assert np.allclose(frame @ frame.T, np.eye(n), atol=1e-12)
        # the first `rank` rows span the same hull
        assert np.allclose(frame[:rank].T @ frame[:rank],
                           full_frame[:rank].T @ full_frame[:rank], atol=1e-12)
        thin = (cluster_symmetry_group(C), pg.clusters_isometric(C, D),
                pg.clusters_isometric(C, pg.Cluster(0, 3.0, 1.01 * D.points)))
        monkeypatch.setattr(isoset_module, "_rank_and_frame", _full_svd_frame)
        full = (cluster_symmetry_group(C), pg.clusters_isometric(C, D),
                pg.clusters_isometric(C, pg.Cluster(0, 3.0, 1.01 * D.points)))
        (g, found, scaled), (g_full, found_full, scaled_full) = thin, full
        assert (g.continuous, g.rank, g.reduced_order, g.order) == (
            g_full.continuous, g_full.rank, g_full.reduced_order, g_full.order)
        assert g.rank == rank
        if not g.continuous:
            assert _same_elements(g.elements, g_full.elements)
        assert found is not None and found_full is not None
        for m in (found, found_full):
            mapped = m(C.points)
            assert np.abs(mapped[:, None] - D.points[None]).max(axis=-1).min(axis=1).max() <= 1e-9
        assert (scaled is None) == (scaled_full is None) == (rank > 0)


class TestPartitions:
    def test_lattice_single_block(self, hexagonal):
        for alpha in (0.0, 1.0, 2.5):
            assert pg.alpha_partition(hexagonal, alpha) == ((0,),)

    def test_s4_partitions(self, s4):
        assert len(pg.alpha_partition(s4, 1 / 12)) == 2
        assert len(pg.alpha_partition(s4, 1 / 6)) == 4
        assert len(pg.alpha_partition(s4, 0.5)) == 4

    def test_multipoint_lattice_representation(self, square):
        # same square lattice written with a 2-point motif: one class
        doubled = pg.PeriodicSet(
            pg.UnitCell(np.array([[2.0, 0.0], [0.0, 1.0]])),
            np.array([[0.0, 0.0], [0.5, 0.0]]),
        )
        part = pg.alpha_partition(doubled, 3.0)
        assert part == ((0, 1),)

    def test_refinement_property(self):
        rng = np.random.default_rng(53)
        S = random_periodic_set(rng, 2, 5)
        parts = [pg.alpha_partition(S, a) for a in (0.2, 0.7, 1.3, 2.4)]
        for coarse, fine in zip(parts, parts[1:]):
            for block in fine:
                assert any(set(block) <= set(cb) for cb in coarse)


class TestIsotree:
    def test_s4_branching(self, s4):
        tree = pg.isotree(s4, 0.75)
        sizes = {r: len(p) for r, p in zip(tree.radii, tree.partitions)}
        assert sizes[0.0] == 1
        r112 = min(tree.radii, key=lambda r: abs(r - 1 / 12))
        r16 = min(tree.radii, key=lambda r: abs(r - 1 / 6))
        assert abs(r112 - 1 / 12) < 1e-12 and sizes[r112] == 2
        assert abs(r16 - 1 / 6) < 1e-12 and sizes[r16] == 4
        # refinement holds along the whole tree
        counts = [len(p) for p in tree.partitions]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_lattice_single_chain(self, square):
        tree = pg.isotree(square, 2.5)
        assert all(len(p) == 1 for p in tree.partitions)
        assert all(parent == (0,) for parent in tree.parents[1:])

    def test_s2_splits_in_two(self, s2):
        tree = pg.isotree(s2, 3 * np.sqrt(2) + 0.1)
        at_bridge = [
            p for r, p in zip(tree.radii, tree.partitions)
            if r <= 3 * np.sqrt(2) + 1e-9
        ][-1]
        assert len(at_bridge) == 2
        assert sorted(len(b) for b in at_bridge) == [1, 4]

    def test_distinct_radii_chain_from_the_last_kept(self):
        # a radius within tol of the last one kept is dropped, also when it
        # is more than tol past the first of its run: 0.6 tol goes and
        # 1.2 tol stays; on seeded runs of near-equal radii the result is
        # the one-by-one rule's
        tol = pg.core.REL_TOL
        assert _distinct(np.array([0.0, 0.6 * tol, 1.2 * tol]), tol).tolist() == [
            0.0, 1.2 * tol]
        assert _distinct(np.array([]), tol).tolist() == []
        rng = np.random.default_rng(4040)
        for _ in range(2000):
            steps = rng.choice([0.0, 0.3, 0.6, 0.99, 1.0, 1.01, 2.5],
                               size=int(rng.integers(1, 30)))
            values = (rng.random() + np.cumsum(steps)) * tol
            kept = []
            for v in values.tolist():
                if not kept or v - kept[-1] > tol:
                    kept.append(v)
            assert _distinct(values, tol).tolist() == kept, values

    def test_near_tie_raises_data_error(self):
        # criterion 9's supercell jittered by 1e-7, inside the 1e-6 alpha
        # match tolerance: critical radii near 1 lie closer than that
        # tolerance, and the partitions stop refining there
        cell = pg.UnitCell(2 * np.eye(2))
        motif = np.array([[0, 0], [0, 0.5], [0.5, 0], [0.5, 0.5]])
        S = pg.PeriodicSet(cell, motif)
        for seed in range(3):
            Q, _ = jitter_set(np.random.default_rng(seed), S, 1e-7)
            with pytest.raises(pg.DataError, match="near-tie") as info:
                pg.isotree(Q, 4.0)
            assert "at radius 0.9999999" in str(info.value)


class TestStableRadius:
    def test_s4(self, s4):
        res = pg.minimum_stable_radius(s4)
        assert res.beta == pytest.approx(0.5, abs=1e-12)
        assert res.alpha == pytest.approx(0.75, abs=1e-12)
        assert not res.fallback

    def test_square_and_hexagonal(self, square, hexagonal):
        assert pg.minimum_stable_radius(square).alpha == pytest.approx(2.0)
        assert pg.minimum_stable_radius(hexagonal).alpha == pytest.approx(2.0)

    def test_generic_lattice_two_b(self):
        basis = np.array([[1.0, 0.0], [0.3, 1.1]])
        S = pg.PeriodicSet(pg.UnitCell(basis), np.zeros((1, 2)))
        b = np.linalg.norm(pg.reduce_basis(basis), axis=1).max()
        res = pg.minimum_stable_radius(S)
        assert res.alpha == pytest.approx(2 * b, rel=1e-9)

    def test_stability_persists_above_minimum(self, s4):
        res = pg.minimum_stable_radius(s4)
        for delta in (0.01, 0.1, 0.3):
            a = res.alpha + delta
            assert pg.alpha_partition(s4, a) == pg.alpha_partition(
                s4, a - res.beta
            )
            for p in range(s4.m):
                assert groups_equal(
                    pg.symmetry_group(s4, p, a),
                    pg.symmetry_group(s4, p, a - res.beta),
                )

    def test_upper_bound(self, s1, s2, s4):
        for S in (s1, s2, s4):
            res = pg.minimum_stable_radius(S)
            bound = res.beta + max(S.cell.longest_edge, S.cell.diameter / 2)
            assert res.alpha <= bound + 1e-9


class TestIsoset:
    def test_hexagonal_alpha2(self, hexagonal):
        iso = pg.isoset(hexagonal, 2.0)
        assert len(iso.classes) == 1
        assert iso.classes[0].weight == Fraction(1)
        assert iso.classes[0].representative.size == 19

    def test_s1_one_regular(self, s1):
        res = pg.minimum_stable_radius(s1)
        iso = pg.isoset(s1, res.alpha)
        assert len(iso.classes) == 1
        assert iso.classes[0].weight == Fraction(1)

    def test_s2_two_regular(self, s2):
        res = pg.minimum_stable_radius(s2)
        iso = pg.isoset(s2, res.alpha)
        assert sorted(c.weight for c in iso.classes) == [
            Fraction(1, 5), Fraction(4, 5)
        ]

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(59)
        S = random_periodic_set(rng, 2, 4)
        iso = pg.isoset(S, 2.0)
        assert sum(iso.weights) == Fraction(1)


class TestIsosetsEqual:
    def test_square_under_other_cells(self, square):
        for U in UNIMODULAR[2][1:]:
            assert pg.isosets_equal(square, pg.change_cell(square, U))

    def test_square_vs_hexagonal(self, square, hexagonal):
        assert not pg.isosets_equal(square, hexagonal)

    def test_s1_vs_s2(self, s1, s2):
        assert not pg.isosets_equal(s1, s2)

    def test_random_isometries(self):
        rng = np.random.default_rng(61)
        for n in (2, 3):
            S = random_periodic_set(rng, n, 3)
            for _ in range(3):
                M = random_orthogonal(rng, n)
                T = pg.apply_isometry(S, M, rng.random(n))
                T = pg.change_cell(
                    T, UNIMODULAR[n][rng.integers(len(UNIMODULAR[n]))]
                )
                assert pg.isosets_equal(S, T)

    def test_perturbation_detected(self):
        rng = np.random.default_rng(67)
        S = random_periodic_set(rng, 2, 3)
        r, _ = pg.packing_covering_radii(S)
        Q, _ = jitter_set(rng, S, 0.05 * r)
        assert not pg.isosets_equal(S, Q)
        M = rot2(0.7)
        assert pg.isosets_equal(S, pg.apply_isometry(S, M, [0.1, 0.2]))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(n=st.integers(2, 3), m=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_invariant_under_isometry(self, n, m, seed):
        rng = np.random.default_rng(seed)
        S = random_periodic_set(rng, n, m)
        M = random_orthogonal(rng, n)
        assert pg.isosets_equal(S, pg.apply_isometry(S, M, rng.random(n)))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(n=st.integers(2, 3), m=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), which=st.integers(0, 4))
    def test_invariant_under_cell_change(self, n, m, seed, which):
        S = random_periodic_set(np.random.default_rng(seed), n, m)
        U = UNIMODULAR[n][which % len(UNIMODULAR[n])]
        assert pg.isosets_equal(S, pg.change_cell(S, U))

    def test_unstable_flag(self, square):
        assert pg.isoset(square, 1.0).unstable
        assert not pg.isoset(square, 1.2).unstable


class TestNearCopies:
    """Two-point sets against copies jittered far inside the match
    tolerance: each set has one isoset class (a two-point set is
    centrosymmetric), and the witness, which shares no code with the
    isometry search, finds a map between the two sets' clusters.  On 3D
    seeds 16, 41 and 68 and 2D seeds 72, 115, 121 and 123 the anchors'
    least-squares fit is not accepted as it is, and its refit to the
    nearest points is."""

    @pytest.mark.parametrize("n, eps, offset, seed", [
        *((3, 1e-6, 1000, s) for s in (0, 3, 14, 16, 41, 68)),
        *((2, 1e-6, 5000, s) for s in (11, 43, 72, 115, 121, 123)),
        (3, 5e-7, 5000, 165),
    ])
    def test_isometric(self, n, eps, offset, seed):
        S = random_periodic_set(np.random.default_rng(seed), n, 2)
        J, _ = jitter_set(np.random.default_rng(offset + seed), S, eps)
        alpha = pg.common_stable_alpha(S, J)
        assert isometry_witness(pg.alpha_cluster(S, 0, alpha),
                                pg.alpha_cluster(J, 0, alpha)) is not None
        assert pg.isosets_equal(S, J)

    def test_either_order_under_a_wide_tolerance(self):
        # random sets with 3-5 points, 2D on even seeds and 1D on odd ones,
        # jittered copies and tolerances drawn from one generator per seed.
        # In 1D on seed 3645 two cluster points of the copy have the same
        # nearest point of the set's cluster, within the tolerance 0.012,
        # and a bijection within it exists
        for seed in (504, 670, 1202, 1698, 2492, 3645):
            rng = np.random.default_rng(seed)
            S = random_periodic_set(rng, 2 - seed % 2, int(rng.integers(3, 6)),
                                    min_sep=0.1)
            T, _ = jitter_set(rng, S, float(rng.choice([0.002, 0.005, 0.01])))
            tol = float(rng.choice([0.004, 0.008, 0.012]))
            assert pg.isosets_equal(S, T, tol) == pg.isosets_equal(T, S, tol), seed

    def test_identity_found_under_a_wide_tolerance(self):
        # the same recipe in 2D: the anchor search finds no map between a
        # class pair, but the identity passes the acceptance test, so
        # each copy is isometric in both orders
        for seed in (78, 198, 258, 574, 760, 914):
            rng = np.random.default_rng(seed)
            S = random_periodic_set(rng, 2 - seed % 2, int(rng.integers(3, 6)),
                                    min_sep=0.1)
            T, _ = jitter_set(rng, S, float(rng.choice([0.002, 0.005, 0.01])))
            tol = float(rng.choice([0.004, 0.008, 0.012]))
            assert pg.isosets_equal(S, T, tol) and pg.isosets_equal(T, S, tol), seed


class TestMonotoneScan:
    """The monotone scan against the scan that recomputes partitions and
    groups from scratch at every radius it visits."""

    @staticmethod
    def random_sets():
        """Random sets, and layered ones whose groups shrink above the root."""
        for n in (2, 3):
            for m in range(1, 7):
                rng = np.random.default_rng(1000 * n + m)
                yield random_periodic_set(rng, n, m, skew=(0.1, 0.15, 0.3)[m % 3])
        for seed in (1, 2, 4, 7, 8, 10, 13):
            yield layered_set(np.random.default_rng(seed), 2 + seed % 2, 1 + seed % 3)

    @staticmethod
    def assert_levels_match_scratch(S):
        """Every partition and group the scan computed equals the one
        computed from scratch at that radius.  Returns how many filtered
        groups are smaller than their root."""
        scan = _StableScan(S, None)
        scan.run()
        assert scan.partitions and scan.groups
        for idx, part in scan.partitions.items():
            assert part == alpha_partition_scratch(S, scan.crit[idx])
        shrunk = 0
        for (p, idx), g in scan.groups.items():
            assert groups_equal(g, pg.symmetry_group(S, p, scan.crit[idx]))
            level, root = scan.roots[p]
            shrunk += idx > level and g.order < root.order
        return shrunk

    def test_random_sets_match_scratch(self):
        for S in self.random_sets():
            res = pg.minimum_stable_radius(S)
            assert (res.alpha, res.beta, res.fallback) == \
                minimum_stable_radius_scratch(S)

    def test_symmetric_sets_match_scratch(self):
        rng = np.random.default_rng(89)
        for name, S in symmetric_sets().items():
            for T in isometric_copies(S, rng):
                res = pg.minimum_stable_radius(T)
                assert (res.alpha, res.beta, res.fallback) == \
                    minimum_stable_radius_scratch(T), name

    def test_visited_levels_match_scratch(self):
        shrunk = sum(self.assert_levels_match_scratch(S) for S in self.random_sets())
        assert shrunk > 0  # filtering removed root elements somewhere
        rng = np.random.default_rng(97)
        for S in symmetric_sets().values():
            for T in isometric_copies(S, rng):
                self.assert_levels_match_scratch(T)

    @pytest.mark.parametrize("name, eps, seed", [
        ("supercell", 3e-7, 502),
        ("bcc", 1e-7, 501),
        ("s2", 3e-7, 502),
        ("fcc", 3e-7, 5),
    ])
    def test_near_symmetric_keeps_exact_radius(self, name, eps, seed):
        # jitter far inside the 1e-6 alpha match tolerance: the stable radius
        # stays the exact set's. Near that radius the scan that recomputes
        # everything rejects every candidate on these draws: where a near-tie
        # splits a shell the partitions differ, and elsewhere the groups'
        # re-solved matrices differ by more than groups_equal's 1e-8
        S = symmetric_sets()[name]
        exact = pg.minimum_stable_radius(S).alpha
        Q, _ = jitter_set(np.random.default_rng(seed), S, eps)
        assert pg.minimum_stable_radius(Q).alpha == pytest.approx(exact, rel=1e-5)
        assert minimum_stable_radius_scratch(Q)[0] > exact * (1 + 1e-5)


class TestWitnesses:
    """The stable-radius scan tests each member's last map onto its block
    representative before it searches (_refine's witnesses)."""

    @staticmethod
    def reduced_map_calls(S, monkeypatch):
        """(minimum_stable_radius of a fresh copy of S, its _reduced_maps
        calls)."""
        calls = []
        search = isoset_module._reduced_maps

        def counting(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(isoset_module, "_reduced_maps", counting)
            res = pg.minimum_stable_radius(pg.PeriodicSet(S.cell, S.motif))
        return (res.alpha, res.beta, res.fallback), len(calls)

    @staticmethod
    def unwitnessed(S, monkeypatch):
        """minimum_stable_radius with no witness kept between refinements,
        so that every member is searched at every level."""
        refine = isoset_module._refine
        with monkeypatch.context() as patch:
            patch.setattr(isoset_module, "_refine",
                          lambda S, parent, alpha, tol, _: refine(S, parent, alpha, tol, {}))
            res = pg.minimum_stable_radius(pg.PeriodicSet(S.cell, S.motif))
        return res.alpha, res.beta, res.fallback

    def test_random_sets_match_scratch(self, monkeypatch):
        for n in (2, 3):
            for k, m in enumerate((2, 2, 3, 5)):
                S = random_periodic_set(np.random.default_rng(3300 + 10 * n + k), n, m)
                got = self.reduced_map_calls(S, monkeypatch)[0]
                assert got == minimum_stable_radius_scratch(S)
                assert got == self.unwitnessed(S, monkeypatch)
                # and every partition the scan visited is the one from scratch
                TestMonotoneScan.assert_levels_match_scratch(S)

    @pytest.mark.parametrize("name, eps, seed", [
        ("supercell", 3e-7, 502), ("bcc", 1e-7, 501), ("s2", 3e-7, 502),
    ])
    def test_near_symmetric_sets_keep_their_radius(self, name, eps, seed,
                                                   monkeypatch):
        # TestMonotoneScan's near-symmetric draws, where the scan from
        # scratch reads a larger radius: witnesses change no answer
        S = symmetric_sets()[name]
        Q, _ = jitter_set(np.random.default_rng(seed), S, eps)
        got = self.reduced_map_calls(Q, monkeypatch)[0]
        assert got == self.unwitnessed(Q, monkeypatch)
        assert got[0] == pytest.approx(pg.minimum_stable_radius(S).alpha, rel=1e-5)

    def test_two_point_3d_scan_searches_once_per_pair(self, monkeypatch):
        # the root groups and the first match of the two points are
        # searched; searching every grid level again took 37-46 calls
        for seed in range(4):
            S = random_periodic_set(np.random.default_rng(4000 + seed), 3, 2)
            _, calls = self.reduced_map_calls(S, monkeypatch)
            assert calls <= 8


class TestPairList:
    """The radii read off core.neighbor_pairs against the per-point loops
    they replaced, bit for bit: seeded 1D-3D sets with m = 1..6 (at m = 1
    every edge is a loop, so the orientation rule decides the bridge
    length), also on cells 2-3 times longer than wide, layered sets,
    re-celled skewed cells and the symmetric sets with their isometric
    copies."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(2828)
        for n in (1, 2, 3):
            for m in range(1, 7):
                S = random_periodic_set(rng, n, m, skew=(0.05, 0.2, 0.4)[m % 3])
                yield S
                if n > 1:
                    yield pg.change_cell(S, skew_unimodular(n, 1 + m % 2))
        for seed in range(6):
            yield layered_set(np.random.default_rng(seed), 2 + seed % 2, 1 + seed % 3)
        yield from contract_sets()
        for S in symmetric_sets().values():
            yield from isometric_copies(S, rng)

    def test_radii_equal_the_loops(self):
        for S in self.corpus():
            assert min_interpoint_distance(S) == min_interpoint_distance_loop(S)
            beta = pg.bridge_length(S)
            assert beta == bridge_length_loop(S)
            for alpha in (0.5 * beta, beta, pg.easy_stable_radius(S)):
                assert critical_radii(S, alpha) == critical_radii_loop(S, alpha)

    def test_stable_radius_equals_the_loop(self):
        for S in self.corpus():
            res = pg.minimum_stable_radius(S)
            assert (res.alpha, res.beta, res.fallback) == \
                minimum_stable_radius_loop(S)


class TestOneSearch:
    """Symmetry groups from the isometry search of a cluster onto itself,
    and the unstable flag off the pair list, against the group's own search
    and the flag from the critical radii (tests/helpers.py)."""

    @staticmethod
    def set_clusters():
        """Every motif point's clusters at 0 and the first critical radii,
        for the symmetric sets and layered sets."""
        sets = list(symmetric_sets().values())
        sets += [layered_set(np.random.default_rng(seed), 2 + seed % 2, 1 + seed % 3)
                 for seed in range(6)]
        for S in sets:
            radii = [0.0] + critical_radii(S, pg.easy_stable_radius(S))[:5]
            for p in range(S.m):
                for alpha in radii:
                    yield pg.alpha_cluster(S, p, alpha)

    @staticmethod
    def free_clusters():
        """Planar and collinear clusters in 3D, and the center alone in
        1D-3D."""
        for name, points in _frame_clusters().items():
            if "3D" in name and "solid" not in name:
                yield pg.Cluster(0, 3.0, points)
        for n in (1, 2, 3):
            yield pg.Cluster(0, 1.0, np.zeros((1, n)))

    def test_groups_equal_the_referee(self):
        seen = set()
        for C in [*self.set_clusters(), *self.free_clusters()]:
            g, ref = cluster_symmetry_group(C), cluster_symmetry_group_referee(C)
            signature = (g.continuous, g.rank, g.reduced_order, g.order)
            assert signature == (ref.continuous, ref.rank, ref.reduced_order,
                                 ref.order)
            assert groups_equal(g, ref) and groups_equal(ref, g)
            seen.add((C.dim, g.rank, g.continuous))
        # full rank, codimension 1 and 2+, and rank 0 in every dimension
        assert {(1, 0, False), (2, 0, True), (3, 0, True), (2, 1, False),
                (3, 1, True), (3, 2, False), (2, 2, False), (3, 3, False)} <= seen

    def test_unstable_flag_equals_the_referee(self):
        flags = []
        for n in (1, 2, 3):
            for m in range(1, 5):
                S = random_periodic_set(np.random.default_rng(2900 + 10 * n + m), n, m)
                for c in critical_radii(S, pg.easy_stable_radius(S))[:6]:
                    for tol in (None, 1e-3, 0.01, 0.05):
                        t = isoset_module.match_tolerance(c, tol)
                        for f in (0.0, 0.5, 0.999, 1.001, 3.0, 30.0):
                            for alpha in {max(c - f * t, 0.0), c + f * t}:
                                flag = pg.isoset(S, alpha, tol).unstable
                                assert flag == unstable_flag_referee(S, alpha, tol)
                                flags.append(flag)
        assert 0 < sum(flags) < len(flags)

    def test_isoset_never_builds_critical_radii(self, monkeypatch, tmp_path,
                                                 capsys):
        def refuse(*args):
            raise AssertionError("critical_radii called")

        S = symmetric_sets()["s2"]
        Q = pg.apply_isometry(S, rot2(0.3), [0.1, 0.2])
        paths = [tmp_path / "s.txt", tmp_path / "q.txt"]
        for path, T in zip(paths, (S, Q)):
            path.write_text(write_set_text(T), encoding="utf-8")
        monkeypatch.setattr(isoset_module, "critical_radii", refuse)
        assert pg.isoset(S, 6.0).unstable and not pg.isoset(S, 5.0).unstable
        assert pg.isosets_equal(S, Q)
        assert not pg.isosets_equal(S, symmetric_sets()["s1"])
        assert main(["emd", *map(str, paths)]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] <= 1e-9


class TestReducedCellRadius:
    """common_stable_alpha reads each set's easy bound off its reduced
    cell's max{2b, d} alone: a set re-celled by a unimodular U gets its own
    radius, on this corpus never above the given cells' bound, and the
    isometry decision there is the one at the given cells' bound.  Where
    the given cell's bound is the smaller, both cells still read the
    reduced cell's."""

    @staticmethod
    def corpus():
        """(S, U, J): 72 sets in 1D-3D with m = 1..6, a unimodular U with
        entries in -3..3 (1-3 row operations), and S jittered by 0.05 r."""
        rng = np.random.default_rng(3434)
        for n in (1, 2, 3):
            for m in range(1, 7):
                for _ in range(4):
                    S = random_periodic_set(rng, n, m)
                    U = np.array([[int(rng.choice([-1, 1]))]])
                    while n > 1:
                        U = random_unimodular(rng, n, int(rng.integers(1, 4)))
                        if np.abs(U).max() <= 3:
                            break
                    J, _ = jitter_set(rng, S, 0.05 * pg.packing_covering_radii(S)[0])
                    yield S, U, J

    def test_recelled_copy_keeps_the_radius_and_the_decision(self):
        shrunk = 0
        for S, U, J in self.corpus():
            T, JU = pg.change_cell(S, U), pg.change_cell(J, U)
            alpha = pg.common_stable_alpha(S, T)
            assert alpha == pytest.approx(pg.common_stable_alpha(S, S), rel=1e-12)
            for Q in (T, JU):
                given = max(pg.easy_stable_radius(S), pg.easy_stable_radius(Q))
                assert pg.common_stable_alpha(S, Q) <= given
                same = pg.isosets_equal(S, Q)
                assert same == pg.isosets_equal(S, Q, alpha=given)
                assert same is (Q is T or S.m == 1)
            shrunk += alpha < max(pg.easy_stable_radius(S), pg.easy_stable_radius(T))
        assert shrunk >= 40

    def test_one_default_radius_per_lattice(self):
        # a one-point 3D lattice whose given cell's max{2b, d}, 3.08875, is
        # below its reduced cell's, 3.12580: the default radius is the
        # reduced cell's on both cells, above the stable radius 3.07766
        basis = np.array([[1.4875, 0.2576, -0.2983], [0.3225, 1.1173, 0.6265],
                          [0.3614, -0.0415, 1.4175]])
        S = pg.PeriodicSet(pg.UnitCell(basis), np.zeros((1, 3)))
        assert pg.easy_stable_radius(S) == pytest.approx(3.08875, abs=1e-5)
        assert pg.common_stable_alpha(S) == pg.common_stable_alpha(S.reduced)
        for T in (S, S.reduced):
            assert pg.common_stable_alpha(T) == pytest.approx(3.12580, abs=1e-5)
            assert pg.minimum_stable_radius(T).alpha == pytest.approx(3.07766,
                                                                      abs=1e-5)


class TestClassWitness:
    """isosets_equal tries the last map it found between two classes before
    it searches the next class pair (clusters_isometric's witness)."""

    @staticmethod
    def matching_searches(S, Q, monkeypatch):
        """(isosets_equal(S, Q), the _reduced_maps calls it makes beyond
        those of the two isosets)."""
        calls = []
        search = isoset_module._reduced_maps

        def counting(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        alpha = pg.common_stable_alpha(S, Q)
        with monkeypatch.context() as patch:
            patch.setattr(isoset_module, "_reduced_maps", counting)
            pg.isoset(S, alpha)
            pg.isoset(Q, alpha)
            own = len(calls)
            same = pg.isosets_equal(S, Q)
        return same, len(calls) - 2 * own

    @staticmethod
    def moved(rng, S):
        n = S.dim
        T = pg.apply_isometry(S, random_orthogonal(rng, n), rng.random(n))
        return pg.change_cell(T, UNIMODULAR[n][1])

    def test_one_search_serves_every_class(self, monkeypatch):
        # random sets of 4-6 points, each point its own class: the first
        # class pair is searched, and its map verifies the others
        for seed in range(6):
            rng = np.random.default_rng(3500 + seed)
            S = random_periodic_set(rng, 2 + seed % 2, 4 + seed % 3)
            assert len(pg.isoset(S, pg.common_stable_alpha(S, S)).classes) == S.m
            assert self.matching_searches(S, self.moved(rng, S), monkeypatch) == (True, 1)
            J, _ = jitter_set(rng, S, 0.05 * pg.packing_covering_radii(S)[0])
            assert not pg.isosets_equal(S, J)
            assert not pg.isosets_equal(S, self.moved(rng, J))

    def test_a_failed_witness_falls_back_to_the_search(self, monkeypatch):
        # centrosymmetric sets {p, q, -p, -q}: classes {p, -p} and {q, -q},
        # whose representatives need not correspond under the first map
        searches = []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 2
            S = random_periodic_set(rng, n, 2)
            S = pg.PeriodicSet(S.cell, np.vstack([S.motif, pg.core.fold_fractions(-S.motif)]))
            T = self.moved(rng, S)
            same, calls = self.matching_searches(S, T, monkeypatch)
            assert same
            searches.append(calls)
        # seed 11: the map of the first classes does not verify the second
        assert set(searches) == {1, 2} and searches[11] == 2


class TestLatticeMapsFirst:
    """clusters_isometric tries the identity and the inversion -I, the two
    orthogonal maps that fix every lattice, before the anchor search, and
    a symmetry group records the identity without refitting it."""

    @staticmethod
    def searches(monkeypatch, run):
        """(run(), the _reduced_maps calls it makes)."""
        calls = []
        search = isoset_module._reduced_maps

        def counting(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(isoset_module, "_reduced_maps", counting)
            got = run()
        return got, len(calls)

    def test_two_point_sets_and_jittered_copies_need_no_search(self, monkeypatch):
        # a two-point set is centrosymmetric: its points' clusters are
        # related by -I, and a copy jittered far inside the tolerance by
        # the identity or -I
        for seed in range(8):
            rng = np.random.default_rng(4200 + seed)
            S = random_periodic_set(rng, 2 + seed % 2, 2)
            J, _ = jitter_set(rng, S, 1e-7)
            alpha = pg.common_stable_alpha(S, J)
            for T in (S, J):
                assert self.searches(monkeypatch, lambda: pg.alpha_partition(
                    T, alpha)) == (((0, 1),), 0)
            assert self.searches(monkeypatch, lambda: pg.isosets_equal(S, J)) == (True, 0)

    def test_conventional_and_primitive_cells_need_no_search(self, monkeypatch):
        # bcc and fcc on their cubic cells, whose motif points are
        # translates, against their one-point primitive cells
        conventional = symmetric_sets()
        primitive = {
            "bcc": 0.5 * np.array([[1.0, 1, -1], [1, -1, 1], [-1, 1, 1]]),
            "fcc": 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]]),
        }
        for name, basis in primitive.items():
            S = conventional[name]
            P = pg.PeriodicSet(pg.UnitCell(basis), np.zeros((1, 3)))
            alpha = pg.common_stable_alpha(S, P)
            assert self.searches(monkeypatch, lambda: pg.alpha_partition(
                S, alpha)) == ((tuple(range(S.m)),), 0), name
            assert self.searches(monkeypatch, lambda: pg.isosets_equal(S, P)) \
                == (True, 0), name
            assert self.searches(monkeypatch, lambda: pg.isosets_equal(P, S)) \
                == (True, 0), name

    @pytest.mark.parametrize("name, order, radii", [
        ("bcc", 48, (0.9, 1.0, 1.5)),
        ("fcc", 48, (0.75, 1.0, 1.3)),
        ("hexagonal", 12, (1.0, 1.8, 2.0)),
        ("supercell", 8, (1.0, 1.5, 2.3)),
    ])
    def test_groups_never_refit_the_identity(self, name, order, radii, monkeypatch):
        # every cluster of these sets has the lattice's point group; no fit
        # sends the anchors onto themselves, whose fit is the identity
        S = symmetric_sets()[name]
        fits = []
        fit = isoset_module._fit

        def recording(P, Q, sign=None):
            fits.append(np.array_equal(P, Q))
            return fit(P, Q, sign)

        with monkeypatch.context() as patch:
            patch.setattr(isoset_module, "_fit", recording)
            for alpha in radii:
                for p in range(S.m):
                    g = pg.symmetry_group(S, p, alpha)
                    assert (g.continuous, g.order) == (False, order), (alpha, p)
                    C = pg.alpha_cluster(S, p, alpha)
                    tree = cKDTree(C.points)
                    assert all(_verify_map(e, C.points, tree, C.size, 1e-9)
                               for e in g.elements)
        assert fits and not any(fits)
