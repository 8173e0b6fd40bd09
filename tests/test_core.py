import itertools

import numpy as np
import pytest
from scipy.spatial import cKDTree

import perigeo as pg
from perigeo import core
from perigeo.core import min_interpoint_distance, neighbor_arrays, neighbor_cloud

from helpers import (
    UNIMODULAR,
    bridge_length_patch,
    contract_sets,
    covering_radius_reach_2d,
    covering_radius_voronoi,
    jitter_set,
    neighbor_arrays_loop,
    random_orthogonal,
    random_periodic_set,
    random_unimodular,
    reach_2d_patch_size,
    skew_unimodular,
    successive_minima,
)


class TestUnitCell:
    def test_derived_quantities(self):
        cell = pg.UnitCell(np.eye(2))
        assert cell.volume == pytest.approx(1.0)
        assert cell.longest_edge == pytest.approx(1.0)
        assert cell.diameter == pytest.approx(np.sqrt(2))

    def test_diameter_is_longest_diagonal(self):
        cell = pg.UnitCell(np.array([[2.0, 0.0], [1.0, 1.0]]))
        # diagonals v1 + v2 = (3, 1) and v1 - v2 = (1, -1)
        assert cell.diameter == pytest.approx(np.sqrt(10))

    def test_degenerate_cell_rejected(self):
        with pytest.raises(pg.DataError, match="degenerate"):
            pg.UnitCell(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_higher_dimensions_rejected(self):
        with pytest.raises(pg.DataError, match="dimension"):
            pg.UnitCell(np.eye(4))

    def test_derived_quantities_cached_on_read_only_basis(self):
        cell = pg.UnitCell(np.array([[1.0, 0.2], [0.3, 1.1]]))
        assert not cell.basis.flags.writeable
        assert cell.diameter is cell.diameter
        assert cell.inv_basis is cell.inv_basis
        assert not cell.inv_basis.flags.writeable
        assert np.allclose(cell.inv_basis @ cell.basis, np.eye(2))

    def test_non_finite_basis_rejected(self):
        # NaN passes every comparison-based check, so it needs its own
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(pg.DataError, match="finite"):
                pg.UnitCell(np.array([[1.0, 0.0], [0.0, bad]]))


class TestPeriodicSet:
    def test_fraction_range_enforced(self):
        with pytest.raises(pg.DataError):
            pg.PeriodicSet(pg.UnitCell(np.eye(2)), np.array([[0.0, 1.0]]))

    def test_non_finite_motif_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(pg.DataError, match=r"\[0, 1\)"):
                pg.PeriodicSet(pg.UnitCell(np.eye(2)), np.array([[0.5, bad]]))

    def test_coincident_points_rejected(self):
        with pytest.raises(pg.DataError, match="coincident"):
            pg.PeriodicSet(
                pg.UnitCell(np.eye(2)),
                np.array([[0.1, 0.1], [0.1, 0.1 + 1e-12]]),
            )

    def test_periodic_wrap_coincidence(self):
        with pytest.raises(pg.DataError, match="coincident"):
            pg.PeriodicSet(
                pg.UnitCell(np.eye(1)), np.array([[0.0], [1.0 - 1e-13]])
            )

    def test_coincidence_blocks_keep_verdicts(self, monkeypatch):
        # a pair moved apart by 0.5 to 1.5 times the tolerance, in some
        # draws across the cell boundary: the verdicts in blocks of one or a
        # few rows equal those of one block and of the unblocked comparison
        rng = np.random.default_rng(2718)
        draws = []
        for draw in range(60):
            n, m = int(rng.integers(1, 4)), int(rng.integers(2, 9))
            cell = pg.UnitCell(np.eye(n) + 0.3 * rng.normal(size=(n, n)))
            motif = rng.random((m, n))
            i, j = rng.choice(m, 2, replace=False)
            if draw % 3 == 0:
                motif[i, 0] = 1e-12
            step = rng.normal(size=n)
            step *= rng.uniform(0.5, 1.5) * core.REL_TOL * cell.diameter / np.linalg.norm(step)
            motif[j] = (motif[i] + step @ cell.inv_basis) % 1.0
            diff = motif[:, None] - motif[None]
            dist = np.linalg.norm((diff - np.rint(diff)) @ cell.basis, axis=-1)
            np.fill_diagonal(dist, np.inf)
            draws.append((cell, motif, dist.min() <= core.REL_TOL * cell.diameter))

        def verdicts():
            out = []
            for cell, motif, _ in draws:
                try:
                    pg.PeriodicSet(cell, motif)
                    out.append(False)
                except pg.DataError:
                    out.append(True)
            return out

        unblocked = [ref for _, _, ref in draws]
        assert 10 <= sum(unblocked) <= 50
        assert verdicts() == unblocked
        for budget in (1, 7, 30):
            monkeypatch.setattr(core, "BLOCK_ENTRIES", budget)
            assert verdicts() == unblocked, budget

    def test_labels_pass_through(self):
        S = pg.PeriodicSet(
            pg.UnitCell(np.eye(2)), np.array([[0.1, 0.2]]), labels=("C",)
        )
        assert S.labels == ("C",)


class TestNeighborsWithin:
    def test_square_lattice_alpha2(self, square):
        # oracle: integer pairs with i^2 + j^2 <= 4
        expected = sorted(
            (i, j)
            for i in range(-2, 3)
            for j in range(-2, 3)
            if i * i + j * j <= 4
        )
        vecs, _, _ = neighbor_arrays(square, 0, 2.0)
        assert len(vecs) == 13
        got = sorted(tuple(v) for v in np.round(vecs).astype(int))
        assert got == expected

    def test_alpha_zero_returns_center(self, s1):
        vecs, idx, _ = neighbor_arrays(s1, 0, 0.0)
        assert len(vecs) == 1
        assert np.allclose(vecs[0], 0.0)
        assert idx[0] == 0

    def test_s1_bridge_neighbors(self, s1):
        # derived by hand from the 10-cell with motif (2,2),(2,8),(8,2),(8,8)
        vecs, _, _ = neighbor_arrays(s1, 0, 6.0)
        got = sorted(tuple(v) for v in np.round(vecs).astype(int))
        assert got == sorted(
            [(0, 0), (0, 6), (6, 0), (0, -4), (-4, 0), (-4, -4)]
        )
        lengths = sorted(round(np.linalg.norm(v), 9) for v in vecs)
        assert lengths.count(6.0) == 2  # the bridge hops

    def test_output_sorted_and_deterministic(self, s2):
        vecs, idx, _ = neighbor_arrays(s2, 4, 7.0)
        lengths = list(np.linalg.norm(vecs, axis=1))
        assert lengths == sorted(lengths)
        again, again_idx, _ = neighbor_arrays(s2, 4, 7.0)
        assert np.array_equal(vecs, again) and np.array_equal(idx, again_idx)

    def test_count_bound(self):
        # |cluster| <= nu(S, alpha, n) * m with nu = (alpha+d)^n V_n / Vol
        vol_ball = {1: 2.0, 2: np.pi, 3: 4 * np.pi / 3}
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            S = random_periodic_set(rng, n, 3)
            d = S.cell.diameter
            for alpha in (0.5 * d, d, 2 * d):
                vecs, _, _ = neighbor_arrays(S, 0, alpha)
                nu = (alpha + d) ** n * vol_ball[n] / S.cell.volume
                assert len(vecs) <= nu * S.m

    def test_multiset_invariant_under_reparameterization(self, square):
        # the three unit cells of the same square lattice
        for U in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 0], [1, 1]]):
            other = pg.change_cell(square, np.array(U))
            a = np.sort(np.linalg.norm(neighbor_arrays(square, 0, 3.0)[0], axis=1))
            b = np.sort(np.linalg.norm(neighbor_arrays(other, 0, 3.0)[0], axis=1))
            assert np.allclose(a, b, atol=1e-9)


def _offset_cube(S, reach):
    """Every integer offset within a generous cube: two cells beyond what
    the dual norms allow around the unit cell."""
    dual = np.linalg.norm(S.cell.inv_basis, axis=0)
    k = int(np.ceil(reach * dual.max())) + 2
    return np.array(list(itertools.product(range(-k, k + 2), repeat=S.dim)))


def _cube_points(S, reach):
    """(points, motif indices, offsets) of S over _offset_cube."""
    offsets = _offset_cube(S, reach)
    pts = S.cartesian_motif[None, :, :] + (offsets @ S.cell.basis)[:, None, :]
    idx = np.tile(np.arange(S.m), len(offsets))
    return pts.reshape(-1, S.dim), idx, np.repeat(offsets, S.m, axis=0)


def _brute_neighbors(S, p, alpha, cube):
    """neighbor_arrays from its definition: every point of the offset cube
    (from _cube_points at a reach of at least alpha) within the inclusion
    bound, in the documented order."""
    pts, idx, shifts = cube
    vecs = pts - S.cartesian_motif[p]
    dist = np.linalg.norm(vecs, axis=1)
    inside = dist <= alpha + core.REL_TOL * (alpha + S.cell.diameter)
    vecs, idx, shifts, dist = vecs[inside], idx[inside], shifts[inside], dist[inside]
    order = np.lexsort([idx] + [vecs[:, c] for c in range(S.dim - 1, -1, -1)] + [dist])
    return vecs[order], idx[order], shifts[order]


class TestEnumerationContract:
    """neighbor_arrays and neighbor_cloud against enumerations over a cube
    of offsets wider than any window they visit."""

    def test_neighbor_arrays_equals_brute_force(self):
        for S in contract_sets():
            d = S.cell.diameter
            cube = _cube_points(S, d)
            for p in range(S.m):
                lengths = np.unique(
                    np.linalg.norm(_brute_neighbors(S, p, d, cube)[0], axis=1))
                # radii equal to pair distances put points on the inclusion
                # bound; radii between them do not
                ties = list(lengths[1::8])
                between = list(0.5 * (lengths[1:-1:8] + lengths[2::8]))
                for alpha in ties + between + [0.0]:
                    got = neighbor_arrays(S, p, alpha)
                    want = _brute_neighbors(S, p, alpha, cube)
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b)

    def test_neighbor_cloud_holds_every_point_within_reach(self):
        rng = np.random.default_rng(1313)
        for S in contract_sets():
            n, d = S.dim, S.cell.diameter
            corners = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
            probes = np.vstack([corners, rng.random((16, n))]) @ S.cell.basis
            for reach in (0.3 * d, 0.5 * d, d):
                cloud, cloud_idx = neighbor_cloud(S, reach)
                pts, idx, _ = _cube_points(S, reach)
                near = np.linalg.norm(pts[None] - probes[:, None], axis=-1) <= reach
                wanted = np.any(near, axis=0)
                dist, at = cKDTree(cloud).query(pts[wanted])
                assert dist.max() <= 1e-12 * d
                assert np.array_equal(cloud_idx[at], idx[wanted])

    def test_neighbor_cloud_stays_in_the_reach_slab(self):
        for S in contract_sets():
            dual = np.linalg.norm(S.cell.inv_basis, axis=0)
            for reach in (0.3, 0.5, 1.0):
                reach *= S.cell.diameter
                cloud, _ = neighbor_cloud(S, reach)
                frac = cloud @ S.cell.inv_basis
                assert np.all(frac >= -reach * dual - 1e-8)
                assert np.all(frac <= 1 + reach * dual + 1e-8)


class TestReducedView:
    """PeriodicSet.reduced: the set on its cell's reduced cell."""

    def test_reduced_cell_set_is_itself(self, square):
        line = pg.PeriodicSet(pg.UnitCell(np.array([[-2.5]])), np.array([[0.1], [0.7]]))
        for S in (square, line):
            assert S.reduced is S

    def test_cached(self):
        S = contract_sets()[-1]
        assert S.reduced is not S
        assert S.reduced is S.reduced

    def test_equals_change_cell(self):
        for S in contract_sets():
            S = pg.PeriodicSet(S.cell, S.motif, tuple(f"p{i}" for i in range(S.m)))
            U = S.cell._reduction[0]
            T = pg.change_cell(S, U)
            assert S.reduced.cell is S.cell._reduction[2]
            assert np.array_equal(S.reduced.cell.basis, T.cell.basis)
            assert np.array_equal(S.reduced.motif, T.motif)
            assert S.reduced.labels == T.labels

    def test_answers_equal_change_cell(self, monkeypatch):
        # every reader of the view answers the same with the view replaced
        # by change_cell(S, U)
        rng = np.random.default_rng(1515)

        def answers(S, Q):
            grid = np.linspace(0.0, S.cell.diameter, 7)
            return (pg.amd(S, 10).per_point_matrix.tolist(),
                    pg.packing_covering_radii(S),
                    pg.density.psi_sampled(S, 3, grid, 300, seed=4),
                    pg.bottleneck_distance_common_cell(S, Q))

        pairs = [(S, jitter_set(rng, S, 0.05)[0]) for S in contract_sets()]
        want = [answers(S, Q) for S, Q in pairs]
        monkeypatch.setattr(pg.PeriodicSet, "reduced", property(
            lambda S: pg.change_cell(S, S.cell._reduction[0])))
        assert [answers(S, Q) for S, Q in pairs] == want


class TestEnumerationCap:
    """The cap is tested by its estimate: every refused call raises before
    it allocates, and the boundary is probed on a small enumeration."""

    def test_huge_radius_refused(self, square):
        S3 = pg.PeriodicSet(pg.UnitCell(np.eye(3)), np.zeros((1, 3)))
        for S in (square, S3):
            with pytest.raises(pg.DataError, match="limit"):
                neighbor_arrays(S, 0, 1e4)
            with pytest.raises(pg.DataError, match="limit"):
                neighbor_cloud(S, 1e4)
            with pytest.raises(pg.DataError, match="limit"):
                pg.alpha_cluster(S, 0, 1e4)

    def test_overflowing_radius_refused(self, square):
        # windows and counts past the float range are refused by the same
        # estimate, with no overflow warning; the half-size square's window
        # itself overflows at 1e308
        half = pg.PeriodicSet(pg.UnitCell(0.5 * np.eye(2)), np.zeros((1, 2)))
        for S in (square, half):
            for alpha in (1e200, 1e308):
                with pytest.raises(pg.DataError, match="limit"):
                    pg.alpha_cluster(S, 0, alpha)
                with pytest.raises(pg.DataError, match="limit"):
                    neighbor_cloud(S, alpha)

    def test_non_finite_radius_refused(self, square):
        for alpha in (np.inf, np.nan):
            with pytest.raises(pg.DataError):
                neighbor_arrays(square, 0, alpha)
            with pytest.raises(pg.DataError):
                pg.alpha_cluster(square, 0, alpha)

    def test_negative_radius_refused(self, square):
        # by the stacks' one check, before the cache or an empty window
        for alpha in (-0.5, np.nan):
            with pytest.raises(pg.DataError, match="non-negative"):
                core.neighbor_pairs(square, alpha)
            with pytest.raises(pg.DataError, match="non-negative"):
                core.neighbor_stack(square, 0, alpha)

    def test_boundary_is_offsets_times_motif(self, s2, monkeypatch):
        vecs, _, shifts = neighbor_arrays(s2, 0, 7.0)
        size = len(np.unique(shifts, axis=0))  # cells the ball meets
        offsets = core._lattice_offsets(s2.cell, s2.motif[0], s2.motif[0],
                                        7.0, s2.m)
        assert len(offsets) >= size
        monkeypatch.setattr(core, "MAX_ENUMERATION", len(offsets) * s2.m)
        assert np.array_equal(neighbor_arrays(s2, 0, 7.0)[0], vecs)
        monkeypatch.setattr(core, "MAX_ENUMERATION", len(offsets) * s2.m - 1)
        with pytest.raises(pg.DataError):
            neighbor_arrays(s2, 0, 7.0)


class TestOneEnumeration:
    """Every stack neighbor_pairs builds, all of a set's points in one
    enumeration, against one point's own enumeration (tests/helpers.py),
    bit for bit: seeded 1D-3D sets with m = 1..8 on their cells, re-celled
    by a UNIMODULAR matrix and by skew_unimodular(n, 5), and exactly
    symmetric lattices, whose lengths tie, at the set's easy stable radius
    (of its own cell) and at critical radii."""

    @staticmethod
    def corpus():
        """(set, easy stable radius of the set on its own cell)."""
        rng = np.random.default_rng(3232)
        bcc = pg.PeriodicSet(pg.UnitCell(np.eye(3)), [[0, 0, 0], [0.5, 0.5, 0.5]])
        hexagonal = pg.PeriodicSet(pg.UnitCell([[1, 0], [0.5, np.sqrt(3) / 2]]),
                                   [[0, 0]])
        sets = [random_periodic_set(rng, n, m, skew=(0.05, 0.2, 0.4)[m % 3])
                for n in (1, 2, 3) for m in range(1, 9)] + [bcc, hexagonal]
        for S in sets:
            n, alpha = S.dim, pg.easy_stable_radius(S)
            yield S, alpha
            yield pg.change_cell(S, UNIMODULAR[n][S.m % len(UNIMODULAR[n])]), alpha
            if n > 1:
                yield pg.change_cell(S, skew_unimodular(n, 5)), alpha

    def test_stacks_equal_the_referee(self):
        ties = 0
        for S, alpha in self.corpus():
            lengths = np.unique(core.neighbor_pairs(S, alpha)[3])
            for radius in (alpha, lengths[0], lengths[len(lengths) // 2]):
                T = pg.PeriodicSet(S.cell, S.motif)  # nothing cached
                core.neighbor_pairs(T, radius)
                for p, (built, stack) in T._stacks.items():
                    ref = neighbor_arrays_loop(T, p, built)
                    for a, b in zip(stack, ref):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                    ties += int(np.sum(np.diff(stack.lengths) == 0))
        assert ties > 0  # the lexsort inside exact length ties ran

    def test_neighbor_arrays_is_the_one_point_enumeration(self):
        for S, alpha in itertools.islice(self.corpus(), 0, None, 5):
            for p in range(S.m):
                got = neighbor_arrays(S, p, alpha)
                vecs, _, idx, shifts = neighbor_arrays_loop(S, p, alpha)
                for a, b in zip(got, (vecs, idx, shifts)):
                    assert np.array_equal(a, b)


# lattice bases (rows) and the covering radius of the one-point lattice
SMALL_PATCH_LATTICES = {
    "square": (np.eye(2), np.sqrt(2) / 2),
    "hexagonal": (np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]]), 1 / np.sqrt(3)),
    "cubic": (np.eye(3), np.sqrt(3) / 2),
    "bcc": (0.5 * np.array([[-1.0, 1, 1], [1, -1, 1], [1, 1, -1]]), np.sqrt(5) / 4),
    "fcc": (0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]]), 0.5),
}


class TestRadii:
    def test_packing_covering_s1(self, s1):
        r, R = pg.packing_covering_radii(s1)
        assert r == pytest.approx(2.0, abs=1e-9)
        assert R == pytest.approx(3 * np.sqrt(2), abs=1e-9)

    def test_packing_covering_s2(self, s2):
        r, R = pg.packing_covering_radii(s2)
        assert r == pytest.approx(2.0, abs=1e-9)
        assert R == pytest.approx(np.sqrt(13), abs=1e-9)

    def test_packing_covering_integer_lattice(self, integer_lattice):
        r, R = pg.packing_covering_radii(integer_lattice)
        assert (r, R) == pytest.approx((0.5, 0.5))

    def test_covering_3d_cubic(self):
        S = pg.PeriodicSet(pg.UnitCell(np.eye(3)), np.zeros((1, 3)))
        r, R = pg.packing_covering_radii(S)
        assert r == pytest.approx(0.5)
        assert R == pytest.approx(np.sqrt(3) / 2)

    def test_covering_matches_reach_2d_reference(self):
        # seeded corpus: m = 1..6 in 2D and 1..4 in 3D, near-identity and
        # skewed cells, and skewed cells of the same sets; a set is drawn
        # again when its reach-2d patch passes 2,000 cells
        rng = np.random.default_rng(7070)
        checked = 0
        for draw in range(400):
            n = 2 + checked % 2
            m = 1 + (checked // 2) % (8 - 2 * n)
            try:
                S = random_periodic_set(rng, n, m, skew=(0.1, 0.25, 0.4)[draw % 3])
            except pg.DataError:  # a thin cell passed the enumeration cap
                continue
            if checked % 4 == 3:
                S = pg.change_cell(S, UNIMODULAR[n][1 + checked % 3])
            if reach_2d_patch_size(S) > 2000 * m:
                continue
            _, R = pg.packing_covering_radii(S)
            assert abs(R - covering_radius_reach_2d(S)) <= 1e-12
            checked += 1
            if checked == 24:
                break
        assert checked == 24

    def test_covering_on_a_long_cell(self):
        # the same set on a cell 40 times longer: its reach-2d patch would
        # hold about 1e8 points, the reduced cell's reach-d/2 patch a few
        # hundred
        rng = np.random.default_rng(7171)
        S = random_periodic_set(rng, 3, 3)
        T = pg.change_cell(S, np.array([[1, 0, 0], [0, 1, 0], [40, 0, 1]]))
        assert reach_2d_patch_size(T) > 1e7
        _, R = pg.packing_covering_radii(T)
        assert abs(R - covering_radius_reach_2d(S)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(SMALL_PATCH_LATTICES))
    @pytest.mark.parametrize("fractions", [(0.0,), (0.5,), (0.0, 0.5), (0.25, 0.75)])
    def test_covering_on_the_smallest_patches(self, name, fractions):
        # the reach-d/2 slab of a lattice holds 4 to a few hundred points,
        # many of them co-spherical about the Voronoi vertex that sets R
        basis, closed_form = SMALL_PATCH_LATTICES[name]
        n = len(basis)
        S = pg.PeriodicSet(pg.UnitCell(basis), np.array([[f] * n for f in fractions]))
        _, R = pg.packing_covering_radii(S)
        expected = closed_form if len(fractions) == 1 else covering_radius_reach_2d(S)
        assert abs(R - expected) <= 1e-12

    def test_covering_equals_the_full_voronoi_diagram(self):
        # the circumcentres of the patch's Delaunay simplices against the
        # vertices of its Voronoi diagram: random 2D and 3D sets, and the
        # lattices above with one and two points, whose cospherical points
        # qhull's triangulated output splits into simplices of zero volume
        # (4 of 192 for fcc on its cubic cell)
        rng = np.random.default_rng(7272)
        sets = [random_periodic_set(rng, 2 + k % 2, 1 + k % 6,
                                    skew=(0.1, 0.25, 0.4)[k % 3]) for k in range(60)]
        for basis, _ in SMALL_PATCH_LATTICES.values():
            n = len(basis)
            for fractions in ((0.0,), (0.0, 0.5)):
                sets.append(pg.PeriodicSet(pg.UnitCell(basis),
                                           np.array([[f] * n for f in fractions])))
        sets.append(pg.PeriodicSet(pg.UnitCell(np.eye(3)), np.array(
            [[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]])))
        for S in sets:
            _, R = pg.packing_covering_radii(S)
            assert abs(R - covering_radius_voronoi(S)) <= 1e-12 * R

    @pytest.mark.parametrize("n", [2, 3])
    def test_covering_on_a_20_to_1_cell(self, n):
        # the deepest hole of a box lattice is the box centre
        S = pg.PeriodicSet(pg.UnitCell(np.diag([20.0] + [1.0] * (n - 1))),
                           np.zeros((1, n)))
        _, R = pg.packing_covering_radii(S)
        assert abs(R - np.sqrt(400 + n - 1) / 2) <= 1e-12

    def test_packing_is_half_min_nn(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            S = random_periodic_set(rng, n, 3)
            r, _ = pg.packing_covering_radii(S)
            nn = pg.amd(S, 1).per_point_matrix.min()
            assert 2 * r == pytest.approx(nn, rel=1e-9)

    def test_bridge_lengths(self, s1, s2, s4):
        assert pg.bridge_length(s1) == pytest.approx(6.0, abs=1e-9)
        assert pg.bridge_length(s2) == pytest.approx(3 * np.sqrt(2), abs=1e-9)
        assert pg.bridge_length(s4) == pytest.approx(0.5, abs=1e-12)

    def test_bridge_of_lattice_is_reduced_longest(self, square, hexagonal):
        assert pg.bridge_length(square) == pytest.approx(1.0)
        assert pg.bridge_length(hexagonal) == pytest.approx(1.0)
        rng = np.random.default_rng(21)
        for _ in range(5):
            basis = rng.normal(size=(2, 2))
            while abs(np.linalg.det(basis)) < 0.3:
                basis = rng.normal(size=(2, 2))
            S = pg.PeriodicSet(pg.UnitCell(basis), np.zeros((1, 2)))
            reduced = pg.reduce_basis(basis)
            expected = np.linalg.norm(reduced, axis=1).max()
            assert pg.bridge_length(S) == pytest.approx(expected, rel=1e-9)

    def test_bridge_equals_patch_oracle(self, s1, s2, s4, s15, s32, square,
                                        hexagonal):
        # seeded corpus: random 1D, 2D and 3D sets and one-point lattices on
        # cells of skew 0.05-0.4, the 2D and 3D ones also re-expressed in
        # cells 2-3 times longer than wide (the oracle reads the base cell)
        rng = np.random.default_rng(4242)
        cases = [(S, S) for S in (s1, s2, s4, s15, s32, square, hexagonal)]
        for k in range(30):
            n, m = 1 + k % 3, 1 + (k // 3) % 5
            S = random_periodic_set(rng, n, m, skew=(0.05, 0.2, 0.4)[k % 3])
            cases.append((S, S))
            if n > 1:
                cases.append((pg.change_cell(S, skew_unimodular(n, 1 + k % 2)), S))
        for S, base in cases:
            tol = core.REL_TOL * S.cell.diameter
            assert abs(pg.bridge_length(S) - bridge_length_patch(base)) <= tol

    def test_bridge_of_interpenetrating_frames(self):
        # the edges of the cubes of side 2 in steps of 0.5, and a copy moved
        # by (1, 1, 1), one unit away: at 0.5 the quotient graph is connected
        # and its cycles span the index-2 sublattice 2Z^3 of the bcc lattice,
        # so the two frames join only at 1
        basis = np.array([[2.0, 0, 0], [0, 2, 0], [1, 1, 1]])
        frame = [np.zeros(3)] + [0.5 * k * e for e in np.eye(3) for k in (1, 2, 3)]
        frac = core.fold_fractions(np.array(frame) @ np.linalg.inv(basis))
        S = pg.PeriodicSet(pg.UnitCell(basis), frac)
        assert pg.bridge_length(S) == bridge_length_patch(S, cells=3) == 1.0

    def test_easy_stable_radius(self, square, hexagonal, integer_lattice):
        assert pg.easy_stable_radius(square) == pytest.approx(2.0)
        assert pg.easy_stable_radius(integer_lattice) == pytest.approx(2.0)
        assert pg.easy_stable_radius(hexagonal) == pytest.approx(2.0)

    def test_radius_report(self, s1):
        rep = pg.radius_report(s1)
        assert rep.packing_radius <= rep.covering_radius
        assert rep.bridge_length <= max(
            s1.cell.longest_edge, s1.cell.diameter / 2
        ) + 1e-9
        assert rep.easy_stable_radius == pytest.approx(20.0)
        assert rep.covering_method == "voronoi"


class TestSkewedCells:
    """One random 3D set with m = 4 re-expressed in cells about 25 and 64
    times longer than wide: every radius, the minimum stable radius, the
    isoset, the bottleneck distance and AMD are computed on the reduced
    cell and agree with the set on its own cell."""

    def test_skewed_copies_agree_with_the_set(self):
        rng = np.random.default_rng(0)
        S = random_periodic_set(rng, 3, 4)
        Q, _ = jitter_set(rng, S, 0.01)
        rep, stable = pg.radius_report(S), pg.minimum_stable_radius(S)
        weights = sorted(pg.isoset(S, stable.alpha).weights)
        d_B = pg.bottleneck_distance_common_cell(S, Q)
        amds = {k: pg.amd(S, k).per_point_matrix for k in (10, 400)}
        for c in (5, 8):
            U = skew_unimodular(3, c)
            T = pg.change_cell(S, U)
            got, got_stable = pg.radius_report(T), pg.minimum_stable_radius(T)
            pairs = [(got.packing_radius, rep.packing_radius),
                     (got.covering_radius, rep.covering_radius),
                     (got.bridge_length, rep.bridge_length),
                     (got_stable.alpha, stable.alpha),
                     (got_stable.beta, stable.beta),
                     (pg.bottleneck_distance_common_cell(T, pg.change_cell(Q, U)), d_B)]
            for a, b in pairs:
                assert abs(a - b) <= 1e-9 * b
            assert got_stable.fallback == stable.fallback
            # the scan's critical radii stop at max{2b, d} of the reduced
            # cell, not at the skewed cell's (9.8 and 15.3 here)
            assert max(r for r, _ in T._stacks.values()) <= \
                1.01 * pg.easy_stable_radius(S)
            assert sorted(pg.isoset(T, got_stable.alpha).weights) == weights
            assert pg.isosets_equal(S, T, alpha=stable.alpha)
            # AMD's clouds are built on the reduced cell as well
            for k, ref in amds.items():
                got = pg.amd(T, k).per_point_matrix
                assert np.allclose(got, ref, rtol=1e-12, atol=0.0), (c, k)


class TestScaledCells:
    """A 3D set in the cell [[1,0,0],[7,1,0],[3,5,1]] of a cubic lattice,
    scaled by s: every answer is the unit-scale answer times s (weights
    unchanged), down to the scale of angstroms written in metres."""

    @staticmethod
    def scaled(s):
        basis = np.array([[1.0, 0, 0], [7, 1, 0], [3, 5, 1]])
        motif = np.random.default_rng(3).random((4, 3))
        return pg.PeriodicSet(pg.UnitCell(s * basis), motif)

    @staticmethod
    def answers(S):
        rep, stable = pg.radius_report(S), pg.minimum_stable_radius(S)
        lengths = [rep.packing_radius, rep.covering_radius, rep.bridge_length,
                   rep.easy_stable_radius, stable.alpha, stable.beta,
                   *pg.amd(S, 50).values]
        return np.array(lengths), sorted(pg.isoset(S, stable.alpha).weights)

    def test_answers_scale_with_the_cell(self):
        lengths, weights = self.answers(self.scaled(1.0))
        assert len(weights) == 4
        for s in (1e-8, 1e-10):
            S = self.scaled(s)
            assert np.allclose(np.linalg.norm(S.cell._reduction[2].basis, axis=1),
                               s, rtol=1e-12, atol=0.0)
            got, got_weights = self.answers(S)
            assert np.allclose(got, s * lengths, rtol=1e-9, atol=0.0), s
            assert got_weights == weights

    @staticmethod
    def pair_2d(s):
        # a 2D set and a copy moved by 0.002 N(0, 1) in fractions
        rng = np.random.default_rng(11)
        motif = rng.random((3, 2))
        moved = pg.core.fold_fractions(motif + 0.002 * rng.normal(size=(3, 2)))
        cell = pg.UnitCell(s * np.array([[1.0, 0.1], [0.05, 1.0]]))
        return pg.PeriodicSet(cell, motif), pg.PeriodicSet(cell, moved)

    def test_bottleneck_scales_with_the_cell(self):
        # the thresholds are the matrix's own entries, so no absolute slack
        # merges them at small scale
        unit = pg.bottleneck_distance_common_cell(*self.pair_2d(1.0))
        for s in (1e-10, 1e10):
            got = pg.bottleneck_distance_common_cell(*self.pair_2d(s))
            assert got == pytest.approx(s * unit, rel=1e-9, abs=0.0), s

    def test_sampled_density_is_scale_free(self):
        # the cloud's reach carries a relative slack only, so a set at
        # 1e-20 enumerates as few points as at unit scale
        def estimates(s):
            S = self.pair_2d(s)[0]
            rows = pg.density.psi_sampled(S, 3, s * np.linspace(0.0, 0.5, 11), 2000, seed=5)
            return [[row[1:] for row in psi] for psi in rows]

        unit = estimates(1.0)
        for s in (1e-20, 1e20):
            assert estimates(s) == unit, s

    def test_isoset_below_every_fixed_floor(self):
        # the isoset's tolerances scale with alpha and the cluster lengths
        # at any scale, so the stable radius and the classes are those of
        # the unit-scale set below 1e-30 too
        unit = pg.minimum_stable_radius(self.scaled(1.0)).alpha
        for s in (1e-30, 1e-40, 1e-60):
            S = self.scaled(s)
            alpha = pg.minimum_stable_radius(S).alpha
            assert alpha / s == pytest.approx(unit, rel=1e-12, abs=0.0), s
            assert len(pg.isoset(S, alpha).weights) == 4, s

class TestReduction:
    def test_successive_minima_at_every_scale(self):
        # near-identity bases, skewed by random unimodular matrices and
        # scaled from 1e-12 to 1e12: the reduced rows have the lengths of
        # the successive minima, and U is an integer unimodular matrix
        rng = np.random.default_rng(7)
        for case in range(60):
            n = 2 + case % 2
            base = np.eye(n) + rng.uniform(-0.15, 0.15, size=(n, n))
            skewed = random_unimodular(rng, n, 2 + case % 6) @ base
            minima = successive_minima(base)
            for s in (1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e12):
                basis = s * skewed
                reduced = pg.reduce_basis(basis)
                assert np.allclose(np.linalg.norm(reduced, axis=1), s * minima,
                                   rtol=1e-9, atol=0.0), (case, s)
                U, U_inv, cell = pg.UnitCell(basis)._reduction
                assert U.dtype.kind == "i" and U_inv.dtype.kind == "i"
                assert abs(round(np.linalg.det(U))) == 1
                assert np.array_equal(U @ U_inv, np.eye(n, dtype=int))
                assert np.array_equal(cell.basis, reduced)

    def test_one_dimension_and_reduced_bases_are_kept(self):
        assert np.array_equal(pg.reduce_basis(np.array([[-2.5]])), [[-2.5]])
        # already reduced: the step by zero is not taken, though its
        # vector can compute one ulp shorter
        basis = np.array([[0.8117479209594589, 0.033086951133498424],
                          [-0.368149674570159, 0.9044221614233816]])
        assert np.array_equal(pg.reduce_basis(basis), basis)

    def test_lagrange_reduction_2d(self):
        basis = np.array([[5.0, 1.0], [9.0, 2.0]])  # skewed square-ish lattice
        reduced = pg.reduce_basis(basis)
        norms = np.linalg.norm(reduced, axis=1)
        assert norms[0] <= norms[1]
        # reduced rows are integer combinations of the original basis
        coeffs = reduced @ np.linalg.inv(basis)
        assert np.allclose(coeffs, np.round(coeffs), atol=1e-9)
        assert abs(round(np.linalg.det(coeffs))) == 1

    def test_reduction_3d(self):
        rng = np.random.default_rng(2)
        basis = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        skewed = np.array([[3, 1, 0], [1, 1, 0], [2, 5, 1]]) @ basis
        reduced = pg.reduce_basis(skewed)
        coeffs = reduced @ np.linalg.inv(skewed)
        assert np.allclose(coeffs, np.round(coeffs), atol=1e-8)
        assert abs(round(np.linalg.det(coeffs))) == 1
        assert np.linalg.norm(reduced, axis=1).max() <= (
            np.linalg.norm(skewed, axis=1).max() + 1e-12
        )


class TestTransforms:
    def test_apply_isometry_preserves_distances(self):
        rng = np.random.default_rng(3)
        S = random_periodic_set(rng, 2, 3)
        M = random_orthogonal(rng, 2)
        T = pg.apply_isometry(S, M, rng.random(2))
        a = np.sort(np.linalg.norm(neighbor_arrays(S, 0, 2.0)[0], axis=1))
        # the motif order is preserved by apply_isometry
        b = np.sort(np.linalg.norm(neighbor_arrays(T, 0, 2.0)[0], axis=1))
        assert np.allclose(a, b, atol=1e-9)

    def test_change_cell_same_point_set(self):
        rng = np.random.default_rng(4)
        S = random_periodic_set(rng, 2, 2)
        T = pg.change_cell(S, UNIMODULAR[2][1])
        assert min_interpoint_distance(S) == pytest.approx(
            min_interpoint_distance(T), rel=1e-9
        )

    def test_change_cell_uses_the_integer_inverse(self):
        # the float inverse of this U has entries such as -8.000000000000398
        S = pg.PeriodicSet(pg.UnitCell(np.eye(2)), np.random.default_rng(8).random((3, 2)))
        T = pg.change_cell(S, np.array([[-88, -19], [-37, -8]]))
        assert np.array_equal(T.motif, pg.core.fold_fractions(
            S.motif @ np.array([[-8, 19], [37, -88]])))

    def test_change_cell_checks_coincidence_on_the_new_cell(self):
        # two points 2e-9 apart pass on the unit square (tolerance
        # REL_TOL * sqrt(2)), but a skewed cell of diameter 6.08 widens the
        # tolerance past their distance: the new set is refused, not built
        # with a pair that its own distances would drop
        S = pg.PeriodicSet(pg.UnitCell(np.eye(2)),
                           np.array([[0.3, 0.4], [0.3 + 2e-9, 0.4]]))
        with pytest.raises(pg.DataError, match="coincident"):
            pg.change_cell(S, np.array([[1, 5], [0, 1]]))

    def test_change_cell_requires_unimodular(self, square):
        with pytest.raises(ValueError):
            pg.change_cell(square, np.array([[2, 0], [0, 1]]))
