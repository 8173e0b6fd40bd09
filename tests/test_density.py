import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.spatial import cKDTree

import perigeo as pg
from perigeo.density import DensityFingerprint1D

from helpers import (
    coverage_multiplicity_1d,
    lhs_samples,
    psi_bruteforce_1d,
    psi_k_1d_per_k,
    psi_k_1d_trapezoids,
    psi_sampled_ball_counts,
    psi_sampled_loop,
    pwl_sum,
    random_periodic_set,
    sampled_cloud,
)


def fingerprint(points):
    return DensityFingerprint1D(np.asarray(points, float), 1.0)


class TestPsi0:
    def test_worked_example(self):
        # S = {0, 1/3, 1/2} + Z: at t = 1/12 half the period is still
        # uncovered, so the corner value is 1/2 (brute-force oracle below)
        psi0 = pg.psi0_1d([1 / 3, 1 / 6, 1 / 2])
        expected = [(0, 1), (1 / 12, 1 / 2), (1 / 6, 1 / 6), (1 / 4, 0)]
        assert np.allclose(psi0.corners, expected, atol=1e-12)
        assert psi_bruteforce_1d([0, 1 / 3, 1 / 2], 0, 1 / 12) == pytest.approx(
            0.5, abs=1e-5
        )

    def test_single_gap(self):
        psi0 = pg.psi0_1d([1.0])
        assert np.allclose(psi0.corners, [(0, 1), (0.5, 0)], atol=1e-15)

    def test_equal_gaps_collapse(self):
        psi0 = pg.psi0_1d([0.5, 0.5])
        assert np.allclose(psi0.corners, [(0, 1), (0.25, 0)], atol=1e-15)

    def test_rejects_bad_gap_sum(self):
        with pytest.raises(ValueError):
            pg.psi0_1d([0.3, 0.3])
        with pytest.raises(ValueError):
            pg.psi0_1d([0.5, 0.5, 0.0])


class TestTrapezoid:
    def test_eta_r(self):
        eta = pg.trapezoid(1 / 3, 0.0, 1 / 2)
        expected = [(0, 0), (1 / 6, 1 / 3), (1 / 4, 1 / 3), (5 / 12, 0)]
        assert np.allclose(eta.corners, expected, atol=1e-12)

    def test_eta_gb(self):
        eta = pg.trapezoid(1 / 3, 1 / 6, 1 / 2)
        expected = [(1 / 12, 0), (1 / 4, 1 / 3), (1 / 3, 1 / 3), (1 / 2, 0)]
        assert np.allclose(eta.corners, expected, atol=1e-12)

    def test_swapped_sides_same_shape(self):
        a = pg.trapezoid(1 / 3, 1 / 6, 1 / 2)
        b = pg.trapezoid(1 / 2, 1 / 6, 1 / 3)
        assert np.allclose(a.corners, b.corners, atol=1e-15)

    def test_equal_sides_collapse_to_triangle(self):
        eta = pg.trapezoid(0.2, 0.1, 0.2)
        expected = [(0.05, 0), (0.15, 0.2), (0.25, 0)]
        assert np.allclose(eta.corners, expected, atol=1e-15)


class TestPsiK:
    def test_psi1_at_quarter(self):
        # frozen from the brute-force coverage oracle (1e6 midpoints): 1/2
        F = fingerprint([0, 1 / 3, 1 / 2])
        assert F.psi(1)(0.25) == pytest.approx(0.5, abs=1e-12)
        assert psi_bruteforce_1d([0, 1 / 3, 1 / 2], 1, 0.25) == pytest.approx(
            0.5, abs=1e-5
        )

    def test_matches_bruteforce_on_random_sets(self):
        # k up to 2m + 1 and t up to a whole period, where every point
        # covers the period twice over
        rng = np.random.default_rng(13)
        for _ in range(3):
            m = int(rng.integers(2, 6))
            pts = np.sort(rng.random(m))
            while np.diff(np.concatenate([pts, [pts[0] + 1]])).min() < 0.05:
                pts = np.sort(rng.random(m))
            F = fingerprint(pts)
            for t in (0.07, 0.19, 0.33, 0.56, 0.81, 1.0):
                mult = coverage_multiplicity_1d(pts, t, samples=2 * 10 ** 5)
                for k in range(0, 2 * m + 2):
                    brute = float(np.mean(mult == k))
                    assert F.psi(k)(t) == pytest.approx(brute, abs=1e-4)

    def test_zero_radius(self):
        F = fingerprint([0, 0.4, 0.7])
        assert F.psi(0)(0.0) == pytest.approx(1.0)
        for k in (1, 2, 3, 4):
            assert F.psi(k)(0.0) == pytest.approx(0.0)

    def test_beyond_m_uses_periodicity(self):
        F = fingerprint([0, 0.4, 0.7])
        ts = np.linspace(0, 0.5, 50)
        assert np.allclose(F.psi(4)(ts + 0.5), F.psi(1)(ts), atol=1e-12)
        # k > m vanishes below half the period
        assert np.allclose(F.psi(4)(np.linspace(0, 0.49, 20)), 0.0, atol=1e-12)

    def test_s15_checkpoint_values(self, s15, q15):
        # the six trapezoids of psi_4 not shared between the two sets sum to
        # the same function; checkpoints in period-15 units
        FS = DensityFingerprint1D.from_set(s15)
        FQ = DensityFingerprint1D.from_set(q15)

        def integer_triples(F):
            # gaps are integers in period-15 units, so keys are exact
            return Counter(
                (round(min(a, c) * 15), round(b * 15), round(max(a, c) * 15))
                for a, b, c in F.trapezoid_triples(4)
            )

        trip_s, trip_q = integer_triples(FS), integer_triples(FQ)
        only_s = list((trip_s - trip_q).elements())
        only_q = list((trip_q - trip_s).elements())
        assert len(only_s) == len(only_q) == 6
        sum_s = pwl_sum([pg.trapezoid(*(x / 15 for x in t)) for t in only_s])
        sum_q = pwl_sum([pg.trapezoid(*(x / 15 for x in t)) for t in only_q])
        # period-15 units: eta(2.5)=2, eta(3)=5, eta(3.5)=6, eta(4)=4, eta(4.5)=1
        for t15, v15 in [(2.5, 2), (3, 5), (3.5, 6), (4, 4), (4.5, 1)]:
            assert 15 * sum_s(t15 / 15) == pytest.approx(v15, abs=1e-9)
            assert 15 * sum_q(t15 / 15) == pytest.approx(v15, abs=1e-9)



class TestRampSum:
    @staticmethod
    def random_gaps(rng):
        # about a third of the sets have a few gaps of 1e-9 to 1e-6
        m = int(rng.integers(1, 9))
        gaps = rng.random(m) + 0.05
        if m > 1 and rng.random() < 0.4:
            tiny = rng.choice(m, size=int(rng.integers(1, m)), replace=False)
            gaps[tiny] = 10.0 ** rng.uniform(-9, -6, size=len(tiny))
            rest = np.setdiff1d(np.arange(m), tiny)
            gaps[rest] *= (1 - gaps[tiny].sum()) / gaps[rest].sum()
        else:
            gaps /= gaps.sum()
        return gaps

    @staticmethod
    def integer_period_sets(rng, count):
        # 0 and m - 1 more of the points j/p, p = 2..12: gaps in whole
        # multiples of 1/p, so many breaks coincide and many corners are
        # collinear
        for _ in range(count):
            p = int(rng.integers(2, 13))
            rest = rng.choice(np.arange(1, p), size=int(rng.integers(0, p)),
                              replace=False)
            yield fingerprint(np.r_[0, np.sort(rest)] / p)

    def test_equals_trapezoid_sums(self):
        # the per-trapezoid reference on 300 seeded sets: the same corners,
        # k = 0..3m + 1, k near 200m, and k near 10,000m, where gaps of
        # 1e-9 sit at t near 5,000; and on integer-period sets at
        # k = 10,000m + 1, where a float collinearity test at t near 5,000
        # keeps corners that the slope changes drop
        rng = np.random.default_rng(2100)
        cases = []
        for _ in range(300):
            gaps = self.random_gaps(rng)
            F = fingerprint(np.concatenate([[0.0], np.cumsum(gaps)[:-1]]))
            m = F.m
            far = [q * m + int(rng.integers(1, m + 1)) for q in (200, 10 ** 4)]
            cases += [(F, k) for k in [*range(3 * m + 2), 200 * m, *far]]
        periodic = [*self.integer_period_sets(rng, 300),
                    fingerprint([0, 0.2, 0.4, 0.6])]
        cases += [(F, k) for F in periodic for k in (F.m + 1, 10 ** 4 * F.m + 1)]
        for F, k in cases:
            got, ref = F.psi(k).corners, psi_k_1d_trapezoids(F, k).corners
            assert got.shape == ref.shape, (F.points, k)
            tol = 1e-12 * max(1.0, ref[-1, 0])
            assert np.allclose(got, ref, rtol=0.0, atol=tol), (F.points, k)

    def test_batched_rows_equal_per_k_ramp_sums(self, s15, q15, s32, q32):
        # one pass over any list of ks gives, bit for bit, the corners of one
        # ramp sum per k: on seeded sets with m = 1..12, a third of them with
        # gaps of 1e-14 to 1e-11 below the corner tolerance and a third with
        # gaps of 1e-9 to 1e-6, and on criterion 1's sets, for k = 0..3m + 2
        # shuffled, with repeats and one k past 10,000 periods
        rng = np.random.default_rng(2400)
        sets = [DensityFingerprint1D.from_set(S) for S in (s15, q15, s32, q32)]
        for m in range(1, 13):
            for low in (None, -14, -9):
                for _ in range(8):
                    gaps = rng.random(m) + 0.05
                    if m > 1 and low is not None:
                        tiny = rng.choice(m, size=int(rng.integers(1, m)), replace=False)
                        gaps[tiny] = 10.0 ** rng.uniform(low, low + 3, size=len(tiny))
                    gaps /= gaps.sum()
                    sets.append(fingerprint(np.r_[0.0, np.cumsum(gaps)[:-1]]))
        for F in sets:
            ks = rng.permutation(np.r_[0:3 * F.m + 3, 0, F.m, 10 ** 4 * F.m + 1])
            corners, ends = pg.density._psi_rows(F, ks)
            assert ends[-1] == len(corners)
            for k, got in zip(ks, np.split(corners, ends[:-1])):
                ref = psi_k_1d_per_k(F, k)
                assert got.shape == ref.shape, (F.points, k)
                assert got.tobytes() == ref.tobytes(), (F.points, k)
                assert F.psi(k).corners.tobytes() == ref.tobytes(), (F.points, k)

    def test_sub_tolerance_gaps_equal_trapezoid_sums_as_functions(self):
        # gaps of 1e-14 to 1e-10, below the corner tolerance's reach, merge
        # into corners in another order than the reference's, so only the
        # functions are compared: both are linear between the union of
        # their corners and constant outside it
        rng = np.random.default_rng(2200)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            gaps = rng.random(m) + 0.05
            tiny = rng.choice(m, size=int(rng.integers(1, m)), replace=False)
            gaps[tiny] = 10.0 ** rng.uniform(-14, -10, size=len(tiny))
            rest = np.setdiff1d(np.arange(m), tiny)
            gaps[rest] *= (1 - gaps[tiny].sum()) / gaps[rest].sum()
            F = fingerprint(np.concatenate([[0.0], np.cumsum(gaps)[:-1]]))
            for k in range(3 * m + 2):
                got, ref = F.psi(k), psi_k_1d_trapezoids(F, k)
                ts = np.union1d(got.ts, ref.ts)
                assert np.allclose(got(ts), ref(ts), rtol=0.0, atol=1e-10), (
                    F.points, k)

    def test_corners_only_where_the_slope_changes(self):
        # on commensurate sets every slope is an integer, and no interior
        # corner has the same slope on both sides, also far out in t
        rng = np.random.default_rng(2300)
        sets = [*self.integer_period_sets(rng, 40), fingerprint([0, 0.2, 0.4, 0.6])]
        for F in sets:
            for k in [*range(2 * F.m + 2), 10 ** 4 * F.m + 1]:
                corners = F.psi(k).corners
                slopes = np.diff(corners[:, 1]) / np.diff(corners[:, 0])
                whole = np.rint(slopes)
                assert np.allclose(slopes, whole, rtol=0.0, atol=1e-6), (F.points, k)
                assert np.all(np.diff(whole) != 0), (F.points, k)


class TestFingerprintEquality:
    def test_s15_q15_identical(self, s15, q15):
        assert pg.fingerprints_equal_1d(s15, q15)

    def test_s32_q32_differ(self, s32, q32):
        assert not pg.fingerprints_equal_1d(s32, q32)
        # locate a k that differs
        FS = DensityFingerprint1D.from_set(s32)
        FQ = DensityFingerprint1D.from_set(q32)
        differing = []
        for k in range(0, 9):
            ps, qs = FS.psi(k), FQ.psi(k)
            ts = np.unique(np.concatenate([ps.ts, qs.ts]))
            if np.abs(ps(ts) - qs(ts)).max() > 1e-9:
                differing.append(k)
        assert differing  # found explicitly which psi_k separates them

    def test_identity(self, s15):
        assert pg.fingerprints_equal_1d(s15, s15)

    def test_isometry_invariance_translation_reflection(self):
        rng = np.random.default_rng(29)
        pts = np.sort(rng.random(6))
        S = pg.PeriodicSet(pg.UnitCell(np.eye(1)), pts[:, None])
        shift = pg.translate(S, [0.234])
        mirrored = pg.PeriodicSet(
            pg.UnitCell(np.eye(1)), pg.core.fold_fractions(-pts)[:, None]
        )
        assert pg.fingerprints_equal_1d(S, shift)
        assert pg.fingerprints_equal_1d(S, mirrored)


class TestPartitionOfUnity:
    def test_exact(self):
        F = fingerprint([0, 0.21, 0.55, 0.81])
        for t in np.linspace(0, 0.7, 29):
            total = sum(F.psi(k)(t) for k in range(0, 10))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_sampled(self):
        S = pg.PeriodicSet(pg.UnitCell(np.eye(1)),
                           np.array([[0.0], [0.21], [0.55], [0.81]]))
        grid = [0.1, 0.3]
        rows = [pg.psi_k_sampled(S, k, grid, 2000, seed=1) for k in range(8)]
        for j in range(len(grid)):
            assert sum(r[j][1] for r in rows) == pytest.approx(1.0, abs=1e-12)


class TestSymmetryPeriodicity:
    def test_symmetry_and_periodicity(self):
        rng = np.random.default_rng(101)
        ts = np.linspace(0.0, 0.5, 100)
        for _ in range(5):
            m = int(rng.integers(2, 13))
            pts = np.sort(rng.random(m))
            while np.diff(np.concatenate([pts, [pts[0] + 1]])).min() < 1e-3:
                pts = np.sort(rng.random(m))
            F = fingerprint(pts)
            for k in range(1, m // 2 + 1):
                assert np.allclose(
                    F.psi(k)(ts), F.psi(m - k)(0.5 - ts), atol=1e-9
                )
            for k in range(0, 2):
                assert np.allclose(
                    F.psi(k + m)(ts + 0.5), F.psi(k)(ts), atol=1e-9
                )


class TestSampled:
    def test_agrees_with_exact_within_four_stderr(self):
        rng = np.random.default_rng(55)
        for trial in range(3):
            m = int(rng.integers(2, 6))
            pts = np.sort(rng.random(m))
            while np.diff(np.concatenate([pts, [pts[0] + 1]])).min() < 0.05:
                pts = np.sort(rng.random(m))
            S = pg.PeriodicSet(pg.UnitCell(np.eye(1)), pts[:, None])
            F = fingerprint(pts)
            grid = np.linspace(0.02, 0.45, 7)
            for k in range(0, 3):
                exact = F.psi(k)(grid)
                rows = pg.psi_k_sampled(S, k, grid, 20000, seed=trial)
                for (t, est, se), ex in zip(rows, exact):
                    assert abs(est - ex) <= 4 * se + 1e-12

    def test_equals_ball_count_loop(self):
        # the same samples counted ball by ball for every t, on seeded sets
        # with the CLI's default grid
        rng = np.random.default_rng(6060)
        for n in (1, 2, 3, 2, 3):
            S = random_periodic_set(rng, n, int(rng.integers(1, 6)), skew=0.3)
            grid = np.linspace(0.0, pg.easy_stable_radius(S) / 2.0, 20)
            for k in range(4):
                assert (pg.psi_k_sampled(S, k, grid, 1500, seed=k)
                        == psi_sampled_ball_counts(S, k, grid, 1500, seed=k))

    def test_every_k_from_one_pass(self, monkeypatch):
        # psi_sampled's row k is the per-(k, t) mean of d_k <= t < d_{k+1},
        # also at radii equal to sample distances and when the query runs
        # in blocks of a few samples
        rng = np.random.default_rng(7070)
        for n in (1, 2, 3):
            S = random_periodic_set(rng, n, 3, skew=0.3)
            reach = pg.easy_stable_radius(S)
            ties = cKDTree(sampled_cloud(S, [reach])).query(
                lhs_samples(S, 700, n)[:4], k=3)[0].ravel()
            grid = np.sort(np.concatenate([np.linspace(-0.05, reach, 9), ties]))
            whole = pg.psi_sampled(S, 6, grid, 700, seed=n)
            assert whole == [psi_sampled_loop(S, k, grid, 700, seed=n)
                             for k in range(7)]
            assert whole[2] == pg.psi_k_sampled(S, 2, grid, 700, seed=n)
            monkeypatch.setattr(pg.density, "BLOCK_ENTRIES", 50)
            assert pg.psi_sampled(S, 6, grid, 700, seed=n) == whole
            monkeypatch.undo()

    def test_query_depth_capped_by_cloud(self, square, monkeypatch):
        # an uncapped query for 20,001 neighbors of 10,000 samples would
        # hold 1.6 GB of distances; the cloud within t = 0.2 has 4 points
        depths = []

        class Tree(cKDTree):
            def query(self, x, k=1, **kwargs):
                depths.append(k)
                return super().query(x, k=k, **kwargs)

        monkeypatch.setattr(pg.density, "cKDTree", Tree)
        tracemalloc.start()
        try:
            rows = pg.psi_sampled(square, 20000, [0.1, 0.2], 10000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert depths == [4] and peak < 64e6
        assert len(rows) == 20001
        assert all(r == [(0.1, 0.0, 0.0), (0.2, 0.0, 0.0)] for r in rows[2:])
        assert sum(r[1][1] for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_negative_radius_covers_nothing(self, square):
        for k in (0, 1, 2):
            rows = pg.psi_k_sampled(square, k, [-0.5, -0.1], 500)
            assert [est for _, est, _ in rows] == [float(k == 0)] * 2

    def test_square_lattice_covered_beyond_covering_radius(self, square):
        rows = pg.psi_k_sampled(square, 0, [np.sqrt(2) / 2 + 1e-9], 4000, seed=0)
        assert rows[0][1] == 0.0

    def test_deterministic_under_seed(self, square):
        a = pg.psi_k_sampled(square, 1, [0.4], 1000, seed=7)
        b = pg.psi_k_sampled(square, 1, [0.4], 1000, seed=7)
        assert a == b

    def test_2d_matches_quadrature_oracle(self, hexagonal):
        # fine-grid quadrature of the coverage multiplicity, independent path
        t = 0.5
        g = 201
        xs, ys = np.meshgrid(np.linspace(0, 1, g, endpoint=False) + 0.5 / g,
                             np.linspace(0, 1, g, endpoint=False) + 0.5 / g)
        frac = np.column_stack([xs.ravel(), ys.ravel()])
        pts = frac @ hexagonal.cell.basis
        cloud, _ = pg.core.neighbor_cloud(hexagonal, t + 1e-9)
        counts = cKDTree(cloud).query_ball_point(pts, r=t, return_length=True)
        oracle = np.mean(counts == 1)
        rows = pg.psi_k_sampled(hexagonal, 1, [t], 40000, seed=3)
        _, est, se = rows[0]
        assert abs(est - oracle) <= 3 * se + 2e-3
