import importlib

import numpy as np
import pytest

import perigeo as pg

from helpers import (
    UNIMODULAR,
    amd_bruteforce,
    jitter_set,
    random_orthogonal,
    random_periodic_set,
)

# the module, which the package's amd function shadows as an attribute
amd_module = importlib.import_module("perigeo.amd")


class TestAmdTables:
    def test_s15(self, s15):
        vec = pg.amd(s15, 4)
        assert np.allclose(vec.values, [11 / 9, 19 / 9, 25 / 9, 34 / 9], atol=1e-9)

    def test_q15(self, q15):
        vec = pg.amd(q15, 4)
        assert np.allclose(vec.values, [11 / 9, 19 / 9, 26 / 9, 33 / 9], atol=1e-9)

    def test_s32_q32(self, s32, q32):
        assert np.allclose(
            pg.amd(s32, 3).values, [20 / 16, 31 / 16, 50 / 16], atol=1e-9
        )
        assert np.allclose(
            pg.amd(q32, 3).values, [20 / 16, 32 / 16, 51 / 16], atol=1e-9
        )

    def test_per_point_rows_match_paper_tables(self, s15):
        # row of the point 0 in the period-15 table: 1, 3, 3, 4
        per_point = pg.amd(s15, 4).per_point_matrix
        assert np.allclose(per_point[0], [1, 3, 3, 4], atol=1e-9)

    def test_square_and_hexagonal_shells(self, square, hexagonal):
        assert np.allclose(pg.amd(square, 4).values, 1.0, atol=1e-12)
        assert np.allclose(pg.amd(hexagonal, 6).values, 1.0, atol=1e-12)
        # next shells: sqrt(2) for the square, sqrt(3) for the hexagonal
        assert pg.amd(square, 8).values[4:] == pytest.approx(np.sqrt(2))
        assert pg.amd(hexagonal, 12).values[6:] == pytest.approx(np.sqrt(3))

    def test_matches_bruteforce(self):
        # seeded 1D, 2D and 3D sets on near-identity and skewed cells
        rng = np.random.default_rng(4141)
        for n in (1, 2, 3):
            for skew in (0.15, 0.3):
                for m in (1, 4):
                    S = random_periodic_set(rng, n, m, skew=skew)
                    for k in (1, 37, 1000):
                        got = pg.amd(S, k).per_point_matrix
                        ref = amd_bruteforce(S, k)
                        assert np.allclose(got, ref, rtol=1e-12, atol=0.0), (n, skew, m, k)

    def test_reach_retries_match_bruteforce(self, monkeypatch):
        # at k = 1 and 5 the first reach, 1.1 r_k, leaves some rows
        # unfinished on these draws; their retry at a doubled reach must
        # still give the exact nearest distances
        reaches = []
        cloud = amd_module.neighbor_cloud

        def spy(S, reach):
            reaches.append(reach)
            return cloud(S, reach)

        monkeypatch.setattr(amd_module, "neighbor_cloud", spy)
        rng = np.random.default_rng(2024)
        retried = 0
        for draw in range(30):
            S = random_periodic_set(rng, 1 + draw % 3, 1 + draw % 5, skew=0.3)
            for k in (1, 5):
                reaches.clear()
                got = pg.amd(S, k).per_point_matrix
                ref = amd_bruteforce(S, k)
                assert np.allclose(got, ref, rtol=1e-12, atol=0.0), (draw, k)
                retried += len(reaches) > 1
        assert retried >= 5

    def test_row_blocks_do_not_change_the_matrix(self, monkeypatch):
        rng = np.random.default_rng(99)
        sets = [random_periodic_set(rng, n, 7) for n in (2, 3)]
        refs = [pg.amd(S, 60).per_point_matrix for S in sets]
        # a budget below one cloud row still takes one row per block
        for budget in (1, 500, 3000):
            monkeypatch.setattr(amd_module, "BLOCK_ENTRIES", budget)
            for S, ref in zip(sets, refs):
                assert np.array_equal(pg.amd(S, 60).per_point_matrix, ref), budget

    def test_k_must_be_positive(self, square):
        with pytest.raises(ValueError):
            pg.amd(square, 0)


class TestAmdProperties:
    def test_isometry_invariance(self):
        rng = np.random.default_rng(17)
        for n in (2, 3):
            S = random_periodic_set(rng, n, 3)
            ref = pg.amd(S, 12).values
            M = random_orthogonal(rng, n)
            T = pg.apply_isometry(S, M, rng.random(n))
            T = pg.change_cell(T, UNIMODULAR[n][rng.integers(len(UNIMODULAR[n]))])
            assert np.allclose(pg.amd(T, 12).values, ref, rtol=1e-9)

    def test_continuity_under_jitter(self):
        rng = np.random.default_rng(23)
        S = random_periodic_set(rng, 2, 4)
        r, _ = pg.packing_covering_radii(S)
        for eps_frac in (0.02, 0.1):
            eps = eps_frac * r
            Q, moved = jitter_set(rng, S, eps)
            diff = np.abs(pg.amd(S, 20).values - pg.amd(Q, 20).values)
            assert diff.max() <= 2 * eps + 1e-12

    def test_asymptotic_growth(self):
        # AMD_k / k^(1/n) settles: relative variation below 5% on [500, 1000]
        rng = np.random.default_rng(31)
        for _ in range(2):
            basis = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
            S = pg.PeriodicSet(pg.UnitCell(basis), np.zeros((1, 2)))
            values = pg.amd(S, 1000).values[499:]
            ratio = values / np.sqrt(np.arange(500, 1001))
            assert (ratio.max() - ratio.min()) / ratio.mean() < 0.05

    def test_monotone_and_lower_bounded(self):
        rng = np.random.default_rng(37)
        S = random_periodic_set(rng, 2, 5)
        vec = pg.amd(S, 30)
        assert np.all(np.diff(vec.values) >= -1e-12)
        assert np.all(np.diff(vec.per_point_matrix, axis=1) >= -1e-12)
        r, _ = pg.packing_covering_radii(S)
        assert vec.values[0] >= 2 * r - 1e-9
