"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 8 pins the square-vs-hexagonal cluster distance at radius 2 to
sqrt(2) - 1, the minimum over orthogonal maps, attained at a 15-degree
relative rotation; the test derives the value and a two-sided dense-scan
oracle confirms it (test_metric.py). The value sqrt(2 - sqrt(3)) is the
epsilon of the axis-aligned overlay, and the test asserts that d_C lies
strictly below it.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import perigeo as pg
from perigeo.density import DensityFingerprint1D
from perigeo.metric import _min_cost_transport, approx_factor_bound

from helpers import (
    UNIMODULAR,
    jitter_set,
    random_orthogonal,
    random_periodic_set,
    transport_bruteforce,
)


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="module")
def jitter_suite():
    """50 jittered copies of the 2x2-supercell square lattice with the
    actual bottleneck distances, shared by criteria 9 and 12."""
    rng = np.random.default_rng(2024)
    cell = pg.UnitCell(2 * np.eye(2))
    motif = np.array([[0, 0], [0, 0.5], [0.5, 0], [0.5, 0.5]])
    S = pg.PeriodicSet(cell, motif)
    trials = []
    epsilons = [0.01, 0.03, 0.05]
    for i in range(50):
        eps = epsilons[i % 3]
        Q, _ = jitter_set(rng, S, eps)
        dB = pg.bottleneck_distance_common_cell(S, Q)
        trials.append((Q, eps, dB))
    return S, trials


def test_criterion_1_amd_tables(s15, q15, s32, q32):
    start = time.perf_counter()
    values = {
        "S15": pg.amd(s15, 4).values,
        "Q15": pg.amd(q15, 4).values,
        "S32": pg.amd(s32, 3).values,
        "Q32": pg.amd(q32, 3).values,
    }
    elapsed = time.perf_counter() - start
    expected = {
        "S15": [11 / 9, 19 / 9, 25 / 9, 34 / 9],
        "Q15": [11 / 9, 19 / 9, 26 / 9, 33 / 9],
        "S32": [20 / 16, 31 / 16, 50 / 16],
        "Q32": [20 / 16, 32 / 16, 51 / 16],
    }
    for name, exp in expected.items():
        assert np.allclose(values[name], exp, rtol=0, atol=1e-9), name
    assert elapsed < 1.0
    report(1, f"four AMD tables exact to 1e-9 in {elapsed:.3f}s")


def test_criterion_2_density_corners():
    psi0 = pg.psi0_1d([1 / 3, 1 / 6, 1 / 2])
    assert np.allclose(
        psi0.corners,
        [(0, 1), (1 / 12, 1 / 2), (1 / 6, 1 / 6), (1 / 4, 0)],
        rtol=0, atol=1e-12,
    )
    eta_r = pg.trapezoid(1 / 3, 0.0, 1 / 2)
    assert np.allclose(
        eta_r.corners,
        [(0, 0), (1 / 6, 1 / 3), (1 / 4, 1 / 3), (5 / 12, 0)],
        rtol=0, atol=1e-12,
    )
    eta_gb = pg.trapezoid(1 / 3, 1 / 6, 1 / 2)
    assert np.allclose(
        eta_gb.corners,
        [(1 / 12, 0), (1 / 4, 1 / 3), (1 / 3, 1 / 3), (1 / 2, 0)],
        rtol=0, atol=1e-12,
    )
    report(2, "psi_0, eta_R, eta_GB corner lists exact to 1e-12")


def test_criterion_3_fingerprint_indistinguishability(s15, q15, s32, q32):
    start = time.perf_counter()
    assert pg.fingerprints_equal_1d(s15, q15, tol=1e-9)
    FS = DensityFingerprint1D.from_set(s15)
    FQ = DensityFingerprint1D.from_set(q15)
    for k in range(5):
        ps, qs = FS.psi(k), FQ.psi(k)
        ts = np.unique(np.concatenate([ps.ts, qs.ts]))
        assert np.allclose(ps(ts), qs(ts), atol=1e-9)
    # checkpoint values of the psi_4 sums, period-15 units
    for t15, v15 in [(2.5, 2), (3, 5), (3.5, 6), (4, 4), (4.5, 1)]:
        shared = sum(
            pg.trapezoid(*tr)(t15 / 15) for tr in FS.trapezoid_triples(4)
        ) - sum(
            pg.trapezoid(*tr)(t15 / 15) for tr in FQ.trapezoid_triples(4)
        )
        assert abs(shared) < 1e-9  # the two 9-trapezoid sums agree
        total = 15 * sum(
            pg.trapezoid(*tr)(t15 / 15) for tr in FS.trapezoid_triples(4)
        )
        shared_three = 15 * sum(
            pg.trapezoid(*tr)(t15 / 15)
            for tr in set_to_shared(FS, FQ)
        )
        assert total - shared_three == pytest.approx(v15, abs=1e-9)
    assert not pg.fingerprints_equal_1d(s32, q32, tol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, f"S15~Q15 fingerprints equal with checkpoint values, "
              f"S32!~Q32, in {elapsed:.3f}s")


def set_to_shared(FS, FQ):
    """The three trapezoid triples shared by psi_4 of the two sets."""
    from collections import Counter

    def keyed(F):
        return Counter(
            (round(min(a, c) * 15), round(b * 15), round(max(a, c) * 15))
            for a, b, c in F.trapezoid_triples(4)
        )

    shared = keyed(FS) & keyed(FQ)
    return [tuple(x / 15 for x in t) for t in shared.elements()]


def test_criterion_4_symmetry_periodicity():
    rng = np.random.default_rng(77)
    ts = np.linspace(0.0, 0.5, 100)
    worst = 0.0
    for _ in range(25):
        m = int(rng.integers(2, 13))
        pts = np.sort(rng.random(m))
        while np.diff(np.concatenate([pts, [pts[0] + 1]])).min() < 1e-3:
            pts = np.sort(rng.random(m))
        F = DensityFingerprint1D(pts, 1.0)
        for k in range(1, m // 2 + 1):
            err = np.abs(F.psi(k)(ts) - F.psi(m - k)(0.5 - ts)).max()
            worst = max(worst, err)
        for k in range(0, 2):
            err = np.abs(F.psi(k + m)(ts + 0.5) - F.psi(k)(ts)).max()
            worst = max(worst, err)
    assert worst <= 1e-9
    report(4, f"symmetry and periodicity on 25 random sets, worst {worst:.2e}")


def test_criterion_5_sampled_vs_exact():
    rng = np.random.default_rng(88)
    samples = 10 ** 5
    worst = 0.0
    for trial in range(10):
        m = int(rng.integers(2, 7))
        pts = np.sort(rng.random(m))
        while np.diff(np.concatenate([pts, [pts[0] + 1]])).min() < 0.04:
            pts = np.sort(rng.random(m))
        S = pg.PeriodicSet(pg.UnitCell(np.eye(1)), pts[:, None])
        F = DensityFingerprint1D.from_set(S)
        grid = np.linspace(0.02, 0.45, 7)
        for k in range(0, 4):
            exact = F.psi(k)(grid)
            rows = pg.psi_k_sampled(S, k, grid, samples, seed=trial)
            for (t, est, se), ex in zip(rows, exact):
                assert abs(est - ex) <= 4 * se, (trial, k, t, est, ex, se)
                if se > 0:
                    worst = max(worst, abs(est - ex) / se)
    report(5, f"Monte-Carlo psi_k within 4 stderr everywhere "
              f"(worst {worst:.2f} sigma)")


def test_criterion_6_isoset_facts(s4, s2, square, hexagonal):
    res4 = pg.minimum_stable_radius(s4)
    assert res4.beta == pytest.approx(0.5, abs=1e-12)
    assert res4.alpha == pytest.approx(0.75, abs=1e-12)
    tree = pg.isotree(s4, 0.25)
    sizes = {round(r, 12): len(p) for r, p in zip(tree.radii, tree.partitions)}
    assert sizes[0.0] == 1
    assert sizes[round(1 / 12, 12)] == 2
    assert sizes[round(1 / 6, 12)] == 4
    assert pg.minimum_stable_radius(square).alpha == pytest.approx(2.0)
    assert pg.minimum_stable_radius(hexagonal).alpha == pytest.approx(2.0)
    res2 = pg.minimum_stable_radius(s2)
    iso2 = pg.isoset(s2, res2.alpha)
    assert sorted(c.weight for c in iso2.classes) == [
        Fraction(1, 5), Fraction(4, 5)
    ]
    report(6, "beta(S4)=1/2, alpha(S4)=3/4, partition 1->2->4, lattice "
              "stable radii 2, S2 weights {4/5, 1/5}")


def test_criterion_7_completeness_behavior():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    for trial in range(20):
        n = 2 if trial % 2 == 0 else 3
        m = int(rng.integers(2, 7))  # m = 1 jitter is a pure translation
        S = random_periodic_set(rng, n, m)
        M = random_orthogonal(rng, n)
        T = pg.apply_isometry(S, M, rng.random(n))
        T = pg.change_cell(T, UNIMODULAR[n][rng.integers(len(UNIMODULAR[n]))])
        assert pg.isosets_equal(S, T), f"trial {trial}: transformed copy"
        r, _ = pg.packing_covering_radii(S)
        Q, _ = jitter_set(rng, S, 0.05 * r)
        assert not pg.isosets_equal(S, Q), f"trial {trial}: jitter missed"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"20 random 2D/3D sets: isometric copies equal, jittered "
              f"copies split, in {elapsed:.1f}s")


def test_criterion_8_cluster_distance_value(square, hexagonal):
    # d_C(square 2-cluster, hexagonal 2-cluster; alpha = 2) = sqrt(2) - 1.
    # d_M is the max over length-sorted prefixes of min(2 - |p_i|,
    # d_R(prefix, D)), and d_R is minimised over all orthogonal maps.
    # Lower bound: the hexagonal unit-shell prefix has gain 1. Under any map
    # its six vectors sit at offsets theta, theta + 30, theta + 60 degrees
    # mod 90, so one of them is at least 30 degrees from every square axis
    # vector, at distance >= 2 sin 15deg = sqrt(2 - sqrt(3)); of the other
    # square points the diagonals at sqrt(2) are at least sqrt(2) - 1 away,
    # the origin and the radius-2 points 1. Hence d_C >= sqrt(2) - 1.
    # Upper bound: at a 15-degree relative rotation, for every prefix with
    # positive gain in both directions, unit vectors lie within
    # 2 sin 7.5deg ~ 0.261 of an axis vector or on a diagonal ray (distance
    # sqrt(2) - 1); square diagonals land on a hexagonal unit ray (sqrt(2)
    # - 1) or on a sqrt(3) ray (sqrt(3) - sqrt(2) ~ 0.318); the hexagonal
    # sqrt(3) shell has gain 2 - sqrt(3) ~ 0.268 and the radius-2 shells
    # gain 0. Hence d_C <= sqrt(2) - 1. The dense-scan oracle dm_scan_2d
    # confirms both one-sided values (tests/test_metric.py).
    C = pg.alpha_cluster(square, 0, 2.0)
    D = pg.alpha_cluster(hexagonal, 0, 2.0)
    value = pg.d_C(C, D, 2.0, engine="exact")
    expected = np.sqrt(2) - 1
    assert value == pytest.approx(expected, abs=1e-6), (
        f"d_C(square, hexagonal; 2) = {value:.8f}, expected the minimum over "
        f"orthogonal maps sqrt(2)-1 = {expected:.8f}")
    # sqrt(2 - sqrt(3)) is the epsilon of the axis-aligned overlay only: the
    # directed Hausdorff distance from the square unit shell to the
    # hexagonal cluster at the identity map. Minimising over maps beats it.
    units = C.points[np.abs(np.linalg.norm(C.points, axis=1) - 1) < 1e-9]
    identity_eps = pg.directed_hausdorff(units, D.points)
    assert identity_eps == pytest.approx(np.sqrt(2 - np.sqrt(3)), abs=1e-12)
    assert value < identity_eps - 1e-6, (
        f"d_C = {value:.8f} is not below the identity-map epsilon "
        f"sqrt(2-sqrt(3)) = {identity_eps:.8f}")
    report(8, f"d_C(square, hexagonal; 2) = {value:.8f} = sqrt(2)-1, below "
              f"the identity-map epsilon sqrt(2-sqrt(3)) = {identity_eps:.8f}")


def test_criterion_9_perturbation_continuity(jitter_suite):
    S, trials = jitter_suite
    alpha = 4.0  # common easy stable radius of the supercell representation
    assert pg.common_stable_alpha(S, trials[0][0]) == pytest.approx(alpha)
    iso_s = pg.isoset(S, alpha)
    for i, (Q, eps, dB) in enumerate(trials):
        cost, _ = pg.emd(iso_s, pg.isoset(Q, alpha), engine="exact")
        assert cost <= 2 * eps, (i, cost, eps)
        assert cost <= 2 * dB + 1e-9, (i, cost, dB)
    report(9, f"EMD <= 2*eps in all {len(trials)} jitter trials "
              f"(eps in {{0.01, 0.03, 0.05}})")


def test_criterion_10_approximation_bound():
    rng = np.random.default_rng(5151)
    delta = 0.1
    checked = 0
    for n, count, size_hi in ((2, 100, 13), (3, 20, 9)):
        bound = approx_factor_bound(n, delta)
        for _ in range(count):
            C = rng.normal(size=(int(rng.integers(4, size_hi)), n))
            D = rng.normal(size=(int(rng.integers(4, size_hi)), n))
            oracle, _ = pg.d_R_exact_small(C, D)
            approx = pg.d_R_approx(C, D)
            # the oracle evaluates every approximation-engine map too, so
            # approx >= oracle up to float noise between evaluation paths
            assert approx >= oracle - 1e-9
            assert approx <= bound * oracle + 1e-6
            checked += 1
    report(10, f"d_R approx within [oracle, 2(n-1)(1+delta) oracle] on "
               f"{checked} cluster pairs")


def test_criterion_11_metric_axioms():
    rng = np.random.default_rng(6161)
    alpha = 1.5
    tol = 1e-6 * alpha
    for _ in range(50):
        clusters = []
        for _ in range(3):
            P = rng.normal(size=(int(rng.integers(4, 8)), 2))
            P *= 0.9 * alpha / np.linalg.norm(P, axis=1).max()
            P[0] = 0.0
            clusters.append(P)
        a, b, c = clusters
        dab = pg.d_C(a, b, alpha, engine="exact")
        dba = pg.d_C(b, a, alpha, engine="exact")
        dbc = pg.d_C(b, c, alpha, engine="exact")
        dac = pg.d_C(a, c, alpha, engine="exact")
        assert pg.d_C(a, a, alpha, engine="exact") <= 2 * tol
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dac <= dab + dbc + 2 * tol
    # EMD equals the brute-force transportation optimum on small instances
    for _ in range(10):
        na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        costs = rng.random((na, nb))
        total = 12
        supply = rng.multinomial(total, np.ones(na) / na)
        demand = rng.multinomial(total, np.ones(nb) / nb)
        flow = _min_cost_transport(costs, supply, demand)
        got = float((flow * costs).sum()) / total
        brute = transport_bruteforce(costs, supply / total, demand / total)
        assert got == pytest.approx(brute, abs=1e-9)
    report(11, "d_C identity/symmetry/triangle on 50 triples; EMD matches "
               "brute-force optimum on 10 instances")


def test_criterion_12_amd_continuity(jitter_suite):
    S, trials = jitter_suite
    base = pg.amd(S, 50).values
    for Q, eps, dB in trials:
        diff = np.abs(pg.amd(Q, 50).values - base).max()
        assert diff <= 2 * dB + 1e-12
    report(12, f"|AMD_k(S) - AMD_k(Q)| <= 2 d_B for k <= 50 on all "
               f"{len(trials)} jitter trials")
