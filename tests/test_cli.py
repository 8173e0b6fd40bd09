import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import perigeo as pg
from perigeo.cli import main
from perigeo.io import (
    ParseError,
    parse_set_file,
    parse_set_json,
    parse_set_text,
    write_set_text,
)

from helpers import jitter_set, random_periodic_set

S15_TEXT = """dim 1
15
motif 9
0 A
0.0666666666667
0.2
0.2666666666667
0.3333333333333
0.4666666666667
0.6
0.6666666666667
0.8
"""


def s15_points():
    return [0, 1, 3, 4, 5, 7, 9, 10, 12]


# JSON values of every kind, and set-like objects whose keys hold them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
SET_OBJECTS = st.fixed_dictionaries({}, optional={
    key: JSON_VALUES | st.integers(1, 3)
    | st.lists(st.lists(st.floats(-2, 2), min_size=1, max_size=3), max_size=3)
    for key in ("dim", "basis", "motif", "labels")
})
# lines of tokens from the text format's vocabulary, and arbitrary text
TEXT_TOKENS = st.sampled_from(
    ["dim", "motif", "0", "1", "2", "3", "-1", "0.5", "0.99", "nan", "1e400", "#", "A"]
) | st.text(max_size=3)
SET_TEXTS = st.lists(st.lists(TEXT_TOKENS, max_size=4).map(" ".join), max_size=8).map(
    "\n".join) | st.text()


def write_1d(path, points, period):
    lines = [f"dim 1", f"{period}", f"motif {len(points)}"]
    lines += [f"{p / period:.15g}" for p in points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestParsing:
    def test_s15_fixture(self, tmp_path):
        path = tmp_path / "s15.txt"
        path.write_text(S15_TEXT, encoding="utf-8")
        S = parse_set_file(path)
        assert S.dim == 1 and S.m == 9
        assert S.cell.basis[0, 0] == 15
        assert S.labels[0] == "A"
        cart = np.sort(S.motif[:, 0] * 15)
        assert np.allclose(cart, s15_points(), atol=1e-9)

    def test_empty_motif_rejected(self):
        text = "dim 1\n1\nmotif 0\n"
        with pytest.raises(ParseError, match="at least one point"):
            parse_set_text(text)

    def test_degenerate_cell_rejected(self):
        text = "dim 2\n1 0\n2 0\nmotif 1\n0.5 0.5\n"
        with pytest.raises(ParseError, match="degenerate"):
            parse_set_text(text)

    def test_fraction_out_of_range_reports_line(self):
        text = "dim 1\n1\nmotif 2\n0.5\n1.5\n"
        with pytest.raises(ParseError) as err:
            parse_set_text(text)
        assert err.value.line == 5

    def test_non_finite_values_rejected(self, tmp_path):
        # Python's JSON reader accepts NaN and Infinity, float() reads "nan"
        texts = {
            "nan_basis.json": '{"dim": 2, "basis": [[1, 0], [0, NaN]], '
                              '"motif": [[0.5, 0.5]]}',
            "inf_basis.json": '{"dim": 2, "basis": [[1, 0], [0, Infinity]], '
                              '"motif": [[0.5, 0.5]]}',
            "nan_motif.json": '{"dim": 2, "basis": [[1, 0], [0, 1]], '
                              '"motif": [[0.5, NaN]]}',
            "nan_basis.txt": "dim 2\n1 0\n0 nan\nmotif 1\n0.5 0.5\n",
            "nan_motif.txt": "dim 2\n1 0\n0 1\nmotif 1\n0.5 nan\n",
        }
        for name, text in texts.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ParseError):
                parse_set_file(path)

    def test_huge_basis_rejected(self, tmp_path, capsys):
        # refused by the entry limit before b ** n or det(basis) overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e200, 1e300):
                files = {
                    "huge.txt": f"dim 2\n{scale} 0\n0 1\nmotif 1\n0.5 0.5\n",
                    "huge.json": json.dumps({"dim": 2, "basis": [[scale, 0], [0, 1]],
                                             "motif": [[0.5, 0.5]]}),
                }
                for name, text in files.items():
                    path = tmp_path / name
                    path.write_text(text, encoding="utf-8")
                    with pytest.raises(ParseError, match="must not exceed 1e\\+100"):
                        parse_set_file(path)
                    assert main(["amd", str(path), "-k", "2"]) == 2
                    assert "must not exceed 1e+100" in capsys.readouterr().err
            for scale in (1e-3, 1.0, 1e6):
                S = parse_set_text(f"dim 2\n{scale} 0\n0 {scale}\nmotif 1\n0.5 0.5\n")
                assert S.cell.basis[0, 0] == scale

    def test_tiny_basis_rejected(self, tmp_path, capsys):
        # refused by the length limit before b ** n or det(basis) underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-160, 1e-200):
                files = {
                    "tiny.txt": f"dim 3\n{scale} 0 0\n0 {scale} 0\n0 0 {scale}\n"
                                "motif 1\n0.5 0.5 0.5\n",
                    "tiny.json": json.dumps({"dim": 3, "basis": (np.eye(3) * scale).tolist(),
                                             "motif": [[0.5, 0.5, 0.5]]}),
                }
                for name, text in files.items():
                    path = tmp_path / name
                    path.write_text(text, encoding="utf-8")
                    with pytest.raises(ParseError, match="at least 1e-100"):
                        parse_set_file(path)
                    assert main(["amd", str(path), "-k", "2"]) == 2
                    assert "at least 1e-100" in capsys.readouterr().err
            for text in ("dim 3\n1e-50 0 0\n0 1e-50 0\n0 0 1e-50\nmotif 1\n0.5 0.5 0.5\n",
                         json.dumps({"dim": 3, "basis": (np.eye(3) * 1e-50).tolist(),
                                     "motif": [[0.5, 0.5, 0.5]]})):
                S = (parse_set_json if text.startswith("{") else parse_set_text)(text)
                assert S.cell.basis[0, 0] == 1e-50
                assert S.cell.volume > 0

    def test_json_top_level_must_be_object(self, tmp_path):
        for text in ("5", "[1, 2]", '"dim"', "null"):
            path = tmp_path / "set.json"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ParseError, match="object"):
                parse_set_file(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=SET_TEXTS)
    def test_text_parser_raises_only_parse_error(self, text):
        try:
            parse_set_text(text)
        except ParseError:
            pass

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=SET_OBJECTS | JSON_VALUES)
    def test_json_parser_raises_only_parse_error(self, data):
        try:
            parse_set_json(json.dumps(data))
        except ParseError:
            pass

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        cell = pg.UnitCell(np.eye(2) + 0.1 * rng.normal(size=(2, 2)))
        S = pg.PeriodicSet(cell, rng.random((3, 2)), labels=("a", "b", "c"))
        path = tmp_path / "set.json"
        path.write_text(pg.write_set_json(S), encoding="utf-8")
        T = parse_set_file(path)
        assert np.allclose(T.cell.basis, S.cell.basis, rtol=1e-11)
        assert np.allclose(T.motif, S.motif, rtol=1e-11)
        assert T.labels == S.labels

    def test_text_roundtrip(self):
        rng = np.random.default_rng(3)
        cell = pg.UnitCell(np.eye(3) + 0.1 * rng.normal(size=(3, 3)))
        S = pg.PeriodicSet(cell, rng.random((2, 3)))
        T = parse_set_text(write_set_text(S))
        assert np.allclose(T.cell.basis, S.cell.basis, rtol=1e-11)
        assert np.allclose(T.motif, S.motif, rtol=1e-11)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["amd"]) == 1
        assert main(["nonsense"]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("dim 1\n1\nmotif 0\n", encoding="utf-8")
        assert main(["amd", str(bad), "-k", "4"]) == 2
        err = capsys.readouterr().err
        assert "at least one point" in err

    def test_non_object_json_is_two(self, tmp_path, capsys):
        bad = tmp_path / "five.json"
        bad.write_text("5", encoding="utf-8")
        assert main(["isoset", str(bad)]) == 2
        assert "object" in capsys.readouterr().err

    def test_enumeration_cap_is_two(self, tmp_path, capsys):
        # refused by the size estimate, before anything is allocated
        path = write_1d(tmp_path / "z.txt", [0], 1)
        assert main(["isotree", path, "--alpha-max", "1e9"]) == 2
        assert "limit" in capsys.readouterr().err
        assert main(["isoset", path, "--alpha", "1e9"]) == 2
        assert "limit" in capsys.readouterr().err
        assert main(["amd", path, "-k", "1000000000"]) == 2
        assert "limit" in capsys.readouterr().err

    def test_isotree_near_tie_is_two(self, tmp_path, capsys):
        # a near-symmetric set whose partitions stop refining (see
        # TestIsotree.test_near_tie_raises_data_error) ends in an error line
        cell = pg.UnitCell(2 * np.eye(2))
        motif = np.array([[0, 0], [0, 0.5], [0.5, 0], [0.5, 0.5]])
        Q, _ = jitter_set(np.random.default_rng(0), pg.PeriodicSet(cell, motif),
                          1e-7)
        path = tmp_path / "near.txt"
        path.write_text(write_set_text(Q), encoding="utf-8")
        assert main(["isotree", str(path), "--alpha-max", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha-partitions failed to refine")
        assert "near-tie" in err

    def test_dcluster_point_index_is_two(self, tmp_path, capsys):
        path = write_1d(tmp_path / "a.txt", [0, 1], 4)
        for points in (["5", "0"], ["0", "2"], ["0", "-1"]):
            assert main(["dcluster", path, path, "--points", *points,
                         "--alpha", "1"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "point index" in err, points
        assert main(["dcluster", path, path, "--points", "1", "0",
                     "--alpha", "1"]) == 0

    def test_bad_tolerance_override_is_two(self, tmp_path, capsys,
                                           monkeypatch):
        path = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        for value in ("-1", "0", "nan", "inf", "tight"):
            monkeypatch.setenv("PERIGEO_TOL", value)
            assert main(["compare", path, path]) == 2, value
            err = capsys.readouterr().err
            assert err.startswith("error:") and "PERIGEO_TOL" in err, value
        monkeypatch.setenv("PERIGEO_TOL", "1e-6")
        assert main(["compare", path, path]) == 0
        assert json.loads(capsys.readouterr().out)["isometric"] is True

    def test_success_is_zero(self, tmp_path, capsys):
        path = write_1d(tmp_path / "z.txt", [0], 1)
        assert main(["amd", path, "-k", "3"]) == 0


class TestCommands:
    def test_amd_json_and_csv(self, tmp_path, capsys):
        path = write_1d(tmp_path / "s15.txt", s15_points(), 15)
        assert main(["amd", path, "-k", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        assert np.allclose(data["amd"], [11 / 9, 19 / 9, 25 / 9, 34 / 9])
        assert len(data["per_point"]) == 9
        assert main(["amd", path, "-k", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,amd"
        assert lines[1].startswith("1,")

    def test_density_exact(self, tmp_path, capsys):
        path = write_1d(tmp_path / "s.txt", [0, 5, 7.5], 15)
        assert main(["density", path, "-k", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "exact"
        corners = np.array(data["psi"][0]["corners"])
        expected = [(0, 1), (1 / 12, 1 / 2), (1 / 6, 1 / 6), (1 / 4, 0)]
        assert np.allclose(corners, expected, atol=1e-9)
        original = np.array(data["psi"][0]["corners_original_units"])
        assert np.allclose(original[:, 0], corners[:, 0] * 15, atol=1e-9)

    def test_density_sampled_and_plot_csv(self, tmp_path, capsys):
        path = write_1d(tmp_path / "s.txt", [0, 5, 7.5], 15)
        prefix = tmp_path / "plot"
        code = main([
            "density", path, "-k", "1", "--samples", "500",
            "--grid", "0.5:3:4", "--seed", "5",
            "--plot-csv", str(prefix),
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "sampled" and data["seed"] == 5
        assert (tmp_path / "plot_k0.csv").exists()
        assert (tmp_path / "plot_k1.csv").exists()
        rows = (tmp_path / "plot_k1.csv").read_text().strip().splitlines()
        assert len(rows) == 4 and all("," in r for r in rows)

    def test_isoset_stable(self, tmp_path, capsys):
        path = write_1d(tmp_path / "s4.txt", [0, 0.25, 1 / 3, 0.5], 1)
        assert main(["isoset", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha"] == pytest.approx(0.75)
        assert data["beta"] == pytest.approx(0.5)
        assert data["regularity"] == 4
        weights = sorted(c["weight_float"] for c in data["classes"])
        assert np.allclose(weights, 0.25)

    def test_isotree(self, tmp_path, capsys):
        path = write_1d(tmp_path / "s4.txt", [0, 0.25, 1 / 3, 0.5], 1)
        assert main(["isotree", path, "--alpha-max", "0.75"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out[: out.index("\nalpha=") + 1])
        sizes = [len(p) for p in data["partitions"]]
        assert sizes[0] == 1 and sizes[-1] == 4
        assert "alpha=" in out

    def test_compare(self, tmp_path, capsys):
        # gap cycles (1,2,2) vs (1,1,3): not related by rotation/reflection
        a = write_1d(tmp_path / "a.txt", [0, 1, 3], 5)
        b = write_1d(tmp_path / "b.txt", [0, 1, 2], 5)
        assert main(["compare", a, a]) == 0
        assert json.loads(capsys.readouterr().out)["isometric"] is True
        assert main(["compare", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["isometric"] is False

    def test_emd_and_dcluster(self, tmp_path, capsys):
        a = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        b = write_1d(tmp_path / "b.txt", [0, 1.1, 3], 4)
        assert main(["emd", a, b, "--dr", "exact"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cost"] >= 0
        assert abs(sum(map(sum, data["plan"])) - 1) < 1e-9
        assert main([
            "dcluster", a, b, "--points", "0", "1", "--alpha", "2.0",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["d_cluster"] >= 0
        # the default engine is reported as the one that ran
        assert data["engine"] == "exact"
        assert main([
            "dcluster", a, b, "--points", "0", "1", "--alpha", "2.0",
            "--dr", "approx",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["engine"] == "approx"

    def test_emd_stable_uses_larger_minimum_stable_radius(self, tmp_path, capsys):
        rng = np.random.default_rng(71)
        S = random_periodic_set(rng, 2, 3)
        eps = 0.01
        Q, _ = jitter_set(rng, S, eps)
        paths = []
        for name, T in (("s.txt", S), ("q.txt", Q)):
            path = tmp_path / name
            path.write_text(write_set_text(T), encoding="utf-8")
            paths.append(str(path))
        stable = []
        for path in paths:
            assert main(["isoset", path, "--stable"]) == 0
            stable.append(json.loads(capsys.readouterr().out)["alpha"])
        assert main(["emd", *paths, "--stable"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha"] == max(stable)
        assert data["fallback"] is False
        assert data["cost"] <= 2 * eps
        # without --stable: the larger easy bound and no fallback field
        assert main(["emd", *paths]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha"] == pg.common_stable_alpha(
            parse_set_file(paths[0]), parse_set_file(paths[1]))
        assert "fallback" not in data

    def test_batch_amd_matrix(self, tmp_path, capsys):
        s15 = write_1d(tmp_path / "s15.txt", s15_points(), 15)
        q15 = write_1d(tmp_path / "q15.txt", [0, 1, 3, 4, 6, 8, 9, 12, 14], 15)
        # 4 - S15 is isometric to S15 (reflected and shifted)
        refl = write_1d(
            tmp_path / "r15.txt",
            sorted((4 - p) % 15 for p in s15_points()), 15,
        )
        assert main([
            "batch", s15, q15, refl, "--mode", "amd", "-k", "4",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        m = np.array(data["matrix"])
        assert m[0, 2] == pytest.approx(0.0, abs=1e-9)
        assert m[0, 1] > 1e-3 and m[1, 2] > 1e-3

    def test_batch_emd_at_one_radius(self, tmp_path, capsys):
        # three random 2D sets and jittered copies of two of them, whose
        # cells give different max{2b, d}: every entry is the EMD of one
        # isoset per set at the largest of them, so the matrix is a metric
        rng = np.random.default_rng(81)
        sets = [random_periodic_set(rng, 2, m) for m in (1, 2, 2)]
        sets += [jitter_set(rng, sets[0], 0.02)[0],
                 jitter_set(rng, sets[1], 0.02)[0]]
        paths = []
        for i, S in enumerate(sets):
            path = tmp_path / f"s{i}.txt"
            path.write_text(write_set_text(S), encoding="utf-8")
            paths.append(str(path))
        assert main(["batch", *paths, "--mode", "emd", "--dr", "exact"]) == 0
        m = np.array(json.loads(capsys.readouterr().out)["matrix"])
        parsed = [parse_set_file(path) for path in paths]
        radii = [pg.easy_stable_radius(S) for S in parsed]
        assert len(set(radii)) > 1
        alpha = max(radii)
        tol = 1e-9 * alpha
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)
        for i in range(len(sets)):
            for j in range(len(sets)):
                assert np.all(m[i] <= m[i, j] + m[j] + 2 * tol), (i, j)
        isosets = [pg.isoset(S, alpha) for S in parsed]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                cost, _ = pg.emd(isosets[i], isosets[j], engine="exact")
                assert m[i, j] == pytest.approx(cost, abs=1e-12), (i, j)

    def test_batch_isoset_mode(self, tmp_path, capsys):
        a = write_1d(tmp_path / "a.txt", [0, 1, 3], 5)
        b = write_1d(tmp_path / "b.txt", [0, 1, 2], 5)
        assert main(["batch", a, b, "--mode", "isoset"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["matrix"][0][1] == 0.0

    def test_batch_continues_past_bad_file(self, tmp_path, capsys):
        good = write_1d(tmp_path / "good.txt", [0, 1, 3], 4)
        bad = tmp_path / "bad.txt"
        bad.write_text("dim 1\n1\nmotif 0\n", encoding="utf-8")
        assert main([
            "batch", good, str(bad), "--mode", "amd", "-k", "2",
        ]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert len(data["files"]) == 1
        assert len(data["failures"]) == 1
        assert "warning" in captured.err

    def test_batch_csv_format(self, tmp_path, capsys):
        a = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        b = write_1d(tmp_path / "b.txt", [0, 1, 2], 4)
        assert main([
            "batch", a, b, "--mode", "amd", "-k", "2", "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("file,")
        assert len(lines) == 3

    def test_tolerance_env_override(self, tmp_path, capsys, monkeypatch):
        a = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        b = write_1d(tmp_path / "b.txt", [0, 1.0005, 3], 4)
        monkeypatch.setenv("PERIGEO_TOL", "0.01")
        assert main(["compare", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["isometric"] is True
        monkeypatch.delenv("PERIGEO_TOL")
        assert main(["compare", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["isometric"] is False
