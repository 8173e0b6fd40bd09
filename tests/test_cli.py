import io
import json
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import perigeo as pg
from perigeo.cli import batch_compare, build_parser, main
from perigeo.isoset import _easy_bound
from perigeo.io import (
    ParseError,
    parse_set_file,
    parse_set_json,
    parse_set_text,
    write_set_text,
)

from helpers import (
    jitter_set,
    psi_k_1d_per_k,
    psi_sampled_ball_counts,
    random_periodic_set,
    random_unimodular,
    skew_unimodular,
)

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

    def test_json_refuses_non_integer_dim_and_non_string_labels(self):
        base = {"basis": [[2.0]], "motif": [[0.5]]}
        for dim in (True, "1", 1.0, None):
            with pytest.raises(ParseError, match="dim must be an integer"):
                parse_set_json(json.dumps({"dim": dim, **base}))
        for labels in ([None], [[1, 2]], [1], "A"):
            with pytest.raises(ParseError, match="labels must be a list of strings"):
                parse_set_json(json.dumps({"dim": 1, **base, "labels": labels}))
        S = parse_set_json(json.dumps({"dim": 1, **base, "labels": ["A"]}))
        assert S.dim == 1 and S.labels == ("A",)

    def test_text_refuses_dimension_outside_one_to_three_at_header(self, tmp_path,
                                                                   capsys):
        for dim in (-1, 0, 4, 10 ** 30):
            text = f"# comment\ndim {dim}\n1 0\n0 1\nmotif 1\n0 0\n"
            with pytest.raises(ParseError, match=f"dimension {dim} not supported") as err:
                parse_set_text(text)
            assert err.value.line == 2
            path = tmp_path / "bad.txt"
            path.write_text(text, encoding="utf-8")
            assert main(["amd", str(path), "-k", "2"]) == 2
            assert f"bad.txt:2: dimension {dim} not supported" in capsys.readouterr().err

    def test_json_refuses_dimension_outside_one_to_three(self, tmp_path, capsys):
        for dim in (-1, 0, 4, 10 ** 30):
            text = json.dumps({"dim": dim, "basis": [[1.0]], "motif": [[0.0]]})
            with pytest.raises(ParseError, match=f"dimension {dim} not supported"):
                parse_set_json(text)
            path = tmp_path / "bad.json"
            path.write_text(text, encoding="utf-8")
            assert main(["amd", str(path), "-k", "2"]) == 2
            assert f"dimension {dim} not supported" in capsys.readouterr().err

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        cell = pg.UnitCell(np.eye(2) + 0.1 * rng.normal(size=(2, 2)))
        motif = np.vstack([rng.random((3, 2)), [[0.9999999999999, 0.1]]])
        S = pg.PeriodicSet(cell, motif, labels=("a", "b", "c", "d"))
        path = tmp_path / "set.json"
        path.write_text(pg.write_set_json(S), encoding="utf-8")
        T = parse_set_file(path)
        assert np.array_equal(T.cell.basis, S.cell.basis)
        assert np.array_equal(T.motif, S.motif)
        assert T.labels == S.labels

    def test_text_roundtrip(self):
        rng = np.random.default_rng(3)
        cell = pg.UnitCell(np.eye(3) + 0.1 * rng.normal(size=(3, 3)))
        motif = np.vstack([rng.random((2, 3)), [[0.9999999999999, 0.5, 0.0]]])
        S = pg.PeriodicSet(cell, motif)
        T = parse_set_text(write_set_text(S))
        assert np.array_equal(T.cell.basis, S.cell.basis)
        assert np.array_equal(T.motif, S.motif)

    def test_text_roundtrip_labels(self):
        # labeled and unlabeled points: an empty label writes no token
        motif = np.array([[0.1, 0.2], [0.5, 0.5], [0.75, 0.25]])
        S = pg.PeriodicSet(pg.UnitCell(np.eye(2)), motif, ("Na", "", "Cl-2"))
        text = write_set_text(S)
        assert text.splitlines()[-2] == "0.5 0.5"
        T = parse_set_text(text)
        assert np.array_equal(T.motif, S.motif)
        assert T.labels == S.labels

    @pytest.mark.parametrize("label", ["Na Cl", "Na\tCl", "Na\n", " "])
    def test_text_refuses_label_of_many_tokens(self, label):
        S = pg.PeriodicSet(pg.UnitCell(np.eye(2)), [[0.1, 0.2], [0.5, 0.5]],
                           ("", label))
        with pytest.raises(ValueError, match=r"motif point 1: label"):
            write_set_text(S)


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
        # the grid's step count, before the grid is allocated
        for steps in ("1000000000000", "100000000"):
            assert main(["density", path, "-k", "1", "--samples", "100",
                         "--grid", f"0:1:{steps}"]) == 2
            assert "limit" in capsys.readouterr().err

    def test_negative_radius_is_two(self, tmp_path, capsys):
        # refused by the stacks before their enumeration, whose empty
        # window ended in an UnboundLocalError (exit 1) or a numpy error
        cube = tmp_path / "cube.txt"
        cube.write_text("dim 3\n1 0 0\n0 1 0\n0 0 1\nmotif 1\n0 0 0\n",
                        encoding="utf-8")
        square = tmp_path / "square.txt"
        square.write_text("dim 2\n1 0\n0 1\nmotif 3\n0 0\n0.5 0.25\n"
                          "0.25 0.625\n", encoding="utf-8")
        cube, square = str(cube), str(square)
        for argv in (["isoset", cube, "--alpha", "-0.5"],
                     ["emd", square, square, "--alpha", "-0.5"],
                     ["isotree", cube, "--alpha-max", "-0.5"],
                     ["isotree", square, "--alpha-max", "-1"]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == \
                "error: alpha must be a non-negative number\n", argv

    def test_overflowing_radius_is_two(self, tmp_path, capsys):
        # refused by the size estimate with no numpy overflow warning,
        # which the test configuration turns into an error
        path = tmp_path / "sq.txt"
        path.write_text("dim 2\n1 0\n0 1\nmotif 1\n0 0\n", encoding="utf-8")
        for argv in (["isoset", str(path), "--alpha", "1e200"],
                     ["dcluster", str(path), str(path), "--points", "0", "0",
                      "--alpha", "1e300"],
                     ["density", str(path), "-k", "1", "--grid", "0:1e300:3"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: radius")

    def test_non_finite_grid_is_two(self, tmp_path, capsys):
        # refused as a grid before np.linspace, with no numpy warning, which
        # the test configuration turns into an error
        path = tmp_path / "sq.txt"
        path.write_text("dim 2\n1 0\n0 1\nmotif 1\n0 0\n", encoding="utf-8")
        for grid in ("0:inf:5", "-inf:0:3", "nan:1:3", "0:nan:3"):
            assert main(["density", str(path), "-k", "1", "--samples", "100",
                         f"--grid={grid}"]) == 2
            assert capsys.readouterr().err.startswith(
                "error: bad grid specification")

    def test_mixed_dimensions_are_two(self, tmp_path, capsys):
        one = write_1d(tmp_path / "one.txt", [0], 1)
        sq, cube = tmp_path / "sq.txt", tmp_path / "cube.txt"
        sq.write_text("dim 2\n1 0\n0 1\nmotif 1\n0 0\n", encoding="utf-8")
        cube.write_text("dim 3\n1 0 0\n0 1 0\n0 0 1\nmotif 1\n0 0 0\n",
                        encoding="utf-8")
        for argv, dims in ((["emd", one, str(sq)], "1 and 2"),
                           (["dcluster", str(sq), str(cube), "--points", "0", "0",
                             "--alpha", "2"], "2 and 3"),
                           (["batch", one, str(sq), "--mode", "emd"], "1 and 2")):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: clusters live in different dimensions: {dims}\n"

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

    def test_negative_density_k_is_two(self, tmp_path, capsys):
        path = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        for extra in ([], ["--samples", "10"]):  # exact and sampled mode
            assert main(["density", path, "-k", "-1", *extra]) == 2, extra
            err = capsys.readouterr().err
            assert err.startswith("error:") and "-k" in err, extra

    def test_density_output_bound_is_two(self, tmp_path, capsys):
        # refused by the count of numbers to print, before any psi is built
        # or any distance array allocated
        one = write_1d(tmp_path / "one.txt", [0], 1)
        square = tmp_path / "sq.txt"
        square.write_text("dim 2\n1 0\n0 1\nmotif 1\n0 0\n", encoding="utf-8")
        for argv, estimate in (
                (["density", one, "-k", "10000000"], "160000016 numbers"),
                (["density", str(square), "--samples", "100", "-k", "100000000"],
                 "6000000060 numbers")):
            start = time.perf_counter()
            assert main(argv) == 2, argv
            assert time.perf_counter() - start < 1.0, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and estimate in err and "limit" in err, err

    def test_bad_delta_is_two(self, tmp_path, capsys):
        path = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        for value in ("nan", "inf", "-inf", "-3"):
            assert main(["emd", path, path, f"--delta={value}"]) == 2, value
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--delta" in err, value
            assert value.lstrip("-") in err, value
        assert main(["emd", path, path, "--delta", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == 0.0

    def test_negative_delta_apart_is_two(self, tmp_path, capsys):
        # every float spelling with a leading minus is read as the value of
        # --delta, not as an option, and reaches the data-error check
        path = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        for value in ("-inf", "-Infinity", "-nan", "-1e5", "-1E+5", "-.5", "-3"):
            assert main(["emd", path, path, "--delta", value]) == 2, value
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--delta" in err, value
        # an unknown option is still a usage error
        assert main(["emd", path, path, "-x"]) == 1

    def test_retired_auto_engine_is_one(self, tmp_path, capsys):
        path = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        for argv in (["emd", path, path],
                     ["dcluster", path, path, "--points", "0", "0", "--alpha", "1"],
                     ["batch", path, path, "--mode", "emd"]):
            assert main([*argv, "--dr", "auto"]) == 1, argv[0]

    def test_success_is_zero(self, tmp_path, capsys):
        path = write_1d(tmp_path / "z.txt", [0], 1)
        assert main(["amd", path, "-k", "3"]) == 0

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the process builds one parser; a command with non-default
        # options, a usage error and a data error before a command leave
        # its output equal to a fresh parser's
        path = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        bad = tmp_path / "bad.txt"
        bad.write_text("dim 1\n1\nmotif 0\n", encoding="utf-8")
        build_parser.cache_clear()
        assert main(["amd", path, "-k", "3", "--format", "csv"]) == 0
        assert main(["amd", path, "-k"]) == 1
        assert main(["amd", str(bad), "-k", "4"]) == 2
        capsys.readouterr()
        assert main(["amd", path, "-k", "5"]) == 0
        reused = capsys.readouterr()
        assert build_parser() is build_parser()
        build_parser.cache_clear()
        assert main(["amd", path, "-k", "5"]) == 0
        assert capsys.readouterr() == reused
        assert json.loads(reused.out)["k"] == 5


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

    def test_density_far_k_is_a_shift(self, tmp_path, capsys):
        # psi_2000 of one point per period is psi_1 moved by 1999 half
        # periods, with no recursion in between
        path = write_1d(tmp_path / "one.txt", [0], 1)
        assert main(["density", path, "-k", "2000"]) == 0
        psi = json.loads(capsys.readouterr().out)["psi"]
        assert len(psi) == 2001
        far, near = np.array(psi[2000]["corners"]), np.array(psi[1]["corners"])
        assert far.shape == near.shape
        assert np.allclose(far - [999.5, 0.0], near, rtol=0.0, atol=1e-12)

    def test_json_written_in_a_few_batches(self, tmp_path, monkeypatch):
        # the encoder yields one chunk per token; they reach stdout joined,
        # as the bytes json.dumps(indent=2) gives
        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        path = write_1d(tmp_path / "one.txt", [0], 1)
        assert main(["density", path, "-k", "2000"]) == 0
        text = out.getvalue()
        doc = json.loads(text)
        assert len(doc["psi"]) == 2001 and out.writes <= 4
        assert text == json.dumps(doc, indent=2) + "\n"

    def test_density_exact_bytes_equal_per_k_payload(self, s32, tmp_path, capsys):
        # psi_0..psi_8 from one pass print the bytes of the payload built
        # one ramp sum per k, and the exact plot CSV holds those corners
        path = tmp_path / "s32.txt"
        path.write_text(write_set_text(s32))
        F = pg.DensityFingerprint1D.from_set(s32)
        psi = []
        for k in range(9):
            corners = psi_k_1d_per_k(F, k)
            original = corners.copy()
            original[:, 0] *= F.period
            psi.append({"k": k, "corners": corners.tolist(),
                        "corners_original_units": original.tolist()})
        payload = {"schema": 1, "command": "density", "file": str(path), "k": 8,
                   "mode": "exact", "period": F.period, "psi": psi}
        assert main(["density", str(path), "-k", "8"]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
        prefix = tmp_path / "plot"
        assert main(["density", str(path), "-k", "8", "--plot-csv", str(prefix)]) == 0
        assert len(json.loads(capsys.readouterr().out)["plot_csv"]) == 9
        rows = (tmp_path / "plot_k8.csv").read_text().splitlines()
        assert rows == [f"{t:.12g},{v:.12g}" for t, v in psi[8]["corners"]]

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

    def test_density_sampled_rows_equal_ball_counts(self, tmp_path, capsys):
        # one query serves every k: each k's rows are the ball-count
        # oracle's on the same samples and the CLI's default grid
        rng = np.random.default_rng(2020)
        for trial, n in enumerate((1, 2, 3, 2, 3)):
            path = tmp_path / f"s{trial}.txt"
            S = random_periodic_set(rng, n, int(rng.integers(1, 5)), skew=0.3)
            path.write_text(write_set_text(S), encoding="utf-8")
            assert main(["density", str(path), "--samples", "1200", "-k", "4",
                         "--seed", str(trial)]) == 0
            data = json.loads(capsys.readouterr().out)
            S = parse_set_file(path)
            grid = np.linspace(0.0, pg.common_stable_alpha(S) / 2.0, 20)
            assert [p["k"] for p in data["psi"]] == list(range(5))
            for k, p in enumerate(data["psi"]):
                oracle = psi_sampled_ball_counts(S, k, grid, 1200, seed=trial)
                assert p["estimates"] == [list(r) for r in oracle], (trial, k)

    def test_density_sampled_on_a_skewed_cell(self, tmp_path, capsys):
        # re-celled by [[1, 8, 0], [0, 1, 8], [0, 0, 1]] the cell is about 64
        # times longer than wide, and half its max{2b, d} is 8.06; the
        # cloud comes from the reduced cell, so a grid to t = 10 is answered
        # (not refused for 1.94e7 enumerated points), within 4 combined
        # standard errors of the original cell's estimates
        S = pg.PeriodicSet(pg.UnitCell(np.eye(3)),
                           np.random.default_rng(5).random((4, 3)))
        estimates = []
        for c in (0, 8):
            path = tmp_path / f"c{c}.txt"
            path.write_text(write_set_text(pg.change_cell(S, skew_unimodular(3, c))),
                            encoding="utf-8")
            assert main(["density", str(path), "--samples", "4000", "-k", "3",
                         "--grid", "0:10:81"]) == 0
            psi = json.loads(capsys.readouterr().out)["psi"]
            estimates.append(np.array([p["estimates"] for p in psi]))
        plain, skewed = estimates
        bound = 4 * np.hypot(plain[..., 2], skewed[..., 2]) + 1e-12
        assert np.all(np.abs(plain[..., 1] - skewed[..., 1]) <= bound)

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

    def test_emd_reports_the_engine_it_was_given(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        S = random_periodic_set(rng, 2, 2)
        paths = []
        for name, T in (("s.txt", S), ("q.txt", jitter_set(rng, S, 0.01)[0])):
            path = tmp_path / name
            path.write_text(write_set_text(T), encoding="utf-8")
            paths.append(str(path))
        assert main(["emd", *paths]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["engine"], data["factor_bound"]) == ("exact", 1.0)
        for delta in ("0.1", "0.5"):
            assert main(["emd", *paths, "--dr", "approx", "--delta", delta]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["engine"] == "approx"
            assert data["factor_bound"] == pytest.approx(2 * (1 + float(delta)))

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

    def test_emd_default_radius_ignores_the_cell(self, tmp_path, capsys):
        # the easy bound of the reduced cell: J written on a cell sheared
        # by skew_unimodular(2, 3) gets J's radius, and the exact 2D costs
        # agree within two certificates, 1e-9 max(1, alpha) each
        rng = np.random.default_rng(73)
        S = random_periodic_set(rng, 2, 3)
        J, _ = jitter_set(rng, S, 0.02)
        outs = []
        for Q in (J, pg.change_cell(J, skew_unimodular(2, 3))):
            paths = []
            for name, T in (("s.txt", S), ("q.txt", Q)):
                path = tmp_path / name
                path.write_text(write_set_text(T), encoding="utf-8")
                paths.append(str(path))
            assert main(["emd", *paths]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        plain, sheared = outs
        assert sheared["alpha"] == plain["alpha"]
        assert plain["cost"] > 0.0
        assert sheared["cost"] == pytest.approx(
            plain["cost"], rel=0.0, abs=2e-9 * max(1.0, plain["alpha"]))

    def test_pair_table_past_the_limit_is_two(self, tmp_path, capsys):
        # the two-point 3D set on a sheared cell, whose given-cell easy
        # bound 14.46 makes clusters of 25,547 points: their d_R pair
        # table (13 floats per pair, 63 GiB) is refused before allocation
        paths = [tmp_path / "pair.txt", tmp_path / "pair_recelled.txt"]
        paths[0].write_text("dim 3\n1 0.1 0\n0 1.1 0.2\n0.1 0 0.9\nmotif 2\n"
                            "0 0 0\n0.31 0.47 0.58\n", encoding="utf-8")
        paths[1].write_text("dim 3\n1.0 0.1 0.0\n7.0 1.8 0.2\n3.1 5.8 1.9\n"
                            "motif 2\n0.0 0.0 0.0\n0.58 0.57 0.58\n",
                            encoding="utf-8")
        paths = list(map(str, paths))
        assert main(["compare", *paths]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["isometric"] is True and data["alpha_used"] == pytest.approx(5 ** 0.5)
        assert main(["emd", *paths]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] <= 1e-9
        for argv in (["emd", *paths, "--alpha", "14.46"],
                     ["dcluster", *paths, "--points", "0", "0", "--alpha", "14.46"]):
            assert main(argv) == 2
            assert "d_R pairs, more than the limit" in capsys.readouterr().err

    def test_common_radius_of_any_number_of_sets(self, tmp_path, capsys):
        # the largest easy bound of the sets given, 0.0 of none; batch
        # --mode emd reads it, so the two-point 3D set, its re-celled copy
        # and a turned copy are priced at zero, as compare and emd find
        assert pg.common_stable_alpha() == 0.0
        sets = [random_periodic_set(np.random.default_rng(91 + i), 2 + i % 2, 2 + i)
                for i in range(3)]
        bounds = [_easy_bound(S) for S in sets]
        assert [pg.common_stable_alpha(S) for S in sets] == bounds
        assert pg.common_stable_alpha(*sets) == max(bounds)
        assert len(set(bounds)) == 3
        paths = [tmp_path / "pair.txt", tmp_path / "pair_recelled.txt",
                 tmp_path / "pair_turned.txt"]
        paths[0].write_text("dim 3\n1 0.1 0\n0 1.1 0.2\n0.1 0 0.9\nmotif 2\n"
                            "0 0 0\n0.31 0.47 0.58\n", encoding="utf-8")
        paths[1].write_text("dim 3\n1.0 0.1 0.0\n7.0 1.8 0.2\n3.1 5.8 1.9\n"
                            "motif 2\n0.0 0.0 0.0\n0.58 0.57 0.58\n",
                            encoding="utf-8")
        turn = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
        paths[2].write_text(write_set_text(pg.apply_isometry(
            parse_set_file(paths[0]), turn, [0.2, 0.1, 0.3])), encoding="utf-8")
        paths = list(map(str, paths))
        assert main(["batch", *paths, "--mode", "emd"]) == 0
        m = np.array(json.loads(capsys.readouterr().out)["matrix"])
        assert m.shape == (3, 3) and np.all(m <= 1e-9), m

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
        # the CSV rows are the same matrix, each entry written with .12g
        assert main([
            "batch", s15, q15, refl, "--mode", "amd", "-k", "4",
            "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "file," + ",".join(data["files"])
        for name, line, row in zip(data["files"], lines[1:], m):
            assert line == name + "," + ",".join(f"{v:.12g}" for v in row)
        assert len(lines) == 4

    def test_batch_amd_empty_and_one_file(self, tmp_path, capsys):
        path = write_1d(tmp_path / "a.txt", [0, 1, 3], 4)
        bad = tmp_path / "bad.txt"
        bad.write_text("not a set\n")
        names, matrix, failures = batch_compare([bad], "amd", k=3)
        assert names == [] and matrix.shape == (0, 0) and len(failures) == 1
        assert main(["batch", path, "--mode", "amd", "-k", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["matrix"] == [[0.0]]

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


class TestOneEnumeration:
    """Every command enumerates each set it parses once: callers read
    their largest radius first, and the stable scan reads isoset's margin
    at its bound, so that every later stack read is a prefix.  On the
    one-point lattices the stable radius is the easy bound itself."""

    @staticmethod
    def enumerations(monkeypatch, run):
        """core._enumerate calls made by run()."""
        calls = []
        enumerate_ = pg.core._enumerate

        def counting(*args):
            calls.append(1)
            return enumerate_(*args)

        with monkeypatch.context() as patch:
            patch.setattr(pg.core, "_enumerate", counting)
            run()
        return len(calls)

    def test_one_enumeration_per_parsed_set(self, tmp_path, capsys, monkeypatch):
        lattices = [pg.PeriodicSet(pg.UnitCell(basis), np.zeros((1, len(basis))))
                    for basis in (np.eye(3), np.eye(2),
                                  [[1.0, 0.0], [0.5, np.sqrt(3) / 2]])]
        rng = np.random.default_rng(95)
        randoms = [random_periodic_set(rng, n, m) for n in (2, 3) for m in range(2, 6)]
        paths = []
        for i, S in enumerate(lattices + randoms):
            path = tmp_path / f"s{i}.txt"
            path.write_text(write_set_text(S), encoding="utf-8")
            paths.append(str(path))

        def count(argv):
            def run():
                assert main(argv) == 0, argv
                capsys.readouterr()
            return self.enumerations(monkeypatch, run)

        for path in paths:
            assert count(["isoset", path, "--stable"]) == 1, path
        # the lattices, and a 2D and a 3D two-point set
        for path in paths[:4] + paths[7:8]:
            S = parse_set_file(path)
            alpha = repr(pg.easy_stable_radius(S))
            assert count(["isoset", path, "--alpha", alpha]) == 1, path
            # below the radius bridge_length reads for the beta field
            below = repr(0.5 * pg.bridge_length(S))
            assert count(["isoset", path, "--alpha", below]) == 1, path
            assert count(["isotree", path, "--alpha-max", alpha]) == 1, path
            # a file given twice is parsed twice
            assert count(["compare", path, path]) == 2, path
            assert count(["emd", path, path]) == 2, path
            assert count(["emd", path, path, "--alpha", alpha]) == 2, path
            assert self.enumerations(monkeypatch, lambda: pg.radius_report(
                parse_set_file(path))) == 1, path


class TestReCelledCopies:
    """A set and its copy re-celled by a unimodular U are one periodic set,
    and every default reads the reduced cell, so every command prints the
    same answers on both files: within 1e-12 where the answer is a float
    of the same cloud, the stable scan's radii within 1e-9, and sampled
    density bit for bit where the two reduced cells agree (else within 4
    combined standard errors: a reduced basis is unique up to row signs)."""

    @staticmethod
    def corpus(tmp_path):
        """(m, file of S, file of S re-celled by U): 60 sets in 1D-3D with
        m = 1..5, each U with entries in -3..3 (1-3 row operations)."""
        rng = np.random.default_rng(3636)
        for n in (1, 2, 3):
            for m in range(1, 6):
                for i in range(4):
                    S = random_periodic_set(rng, n, m)
                    U = np.array([[int(rng.choice([-1, 1]))]])
                    while n > 1:
                        U = random_unimodular(rng, n, int(rng.integers(1, 4)))
                        if np.abs(U).max() <= 3:
                            break
                    paths = [tmp_path / f"{n}_{m}_{i}{tag}.txt" for tag in ("", "_u")]
                    for path, T in zip(paths, (S, pg.change_cell(S, U))):
                        path.write_text(write_set_text(T), encoding="utf-8")
                    yield m, *map(str, paths)

    def test_every_command_prints_the_same_answers(self, tmp_path, capsys):
        def run(*argv):
            assert main(list(argv)) == 0, argv
            return json.loads(capsys.readouterr().out)

        def sampled(path):
            out = run("density", path, "-k", "3", "--samples", "600")
            return np.array([p["estimates"] for p in out["psi"]])

        differ = 0
        for m, s, t in self.corpus(tmp_path):
            a, b = (np.array(run("amd", p, "-k", "20")["per_point"]) for p in (s, t))
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=0, err_msg=t)
            a, b = (run("isoset", p, "--stable") for p in (s, t))
            assert b["alpha"] == pytest.approx(a["alpha"], rel=1e-9), t
            assert b["beta"] == pytest.approx(a["beta"], rel=1e-9), t
            assert b["regularity"] == a["regularity"], t
            assert (sorted((c["weight"], c["size"]) for c in b["classes"])
                    == sorted((c["weight"], c["size"]) for c in a["classes"])), t
            copy, own = run("compare", s, t), run("compare", s, s)
            assert copy["isometric"] is True, t
            assert copy["alpha_used"] == pytest.approx(own["alpha_used"], rel=1e-12), t
            a, b = sampled(s), sampled(t)
            np.testing.assert_allclose(b[..., 0], a[..., 0], rtol=1e-12, atol=0,
                                       err_msg=t)
            R, Q = (parse_set_file(p).reduced.cell.basis for p in (s, t))
            if np.abs(R - Q).max() <= 1e-12 * np.abs(R).max():
                assert np.array_equal(b[..., 1:], a[..., 1:]), t
            else:
                differ += 1
                bound = 4 * np.hypot(a[..., 2], b[..., 2]) + 1e-12
                assert np.all(np.abs(a[..., 1] - b[..., 1]) <= bound), t
            if m <= 2:
                assert 0.0 <= run("emd", s, t)["cost"] <= 1e-9, t
        # both branches ran: some reduced cells agree, some differ in row signs
        assert 0 < differ < 60
