"""Reading and writing the periodic-set text and JSON formats.

Text format::

    dim 2
    10 0
    0 10
    motif 4
    0.2 0.2 A
    ...

Each motif line holds n fractional coordinates and an optional trailing
label token.  The JSON equivalent uses keys "dim", "basis", "motif" and
"labels".
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import DataError, PeriodicSet, UnitCell


class ParseError(ValueError):
    """Malformed set file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int = 0, path: str = ""):
        self.line = line
        self.path = path
        where = f"{path or '<input>'}:{line}: " if line else f"{path or '<input>'}: "
        super().__init__(where + message)


def parse_set_text(text: str, path: str = "") -> PeriodicSet:
    lines = text.splitlines()
    tokens = [
        (i + 1, ln.split()) for i, ln in enumerate(lines)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of file, expected {what}",
                             len(lines), path)
        lineno, toks = tokens[pos]
        pos += 1
        return lineno, toks

    lineno, toks = take("'dim n'")
    if len(toks) != 2 or toks[0] != "dim":
        raise ParseError("expected header 'dim n'", lineno, path)
    try:
        dim = int(toks[1])
    except ValueError:
        raise ParseError(f"dimension is not an integer: {toks[1]!r}", lineno, path)
    if not 1 <= dim <= 3:
        raise ParseError(f"dimension {dim} not supported (only n = 1, 2, 3)",
                         lineno, path)

    basis = []
    for _ in range(dim):
        lineno, toks = take("a basis vector")
        if len(toks) != dim:
            raise ParseError(f"basis vector needs {dim} coordinates", lineno, path)
        try:
            basis.append([float(t) for t in toks])
        except ValueError:
            raise ParseError("basis coordinates must be numbers", lineno, path)

    lineno, toks = take("'motif m'")
    if len(toks) != 2 or toks[0] != "motif":
        raise ParseError("expected header 'motif m'", lineno, path)
    try:
        m = int(toks[1])
    except ValueError:
        raise ParseError(f"motif size is not an integer: {toks[1]!r}", lineno, path)
    if m < 1:
        raise ParseError("motif must contain at least one point", lineno, path)

    motif, labels, any_label = [], [], False
    for _ in range(m):
        lineno, toks = take("a motif point")
        if len(toks) not in (dim, dim + 1):
            raise ParseError(
                f"motif point needs {dim} coordinates plus an optional label",
                lineno, path)
        try:
            coords = [float(t) for t in toks[:dim]]
        except ValueError:
            raise ParseError("fractional coordinates must be numbers", lineno, path)
        for c in coords:
            if not 0.0 <= c < 1.0:
                raise ParseError(
                    f"fractional coordinate {c} outside [0, 1)", lineno, path)
        motif.append(coords)
        if len(toks) == dim + 1:
            labels.append(toks[dim])
            any_label = True
        else:
            labels.append("")
    if pos != len(tokens):
        raise ParseError("trailing content after motif", tokens[pos][0], path)

    try:
        return PeriodicSet(
            UnitCell(np.array(basis)),
            np.array(motif),
            tuple(labels) if any_label else None,
        )
    except DataError as exc:
        raise ParseError(str(exc), 0, path)


def parse_set_json(text: str, path: str = "") -> PeriodicSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, path)
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object", 0, path)
    for key in ("dim", "basis", "motif"):
        if key not in data:
            raise ParseError(f"missing key {key!r}", 0, path)
    dim = data["dim"]
    if type(dim) is not int:  # a JSON true would pass isinstance(dim, int)
        raise ParseError(f"dim must be an integer, got {dim!r}", 0, path)
    if not 1 <= dim <= 3:
        raise ParseError(f"dimension {dim} not supported (only n = 1, 2, 3)", 0, path)
    try:
        basis = np.asarray(data["basis"], dtype=float)
        motif = np.atleast_2d(np.asarray(data["motif"], dtype=float))
    except (TypeError, ValueError):
        raise ParseError("basis and motif must be arrays of numbers", 0, path)
    if basis.shape != (dim, dim):
        raise ParseError(f"basis must be a {dim}x{dim} matrix", 0, path)
    if motif.shape[0] < 1:
        raise ParseError("motif must contain at least one point", 0, path)
    if motif.ndim != 2 or motif.shape[1] != dim:
        raise ParseError(f"motif points need {dim} coordinates", 0, path)
    if not np.all((motif >= 0.0) & (motif < 1.0)):
        raise ParseError("fractional coordinate outside [0, 1)", 0, path)
    labels = data.get("labels")
    if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise ParseError("labels must be a list of strings", 0, path)
    try:
        return PeriodicSet(UnitCell(basis), motif,
                           tuple(labels) if labels else None)
    except DataError as exc:
        raise ParseError(str(exc), 0, path)


def parse_set_file(path) -> PeriodicSet:
    """Validated PeriodicSet from a text or JSON set file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        return parse_set_json(text, str(path))
    return parse_set_text(text, str(path))


def write_set_text(S: PeriodicSet) -> str:
    """Text form of S; every float is written as its repr, so parsing the
    text gives the same set bit for bit.  A label must read back as one
    token (an empty one leaves its point unlabeled), else ValueError."""
    lines = [f"dim {S.dim}"]
    for row in S.cell.basis.tolist():
        lines.append(" ".join(map(repr, row)))
    lines.append(f"motif {S.m}")
    for i, row in enumerate(S.motif.tolist()):
        line = " ".join(map(repr, row))
        label = S.labels[i] if S.labels is not None else ""
        if label:
            label = str(label)
            if label.split() != [label]:
                raise ValueError(f"motif point {i}: label {label!r} is not "
                                 "one whitespace-free token")
            line += " " + label
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_set_json(S: PeriodicSet) -> str:
    """JSON form of S, bit for bit like write_set_text."""
    data = {
        "schema": 1,
        "dim": S.dim,
        "basis": S.cell.basis.tolist(),
        "motif": S.motif.tolist(),
    }
    if S.labels is not None:
        data["labels"] = list(S.labels)
    return json.dumps(data, indent=2) + "\n"
