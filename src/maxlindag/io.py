"""File formats: JSON model files, CSV matrices, DOT export.

Floats are serialized with 17 significant digits, so a write-then-read
round trip is lossless.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .graph import Dag
from .mlcm import WeightedModel


def dumps_model(model: WeightedModel) -> str:
    """Serialize a model as a JSON key/value tree."""
    payload = {
        "alpha": model.alpha,
        "d": model.d,
        "noise_scales": list(model.noise_scales),
        "edges": [[k, i, c] for (k, i), c in sorted(model.edge_weights.items())],
    }
    return json.dumps(payload, indent=2) + "\n"


def write_model(model: WeightedModel, path: str | Path) -> None:
    Path(path).write_text(dumps_model(model))


def _json_value(value, kind: type | tuple[type, ...], what: str):
    # ``value`` if it has the JSON type ``kind``, uncoerced; JSON booleans
    # load as Python ints but are neither nodes nor numbers.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"model file: {what} has the wrong type: {value!r}")
    return value


def loads_model(text: str) -> WeightedModel:
    """Parse a model file; any structural problem raises :class:`FormatError`.

    ``d`` and the nodes must be JSON integers and the weights numbers, and
    each edge a ``[k, i, c_ki]`` array listed once; nothing is coerced.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("model file must contain a JSON object")
    missing = {"alpha", "d", "noise_scales", "edges"} - set(payload)
    if missing:
        raise FormatError(f"model file is missing keys: {sorted(missing)}")
    d = _json_value(payload["d"], int, "d")
    alpha = _json_value(payload["alpha"], (int, float), "alpha")
    scales = [_json_value(c, (int, float), "a noise scale")
              for c in _json_value(payload["noise_scales"], list, "noise_scales")]
    edges = {}
    for entry in _json_value(payload["edges"], list, "edges"):
        if not isinstance(entry, list) or len(entry) != 3:
            raise FormatError(f"model file: an edge must be a [k, i, c_ki] array, got {entry!r}")
        k, i, c = entry
        edge = (_json_value(k, int, "an edge node"), _json_value(i, int, "an edge node"))
        if edge in edges:
            raise FormatError(f"model file lists edge {k}->{i} twice")
        edges[edge] = _json_value(c, (int, float), f"the weight of edge {k}->{i}")
    try:
        dag = Dag(d, set(edges))
        return WeightedModel(dag, edges, scales, alpha)
    except ValidationError as exc:
        raise FormatError(f"model file does not describe a valid model: {exc}") from exc


def read_model(path: str | Path) -> WeightedModel:
    return loads_model(Path(path).read_text())


def _csv_lines(matrix: np.ndarray) -> Iterator[str]:
    # The CSV lines of a matrix, 17 significant digits, converted one row at
    # a time; the shape is checked before the first line is asked for.
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise FormatError(f"expected a 2-d matrix, got shape {matrix.shape}")
    if not len(matrix):
        return iter(["\n"])
    line = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return (line % tuple(row.tolist()) for row in matrix)


def dumps_matrix(matrix: np.ndarray) -> str:
    """Serialize a matrix as plain CSV, row-major."""
    return "".join(_csv_lines(matrix))


def write_matrix(matrix: np.ndarray, path: str | Path) -> None:
    """Write the text of :func:`dumps_matrix` row by row, never all of it at once."""
    lines = _csv_lines(matrix)
    with open(path, "w") as fh:
        fh.writelines(lines)


def loads_matrix(text: str) -> np.ndarray:
    """Parse a CSV matrix; ragged rows or non-numeric cells raise :class:`FormatError`."""
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise FormatError(f"matrix line {lineno} has a non-numeric cell: {exc}") from exc
    if not rows:
        raise FormatError("matrix file is empty")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise FormatError(
                f"matrix row {lineno} has {len(row)} cells, expected {width}"
            )
    return np.asarray(rows, dtype=float)


def read_matrix(path: str | Path) -> np.ndarray:
    return loads_matrix(Path(path).read_text())


def model_to_dot(model: WeightedModel) -> str:
    """DOT description of the model's DAG, edges labeled with their weights."""
    lines = ["digraph model {"]
    for i in range(1, model.d + 1):
        lines.append(f"  {i};")
    for (k, i), c in sorted(model.edge_weights.items()):
        lines.append(f'  {k} -> {i} [label="{c:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

