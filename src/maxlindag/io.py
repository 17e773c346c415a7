"""File formats: JSON model files, CSV matrices, DOT export.

Floats are serialized with 17 significant digits, so a write-then-read
round trip is lossless.  A CSV matrix is, byte for byte, each value as
Python's ``"%.17g" % v``, joined by ``,`` and ended by a newline per row.
The text is made in row blocks of about ``_CELLS`` values by whole-array
numpy arithmetic that is exact (see the kernel's comment), and
:func:`write_matrix` writes it block by block, so the text of a matrix is
never held whole.  Only NaN, infinities and values of magnitude at most
1e-6 (subnormals included) or at least 1e17 are formatted by Python, one
value at a time.
"""
from __future__ import annotations

import functools
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


# The CSV kernel.  Every value is written as Python's ``"%.17g" % v``, with
# whole-array numpy operations on a row block of about _CELLS values, and the
# vector path is exact.  For a finite x with 1e-6 < |x| < 1e17 let k be the
# exponent of |x| (10**k <= |x| < 10**(k+1), so -6 <= k <= 16) and q = 16 - k
# in 0..22; 10**q is then an exact double, so Veltkamp's split and Dekker's
# TwoProduct (Numer. Math. 18, 1971) give |x| * 10**q exactly as hi + lo.
# k is guessed by log10, which can miss by one next to a power of ten (log10
# of 99999999999999984.0 reads 17.0), and corrected by exact tests of hi + lo
# against 1e16 and 1e17: hi is the rounded product, and neither bound is a
# power of two, so hi + lo < C exactly when hi < C, or hi == C and lo < 0.
# Then hi >= 1e16 > 2**53 is an even integer, so D = hi + rint(lo) rounds the
# exact product half to even, as Python's dtoa does: D is the 17-digit
# significand.  A D that rounds up to 1e17 is 1e16 at exponent k + 1.  The
# digits are laid out as %g does: fixed for k in -4..16, d.ddde-0k for
# k in -6..-5, trailing zeros and a bare '.' stripped; +-0 takes the same
# path.  Only the other values (NaN, +-inf, |x| <= 1e-6, subnormals included,
# and |x| >= 1e17) are formatted by Python, one at a time.
_CELLS = 3072
_LOWEST, _HIGHEST = 1e-6, 1e17  # the vector path's open range of |x|
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant for float64


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Veltkamp: x == hi + lo exactly, each half with at most 26 significant bits.
    t = _SPLIT * x
    hi = t - (t - x)
    return hi, x - hi


_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10**0 .. 10**22, each exact
_POW10_HI, _POW10_LO = _halves(_POW10)

# A cell is six uint64 words, _WIDTH bytes, and a byte 0 is dropped from
# the text:
#   0 sign, 1-5 the "0.000" of k in -4..-1, 6 + 2j digit j (j = 0..16) with
#   the '.' in one of the bytes 7 + 2j after it, 40-43 "e-0k", 44 separator.
# A template per k holds the fixed bytes.  The digits are or-ed in, one word
# each from the lead digit and the four 4-digit chunks after it, and the
# bytes from the first dropped digit (or a bare '.') to byte 39 are cleared.
_WIDTH = 48
_SEP = 44
_LEAD = 10_000  # spread[_LEAD + j] holds the lead digit j; spread[_BLANK] is 0
_BLANK = _LEAD + 10


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    # Built on the first write, with numpy arithmetic:
    #   templates (23, 6) uint64, the fixed bytes of exponent k in row k + 6;
    #   spread, the 4 digits of 0..9999 in the bytes 0, 2, 4, 6 of a uint64;
    #   trailing, the trailing zeros of 0..9999 written with 4 digits;
    #   cuts (41, 6) uint64, row c keeps the bytes 0..c-1 and 40..47.
    k = np.arange(-6, 17)[:, None]
    b = np.arange(_WIDTH)
    short = (k >= -4) & (k < 0)
    long = k < -4
    dot = np.where(k >= 0, 7 + 2 * k, np.where(short, 2, 7))
    templates = np.select(
        [b == _SEP, b == dot, short & (b >= 1) & (b <= 1 - k),
         long & (b == 40), long & (b == 41), long & (b == 42), long & (b == 43)],
        [ord(","), ord("."), ord("0"), ord("e"), ord("-"), ord("0"), ord("0") - k],
    ).astype(np.uint8)
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # row v: the digits of v
    spread = np.zeros((_BLANK + 1, 8), np.uint8)
    spread[:_LEAD, ::2] = digits + ord("0")
    spread[_LEAD:_BLANK, 6] = np.arange(10) + ord("0")
    trailing = (digits[:, ::-1] == 0).cumprod(axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
    cuts = ((b < np.arange(41)[:, None]) | (b >= 40)).astype(np.uint8) * np.uint8(255)
    return templates.view(np.uint64), spread.view(np.uint64).ravel(), trailing, cuts.view(np.uint64)


def _product(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Dekker's TwoProduct: a * 10**q == hi + lo exactly, hi the rounded product.
    hi = a * _POW10[q]
    ah, al = _halves(a)
    ph, pl = _POW10_HI[q], _POW10_LO[q]
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _below(hi: np.ndarray, lo: np.ndarray, bound: float) -> np.ndarray:
    # hi + lo < bound, exactly, for hi the rounded sum and bound no power of two.
    return (hi < bound) | ((hi == bound) & (lo < 0))


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The 17-digit significand D, 1e16 <= D < 1e17, and the exponent k of each
    # 1e-6 < a < 1e17: a rounds to D * 10**(k - 16).
    q = np.clip(16 - np.floor(np.log10(a)), 0, 22).astype(np.intp)
    hi, lo = _product(a, q)
    low, high = _below(hi, lo, 1e16), ~_below(hi, lo, 1e17)
    if (fix := np.flatnonzero(low | high)).size:
        q[fix] += low[fix].astype(np.intp) - high[fix]
        hi[fix], lo[fix] = _product(a[fix], q[fix])
    significand = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = significand == 10**17
    significand[carry] = 10**16
    return significand, 16 - q + carry


def _cells(significand: np.ndarray, k: np.ndarray) -> np.ndarray:
    # One cell per value, without its sign, as %g lays out D * 10**(k - 16).
    templates, spread, trailing, cuts = _tables()
    words = np.empty((len(k), 6), np.int64)  # an index into spread per word
    rest = significand
    for j, unit in enumerate((10**16, 10**12, 10**8, 10**4)):
        digits = rest // unit
        words[:, j], rest = digits, rest - digits * unit
    words[:, 0] += _LEAD
    words[:, 4], words[:, 5] = rest, _BLANK
    t1, t2, t3, t4 = np.take(trailing, words[:, 1:5].T)
    kept = 17 - (t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1)))
    whole = np.where(k < -4, 1, k + 1)  # the digits before the point
    kept = np.maximum(kept, whole)
    cells = np.take(templates, k + 6, axis=0)
    cells |= np.take(spread, words)
    cells &= np.take(cuts, 6 + 2 * kept - (kept == whole), axis=0)
    return cells.view(np.uint8)


def _csv_block(block: np.ndarray) -> bytes:
    # The CSV text of a row block, one line per row.
    x = block.ravel()
    a = np.abs(x)
    vector = (a > _LOWEST) & (a < _HIGHEST)
    a[~vector] = 1.0  # a stand-in, so no value warns; rewritten below
    cells = _cells(*_significands(a))
    cells[:, 0] = ord("-") * np.signbit(x)
    cells[x == 0, 6] = ord("0")
    cells.reshape(block.shape + (_WIDTH,))[:, -1, _SEP] = ord("\n")
    if (other := np.flatnonzero(~vector & (x != 0))).size:
        text = "".join(("%.17g" % v).ljust(_SEP, "\0") for v in x[other].tolist())
        cells[other, :_SEP] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SEP)
    return cells.tobytes().translate(None, b"\0")


def _csv_blocks(matrix: np.ndarray) -> Iterator[bytes]:
    # The CSV bytes of a matrix in row blocks of about _CELLS values; the
    # shape is checked before the first block is asked for.
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise FormatError(f"expected a 2-d matrix, got shape {matrix.shape}")
    n, d = matrix.shape
    if not n or not d:
        return iter([b"\n" * max(n, 1)])
    rows = max(1, _CELLS // d)
    return (_csv_block(matrix[start:start + rows]) for start in range(0, n, rows))


def dumps_matrix(matrix: np.ndarray) -> str:
    """Serialize a matrix as plain CSV, row-major, each value as ``"%.17g" % v``."""
    return b"".join(_csv_blocks(matrix)).decode("ascii")


def write_matrix(matrix: np.ndarray, path: str | Path) -> None:
    """Write the text of :func:`dumps_matrix` in row blocks, never all of it at once."""
    blocks = _csv_blocks(matrix)
    with open(path, "wb") as fh:
        fh.writelines(blocks)


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

