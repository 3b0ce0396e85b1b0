"""Polygonal curves, datasets, and the geometric preprocessing helpers.

A curve is an ordered sequence of d-dimensional vertices, stored as a
float64 array of shape (m, d) and interpreted as the piecewise-linear
interpolation of its vertices. Datasets bundle curves of a shared
dimension with dense integer ids.

Two plain-text formats are supported:

- 1-D series: one curve per line, fields split on commas and/or
  whitespace runs, optionally with a leading class label to skip.
- 2-D trajectories: a list file naming one trajectory file per line;
  each trajectory file holds one "x y" pair per line, '#' lines ignored.
  A trajectory file is read whole and converted in one pass when it is
  nothing but plain "x y" lines of finite numbers; any other text goes
  through the per-line reader, so rows and error texts are the same
  either way.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Curve",
    "Dataset",
    "ParseError",
    "densify",
    "longest_edge",
    "parse_series_1d",
    "parse_trajectories_2d",
    "read_trajectory_2d",
    "simplify",
    "write_series_1d",
    "write_trajectories_2d",
]

_FIELD_SPLIT = re.compile(r"[,\s]+")


class ParseError(ValueError):
    """Raised when a dataset file cannot be parsed; names the offending location."""


def check_positive(name: str, x: float, allow_zero: bool = False) -> float:
    """Return x if it is finite and > 0 (>= 0 with allow_zero), else raise
    ValueError naming it. The comparisons are written so NaN fails them."""
    if not (0 <= x < math.inf if allow_zero else 0 < x < math.inf):
        raise ValueError(
            f"{name} must be finite and {'>=' if allow_zero else '>'} 0, got {x}")
    return x


@dataclass(frozen=True, eq=False)
class Curve:
    """An immutable polygonal curve: id plus an (m, d) vertex array.

    Consecutive duplicate vertices are allowed; they change neither the
    discrete nor the continuous Frechet distance. A curve compares and
    hashes by identity: two curves with the same id and vertices are
    distinct keys.
    """

    id: int
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"curve {self.id}: need a non-empty (m, d) vertex array")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"curve {self.id}: vertices must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def __len__(self) -> int:
        return self.vertices.shape[0]

    # The prepared view: what the verification cascade reads of a curve,
    # each part computed on its first use and kept. The curve is frozen, so
    # no part can be replaced; the float parts are tuples and the array
    # parts read-only, so none can be changed in place. Each value comes
    # from the same operations, in the same order, as the per-call code it
    # serves, so a verdict is the same whichever call prepared the curve.

    @cached_property
    def _points(self) -> tuple[tuple[float, ...], ...]:
        """The vertices as tuples of Python floats."""
        return tuple(map(tuple, self.vertices.tolist()))

    @cached_property
    def _edges(self) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
        """Per edge, its delta (end - start in each coordinate) and its
        squared length (the delta's squares added in coordinate order), as
        floats. numpy's elementwise -, * and + round as Python's do."""
        deltas = self.vertices[1:] - self.vertices[:-1]
        sq = deltas[:, 0] * deltas[:, 0]
        for u in range(1, self.dim):
            sq = sq + deltas[:, u] * deltas[:, u]
        return tuple(map(tuple, deltas.tolist())), tuple(sq.tolist())

    @cached_property
    def _corners(self) -> tuple[float, ...]:
        """The bounding box as floats: the coordinate-wise minima of the
        vertices, then their maxima."""
        return tuple(self.vertices.min(axis=0).tolist() + self.vertices.max(axis=0).tolist())


@dataclass(frozen=True)
class Dataset:
    """Curves sharing one dimension, with ids dense in [0, n), stored in id order."""

    curves: list[Curve]
    d: int = field(init=False)

    def __post_init__(self):
        if not self.curves:
            raise ValueError("dataset must contain at least one curve")
        curves = sorted(self.curves, key=lambda c: c.id)
        d = curves[0].dim
        for c in curves:
            if c.dim != d:
                raise ValueError(f"curve {c.id} has dimension {c.dim}, expected {d}")
        if [c.id for c in curves] != list(range(len(curves))):
            raise ValueError("curve ids must be unique and dense in [0, n)")
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return len(self.curves)

    @cached_property
    def max_edge(self) -> float:
        """The longest edge of any curve, computed on first use."""
        return max(longest_edge(c) for c in self.curves)

    def __iter__(self):
        return iter(self.curves)

    def __getitem__(self, curve_id: int) -> Curve:
        return self.curves[curve_id]


def _dist(a, b) -> float:
    """Euclidean distance of two points given as sequences of floats: the
    square root of the squared coordinate differences, added in coordinate
    order. Python floats round +, -, * and sqrt as numpy's elementwise
    ufuncs do, so array code that sums the same terms in the same order
    gets the same bits.

    Two coordinates take the loop's operations unrolled: a square is never
    -0.0, so t0 * t0 + t1 * t1 is the loop's (0.0 + t0 * t0) + t1 * t1."""
    if len(a) == 2:
        a0, a1 = a
        b0, b1 = b
        t0 = a0 - b0
        t1 = a1 - b1
        return math.sqrt(t0 * t0 + t1 * t1)
    s = 0.0
    for x, y in zip(a, b):
        t = x - y
        s += t * t
    return math.sqrt(s)


def _dists(diff: np.ndarray) -> np.ndarray:
    """Euclidean lengths of difference vectors along the last axis, each
    bit-identical to _dist: the squares are added column by column, in
    coordinate order (numpy's sum adds 8 or more terms pairwise)."""
    sq = diff[..., 0] * diff[..., 0]
    for u in range(1, diff.shape[-1]):
        sq += diff[..., u] * diff[..., u]
    return np.sqrt(sq)


def longest_edge(p: Curve) -> float:
    """Length of the longest edge; 0.0 for single-vertex curves."""
    if len(p) < 2:
        return 0.0
    return float(_dists(np.diff(p.vertices, axis=0)).max())


def simplify(p: Curve, mu: float) -> Curve:
    """Greedy radius-mu simplification of a curve.

    Marks the first vertex, then repeatedly scans forward to the first
    vertex farther than mu from the last marked one, marking it; the last
    vertex is always kept. The output vertices are a subsequence of the
    input, and the curve stays within Frechet distance mu of the original.
    With mu = 0 this drops consecutive duplicates (endpoints kept). When
    every vertex is kept the result is p itself.
    """
    check_positive("mu", mu, allow_zero=True)
    pts = p._points
    m = len(pts)
    kept = [0]
    cur = pts[0]
    for i in range(1, m):
        if _dist(pts[i], cur) > mu:
            kept.append(i)
            cur = pts[i]
    if kept[-1] != m - 1:
        kept.append(m - 1)
    if len(kept) == m:
        return p
    return Curve(p.id, p.vertices[kept])


# The most vertices densify makes of one curve (16 MB of 2-d vertices).
DENSIFY_MAX_VERTICES = 1_000_000


def densify(p: Curve, max_edge: float) -> Curve:
    """Subdivide every edge longer than max_edge into equal parts.

    The output traces the identical polyline (continuous Frechet distance
    zero to the input); only the vertex sampling changes. Raises
    ValueError, before allocating, when the output would have more than
    DENSIFY_MAX_VERTICES vertices.
    """
    check_positive("max_edge", max_edge)
    v = p.vertices
    if len(v) < 2:
        return p
    # An edge of length <= max_edge has a ratio <= 1 and stays whole; the
    # clamp keeps an overflowing ratio (inf) away from ceil.
    pts = v.tolist()
    nsegs = [max(1, math.ceil(min(_dist(b, a) / max_edge, DENSIFY_MAX_VERTICES)))
             for a, b in zip(pts[:-1], pts[1:])]
    total = 1 + sum(nsegs)
    if total > DENSIFY_MAX_VERTICES:
        raise ValueError(
            f"densify: curve {p.id} at max_edge {max_edge} would have {total} "
            f"vertices, more than {DENSIFY_MAX_VERTICES}")
    pieces = [v[:1]]
    for a, b, nseg in zip(v[:-1], v[1:], nsegs):
        ts = np.linspace(0.0, 1.0, nseg + 1)[1:] if nseg > 1 else np.array([1.0])
        pieces.append(a + ts[:, None] * (b - a))
    return Curve(p.id, np.concatenate(pieces, axis=0))


@contextmanager
def _open_text(path: str | Path, newline: str | None = None):
    """Open a UTF-8 text file for reading. A byte that does not decode,
    met anywhere in the block, raises ParseError naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{Path(path)}: not UTF-8 text ({exc.reason})") from exc


def _fields(raw: str) -> list[str]:
    """A line's fields, split on commas and/or whitespace runs; [] for a
    blank line. str.split is the fast path for comma-free lines and splits
    on exactly the whitespace that the pattern's \\s matches."""
    return _FIELD_SPLIT.split(raw.strip()) if "," in raw else raw.split()


def _parse_floats(fields: list[str], path: str | Path, lineno: int) -> list[float]:
    """The fields of one line as finite floats. The first bad field raises
    ParseError naming path:line:column; the location is formatted only then."""
    values: list[float] = []
    for tok in fields:
        try:
            x = float(tok)
        except ValueError:
            problem = "non-numeric field"
            break
        if not math.isfinite(x):
            problem = "non-finite value"
            break
        values.append(x)
    else:
        return values
    raise ParseError(f"{Path(path)}:{lineno}:{len(values) + 1}: {problem} {tok!r}")


def parse_series_1d(path: str | Path, skip_first_field: bool = False) -> Dataset:
    """Load a 1-D series file: one curve per line, comma/whitespace fields.

    Args:
        path: text file, one curve per line.
        skip_first_field: discard the first field of each line (class label).

    Raises:
        ParseError: non-numeric or non-finite field, or a line left empty
            after the label is skipped, or a file that is not UTF-8 text;
            the message names the file, and line and column where they
            apply.
    """
    path = Path(path)
    curves: list[Curve] = []
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = _fields(raw)
            if not fields:
                continue
            if skip_first_field:
                fields = fields[1:]
                if not fields:
                    raise ParseError(f"{path}:{lineno}: empty curve after label skip")
            values = _parse_floats(fields, path, lineno)
            curves.append(Curve(len(curves), np.array(values, dtype=np.float64)))
    if not curves:
        raise ParseError(f"{path}: no curves found")
    return Dataset(curves)


def _plain_pairs(text: str) -> np.ndarray | None:
    """The (m, 2) vertices of a text of m lines that each hold two finite
    numbers and nothing else; None for any other text.

    Each line end becomes a ';' token. float() rejects ';', and any field
    holding '#' or ',', so when the split holds 3 m tokens and float()
    accepts all but every third, the dropped tokens are the m line ends
    and each line held two fields. str.split parts the whole text on the
    same whitespace as the per-line reader's comma-free lines, and the
    values are float()'s, as that reader's are.
    """
    if not text:
        return None
    if text[-1] != "\n":
        text += "\n"
    m = text.count("\n")
    tokens = text.replace("\n", " ; ").split()
    if len(tokens) != 3 * m:
        return None
    del tokens[2::3]
    try:
        v = np.fromiter(map(float, tokens), np.float64, 2 * m)
    except ValueError:
        return None
    if not np.isfinite(v).all():
        return None
    return v.reshape(m, 2)


def read_trajectory_2d(path: str | Path, cid: int) -> Curve:
    """Load one trajectory file: an "x y" pair per line, '#' lines ignored.

    The file is read whole. Unless it is plain "x y" lines of finite
    numbers (see _plain_pairs), it is read again line by line, which gives
    identical rows and reports the first fault it meets, so every error
    text is the same as if the file were only ever read by lines.

    Raises:
        ParseError: malformed or non-finite coordinate pair, an empty
            trajectory, or a file that is not UTF-8 text; the message names
            the offending file/line, as the Path of `path` prints it
            (formatted only then).
    """
    rows: list[list[float]] = []
    with _open_text(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            # The per-line reader decodes in blocks and may meet a bad
            # field before the bad byte; it decides which error wins.
            text = ""
        vertices = _plain_pairs(text)
        if vertices is not None:
            return Curve(cid, vertices)
        fh.seek(0)
        for lineno, raw in enumerate(fh, start=1):
            fields = _fields(raw)
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != 2:
                raise ParseError(
                    f"{Path(path)}:{lineno}: expected 'x y' pair, got {len(fields)} fields"
                )
            rows.append(_parse_floats(fields, path, lineno))
    if not rows:
        raise ParseError(f"{Path(path)}: empty trajectory")
    return Curve(cid, np.array(rows, dtype=np.float64))


def parse_trajectories_2d(list_path: str | Path) -> Dataset:
    """Load 2-D trajectories named by a list file, one path per line.

    Relative trajectory paths are resolved against the list file's
    directory (one string join per entry; an absolute entry stands as
    is); each file is read by read_trajectory_2d.

    Raises:
        ParseError: missing file, malformed coordinate pair, an empty
            trajectory, or a file that is not UTF-8 text; the message
            names the offending file/line, paths printed as pathlib
            prints them.
    """
    base = os.path.dirname(list_path)
    curves: list[Curve] = []
    with _open_text(list_path) as fh:
        entries = [ln.strip() for ln in fh if ln.strip()]
    if not entries:
        raise ParseError(f"{Path(list_path)}: no trajectory files listed")
    for entry in entries:
        tpath = os.path.join(base, entry)
        # A guard, not a redundant stat: open() of a FIFO blocks until a
        # writer appears, and a directory fails with an OSError, not ParseError.
        if not os.path.isfile(tpath):
            raise ParseError(f"{Path(list_path)}: trajectory file not found: {Path(tpath)}")
        curves.append(read_trajectory_2d(tpath, len(curves)))
    return Dataset(curves)


def write_series_1d(dataset: Dataset, path: str | Path) -> None:
    """Write a 1-D dataset in the series format; values round-trip exactly."""
    if dataset.d != 1:
        raise ValueError("series format holds 1-D curves only")
    with Path(path).open("w", encoding="utf-8") as fh:
        for c in dataset:
            fh.write(",".join(repr(float(x)) for x in c.vertices[:, 0]))
            fh.write("\n")


def write_trajectories_2d(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write a 2-D dataset as per-curve trajectory files plus the list file files.txt."""
    if dataset.d != 2:
        raise ValueError("trajectory format holds 2-D curves only")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for c in dataset:
        name = f"curve_{c.id:05d}.txt"
        with (out_dir / name).open("w", encoding="utf-8") as fh:
            for x, y in c.vertices:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
        names.append(name)
    list_path = out_dir / "files.txt"
    list_path.write_text("".join(n + "\n" for n in names), encoding="utf-8")
    return list_path
