"""Finite ground spaces, discrete probability measures, and datasets.

A ground space is an explicit list of points in R^d together with the
exponent of the transport cost ``d(x, y)^p``; it is the one source of
that exponent and of the cost matrix.  Grids additionally carry
their shape so that spatial finite differences of functions defined on
the points are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import AllZero, CertificateViolation, NegativeEntry

# Constructors accept unit-mass errors up to this and renormalize; beyond
# it the input is considered bad data.
_RENORM_TOL = 1e-9
_MASS_TOL = 1e-12


def metric_order(p) -> float:
    """``p`` as a float if it is a metric order of a transport cost
    ``d(x, y)^p``: finite and above 1.

    Raises
    ------
    ValueError
        Otherwise, NaN and a non-number included.
    """
    try:
        value = float(p)
    except (TypeError, ValueError):  # not a number: [2], None, "x"
        value = np.nan
    if not 1.0 < value < np.inf:
        raise ValueError(f"metric order p must be finite and exceed 1, got {p}")
    return value


class GroundSpace:
    """Finite set of points in R^d with Euclidean distances.

    Parameters
    ----------
    points : (m, d) array_like
        Pairwise distinct coordinate vectors.
    p : float, optional
        Metric order of the transport cost ``d(x, y)^p``; must be finite
        and exceed 1.  Default 2.
    grid_shape : tuple of int, optional
        Present when the points form a regular unit-spacing grid, listed
        row-major.  Required by operations that take spatial gradients.
    """

    def __init__(self, points, p: float = 2.0, grid_shape: Optional[tuple] = None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2:
            raise ValueError("points must be a (m, d) array")
        p = metric_order(p)
        if grid_shape is not None:
            grid_shape = tuple(int(s) for s in grid_shape)
            if int(np.prod(grid_shape)) != pts.shape[0]:
                raise ValueError("grid shape does not match the number of points")
            if len(grid_shape) != pts.shape[1]:
                raise ValueError("grid shape rank does not match point dimension")
            expected = np.array(list(np.ndindex(*grid_shape)), dtype=float)
            if not np.array_equal(expected, pts):
                raise ValueError("grid points must enumerate the grid row-major")
        # pairwise distinct
        if len(np.unique(pts, axis=0)) != pts.shape[0]:
            raise ValueError("ground points must be pairwise distinct")
        self.points = pts
        self.points.setflags(write=False)
        self.p = p
        self.grid_shape = grid_shape
        self._cost: Optional[np.ndarray] = None

    @classmethod
    def grid(cls, shape: Sequence[int], p: float = 2.0) -> "GroundSpace":
        """Regular unit-spacing grid of the given shape, row-major."""
        shape = tuple(int(s) for s in shape)
        pts = np.array(list(np.ndindex(*shape)), dtype=float)
        return cls(pts, p=p, grid_shape=shape)

    @classmethod
    def line(cls, coords, p: float = 2.0) -> "GroundSpace":
        """One-dimensional ground space from a coordinate list."""
        pts = np.asarray(coords, dtype=float).reshape(-1, 1)
        return cls(pts, p=p)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def cost_matrix(self) -> np.ndarray:
        """Transport cost matrix ``d(x, y)^p``, read-only and computed once.

        It is taken from the exact squared distances as ``sq ** (p / 2)``,
        so on a unit grid with ``p = 2`` every entry is an integer.
        """
        if self._cost is None:
            diff = self.points[:, None, :] - self.points[None, :, :]
            self._cost = np.einsum("ijk,ijk->ij", diff, diff) ** (self.p / 2.0)
            self._cost.setflags(write=False)
        return self._cost

    def same_as(self, other: "GroundSpace") -> bool:
        return self is other or (
            self.p == other.p and np.array_equal(self.points, other.points)
        )

    def __repr__(self):
        tag = f", grid={self.grid_shape}" if self.grid_shape else ""
        return f"GroundSpace(m={self.size}, d={self.dim}, p={self.p}{tag})"


def ensure_same_ground(a: GroundSpace, b: GroundSpace) -> None:
    if not a.same_as(b):
        raise ValueError("operands live on different ground spaces")


class DiscreteMeasure:
    """Probability measure on a finite ground space.

    Weights must be finite, nonnegative and sum to 1 within 1e-12; sums
    off by at most 1e-9 are silently renormalized (float ingestion noise),
    anything worse raises.
    """

    def __init__(self, ground: GroundSpace, weights):
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != ground.size:
            raise ValueError("weight vector length does not match the ground space")
        if not np.isfinite(w).all():
            raise ValueError("measure weights must be finite")
        if np.any(w < -_MASS_TOL):
            raise NegativeEntry("measure weights must be nonnegative")
        w = np.where(w < 0.0, 0.0, w)
        s = float(w.sum())
        if abs(s - 1.0) > _RENORM_TOL:
            raise ValueError(f"weights sum to {s}, not a probability vector")
        if abs(s - 1.0) > _MASS_TOL:
            w = w / s
        self.ground = ground
        self.weights = w
        self.weights.setflags(write=False)
        if not abs(self.weights.sum() - 1.0) <= _MASS_TOL:
            raise CertificateViolation(f"renormalized weights sum to {self.weights.sum()!r}")

    @classmethod
    def dirac(cls, ground: GroundSpace, index: int) -> "DiscreteMeasure":
        w = np.zeros(ground.size)
        w[index] = 1.0
        return cls(ground, w)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    def __repr__(self):
        return f"DiscreteMeasure(m={self.ground.size}, support={len(self.support)})"


def normalize_to_measure(ground: GroundSpace, raw) -> DiscreteMeasure:
    """Scale a nonnegative vector to unit mass.

    Raises
    ------
    ValueError
        If any entry is not finite.
    NegativeEntry
        If any entry is negative.
    AllZero
        If the vector sums to zero.
    """
    r = np.asarray(raw, dtype=float).reshape(-1)
    if not np.isfinite(r).all():
        raise ValueError("raw vector has a non-finite entry")
    if np.any(r < 0.0):
        raise NegativeEntry("raw vector has a negative entry")
    s = float(r.sum())
    if s == 0.0:
        raise AllZero("raw vector sums to zero")
    return DiscreteMeasure(ground, r / s)


def relative_errors(true, approx) -> np.ndarray:
    """Per-sample ``|true - approx| / true``.

    The error is undefined where the target is 0 (the reference measure
    itself), and reads NaN there whatever the gap; means and maxima are
    taken over the defined entries.
    """
    true = np.asarray(true, dtype=float)
    gap = np.abs(true - np.asarray(approx, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(true != 0.0, gap / true, np.nan)


@dataclass
class MeasureDataset:
    """Train/test collections of measures on a shared ground space."""

    ground: GroundSpace
    train: list
    test: list
    train_labels: Optional[np.ndarray] = None
    test_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        for mu in list(self.train) + list(self.test):
            ensure_same_ground(self.ground, mu.ground)

    def _stack(self, measures) -> np.ndarray:
        """Stacked weights, shape (n, m), also for n = 0."""
        return np.array([mu.weights for mu in measures]).reshape(len(measures), self.ground.size)

    @cached_property
    def train_matrix(self) -> np.ndarray:
        """Stacked train weights, shape (n_train, m)."""
        return self._stack(self.train)

    @cached_property
    def test_matrix(self) -> np.ndarray:
        """Stacked test weights, shape (n_test, m)."""
        return self._stack(self.test)

    def split(self, name: str):
        """The measures and weight matrix of the ``train``, ``test`` or
        ``all`` (train, then test) split."""
        if name == "train":
            return self.train, self.train_matrix
        if name == "test":
            return self.test, self.test_matrix
        if name == "all":
            measures = list(self.train) + list(self.test)
            return measures, self._stack(measures)
        raise ValueError(f"unknown split {name!r}: expected train | test | all")

    def __repr__(self):
        return (
            f"MeasureDataset({self.ground!r}, n_train={len(self.train)}, "
            f"n_test={len(self.test)})"
        )


def write_dataset(path, dataset: MeasureDataset) -> None:
    """Write a dataset in the text format.

    Header line ``rows cols p n_train n_test``, then one measure per line
    as whitespace-separated nonnegative floats (row-major pixels), train
    block before test block.
    """
    gs = dataset.ground.grid_shape
    if gs is None or len(gs) != 2:
        raise ValueError("dataset files require a 2-d pixel-grid ground space")
    rows, cols = gs
    lines = [f"{rows} {cols} {dataset.ground.p!r} {len(dataset.train)} {len(dataset.test)}"]
    for mu in list(dataset.train) + list(dataset.test):
        lines.append(" ".join(repr(float(v)) for v in mu.weights))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class LineReader:
    """The lines of a text file in a wdlearn line format (datasets, banks),
    read in order, with errors that name the line.

    The writers end every line with a newline, so a file whose last line
    has none was cut short.
    """

    def __init__(self, path, kind: str):
        with open(path) as fh:
            self.lines = fh.read().split("\n")
        self.kind = kind
        self.no = 0  # lines read so far
        if self.lines.pop():
            raise ValueError(
                f"{kind} file ended early: line {len(self.lines) + 1} has no newline"
            )

    def error(self, message: str) -> ValueError:
        """An error about the line read last."""
        return ValueError(f"{self.kind} file, line {self.no}: {message}")

    def fields(self, what: str, types: Sequence) -> list:
        """The next line, which holds ``what``: one field per entry of
        ``types``, each converted by it."""
        if self.no == len(self.lines):
            raise ValueError(
                f"{self.kind} file ended early: line {self.no + 1} should hold {what}"
            )
        self.no += 1
        words = self.lines[self.no - 1].split()
        if len(words) != len(types):
            raise self.error(f"{what} needs {len(types)} fields, found {len(words)}")
        try:
            return [convert(w) for convert, w in zip(types, words)]
        except ValueError as exc:
            raise self.error(f"{what}: {exc}") from None

    def finish(self) -> None:
        """Require nothing but blank lines after the last record."""
        for no, line in enumerate(self.lines[self.no :], start=self.no + 1):
            if line.strip():
                raise ValueError(f"{self.kind} file, line {no}: data after the last record")


def read_dataset(path) -> MeasureDataset:
    """Read a dataset written by :func:`write_dataset`.

    Raises
    ------
    ValueError
        Naming the line, when the file ends before the header's count of
        measures or without a final newline, when a line has the wrong
        number of fields or is not a finite probability vector, and when
        non-blank data follows the last measure.
    """
    lines = LineReader(path, "dataset")
    rows, cols, p, n_train, n_test = lines.fields(
        "the header 'rows cols p n_train n_test'", (int, int, float, int, int)
    )
    if min(n_train, n_test) < 0:
        raise lines.error(f"negative measure count {min(n_train, n_test)}")
    try:
        ground = GroundSpace.grid((rows, cols), p=p)
    except ValueError as exc:
        raise lines.error(str(exc)) from exc
    n = n_train + n_test
    measures = []
    for i in range(n):
        vals = lines.fields(f"measure {i + 1} of {n}", [float] * ground.size)
        try:
            measures.append(DiscreteMeasure(ground, vals))
        except ValueError as exc:
            raise lines.error(str(exc)) from exc
    lines.finish()
    return MeasureDataset(ground, measures[:n_train], measures[n_train:])
