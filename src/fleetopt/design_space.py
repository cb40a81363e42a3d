"""Stage-structured discrete design space for convolutional backbones.

A design picks, per stage, a block depth, a width multiplier and a kernel size,
plus one network-wide quantization bit-width. The design *is* its index tuple:
one choice index per axis, stage-major with (depth, width, kernel) within a
stage and bits last. Search, predictors, solvers and reports all hold designs
in that form, and every tie breaks on it lexicographically. `DesignPoint` is
the readable value view (depths, widths, kernels, bits) that the analytic cost
model reads; `design_at` builds it and is the one place an index list from
outside is checked, `indices_of` goes back. `design_codes` numbers index rows,
one int64 each, so a space holds fewer than 2**63 designs. The encoding, a flat
vector in [0, 1]^(3S+1) for continuous optimizers, is a separate form,
converted a matrix at a time (`encode_rows`/`decode_rows`; `encode` is the
one-row case): each choice sits at the center of its cell so
decode_rows(encode_rows(X)) is X.
Search draws, breeds and scores whole populations as index matrices
(`sample_rows`, `crossover`, `mutate`); `sample_uniform` is the one-row draw.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class InvalidDesignError(ValueError):
    """Design is not a member of the space it was used with."""


class DimensionMismatchError(ValueError):
    """Encoded vector length does not match the space's encoding width."""


class SpaceTooLargeError(ValueError):
    """Refusing to enumerate a space past the caller's cardinality limit."""


class StageChoice(NamedTuple):
    depth: int
    width: float
    kernel: int


@dataclass(frozen=True)
class DesignPoint:
    """Readable value view of one design: per-stage choices plus a global bit-width."""

    stages: tuple[StageChoice, ...]
    bits: int

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(StageChoice(*s) for s in self.stages))
        if not self.stages:
            raise InvalidDesignError("design needs at least one stage")


def _choice_tuple(name: str, values: Iterable) -> tuple:
    vals = tuple(values)
    if not vals:
        raise ValueError(f"{name} must be non-empty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {vals}")
    return vals


@dataclass(frozen=True)
class DesignSpace:
    """Cartesian space of per-stage (depth, width, kernel) choices and bit-widths.

    Choice lists are strictly increasing; kernel sizes must be odd. The flat
    encoding is stage-major, (depth, width, kernel) within a stage, bits last.
    """

    num_stages: int
    depth_choices: tuple[int, ...]
    width_choices: tuple[float, ...]
    kernel_choices: tuple[int, ...]
    bits_choices: tuple[int, ...]

    def __post_init__(self):
        if self.num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        object.__setattr__(self, "depth_choices", _choice_tuple("depth_choices", self.depth_choices))
        object.__setattr__(self, "width_choices", _choice_tuple("width_choices", self.width_choices))
        object.__setattr__(self, "kernel_choices", _choice_tuple("kernel_choices", self.kernel_choices))
        object.__setattr__(self, "bits_choices", _choice_tuple("bits_choices", self.bits_choices))
        if any(d < 1 for d in self.depth_choices):
            raise ValueError("depths must be positive integers")
        if any(w <= 0 for w in self.width_choices):
            raise ValueError("widths must be positive")
        if any(k < 1 or k % 2 == 0 for k in self.kernel_choices):
            raise ValueError("kernel sizes must be odd positive integers")
        if any(b < 1 for b in self.bits_choices):
            raise ValueError("bit-widths must be positive integers")
        if self.cardinality >= 2**63:  # a design's code (see design_codes) is one int64
            raise ValueError("must hold fewer than 2**63 designs")

    @property
    def encoding_width(self) -> int:
        return 3 * self.num_stages + 1

    @property
    def cardinality(self) -> int:
        per_stage = len(self.depth_choices) * len(self.width_choices) * len(self.kernel_choices)
        return per_stage**self.num_stages * len(self.bits_choices)

    @functools.cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per encoding column: last index n - 1, encoding divisor and offset."""
        steps = np.array([len(axis) - 1 for axis in self._axes()], dtype=float)
        return steps, np.maximum(steps, 1.0), np.where(steps == 0, 0.5, 0.0)

    @functools.cached_property
    def _places(self) -> np.ndarray:
        """The int64 place value of each index column in a design's code."""
        sizes = [len(axis) for axis in self._axes()]
        return np.array([math.prod(sizes[k + 1:]) for k in range(len(sizes))], dtype=np.int64)

    def _axes(self) -> list[tuple]:
        axes: list[tuple] = []
        for _ in range(self.num_stages):
            axes.extend((self.depth_choices, self.width_choices, self.kernel_choices))
        axes.append(self.bits_choices)
        return axes

    def contains(self, x: DesignPoint) -> bool:
        if len(x.stages) != self.num_stages or x.bits not in self.bits_choices:
            return False
        return all(
            s.depth in self.depth_choices
            and s.width in self.width_choices
            and s.kernel in self.kernel_choices
            for s in x.stages
        )

    def indices_of(self, x: DesignPoint) -> tuple[int, ...]:
        """The design a value view stands for: its flat index tuple, stage-major
        with bits last. A DesignPoint from outside this space is rejected."""
        if not self.contains(x):
            raise InvalidDesignError(f"design {x} is not in this space")
        idx: list[int] = []
        for s in x.stages:
            idx.append(self.depth_choices.index(s.depth))
            idx.append(self.width_choices.index(s.width))
            idx.append(self.kernel_choices.index(s.kernel))
        idx.append(self.bits_choices.index(x.bits))
        return tuple(idx)

    def design_at(self, indices: Sequence[int]) -> DesignPoint:
        """The value view of a design; the one check of an index list from
        outside (report rows, tests): width first, then every index in range."""
        indices = tuple(int(i) for i in indices)
        if len(indices) != self.encoding_width:
            raise DimensionMismatchError(
                f"expected {self.encoding_width} indices, got {len(indices)}"
            )
        axes = self._axes()
        for i, (axis, k) in enumerate(zip(axes, indices)):
            if not 0 <= k < len(axis):
                raise InvalidDesignError(f"index {k} out of range at position {i}")
        stages = tuple(
            StageChoice(
                depth=self.depth_choices[indices[3 * s]],
                width=self.width_choices[indices[3 * s + 1]],
                kernel=self.kernel_choices[indices[3 * s + 2]],
            )
            for s in range(self.num_stages)
        )
        return DesignPoint(stages=stages, bits=self.bits_choices[indices[-1]])


def default_space() -> DesignSpace:
    """The 4-stage space all defaults refer to; ~21.2M designs, too big to enumerate."""
    return DesignSpace(
        num_stages=4,
        depth_choices=(1, 2, 3, 4),
        width_choices=(0.5, 0.75, 1.0, 1.25),
        kernel_choices=(3, 5, 7),
        bits_choices=(4, 8, 16, 32),
    )


def reduced_space() -> DesignSpace:
    """A 128-design space small enough for exhaustive ground truth in tests."""
    return DesignSpace(
        num_stages=2,
        depth_choices=(1, 2),
        width_choices=(0.5, 1.0),
        kernel_choices=(3, 5),
        bits_choices=(8, 32),
    )


def sample_rows(space: DesignSpace, rng: np.random.Generator, n: int) -> np.ndarray:
    """n designs uniform over the whole space as an (n, w) index matrix, each
    axis index drawn independently; the draws, row by row, are those of n
    `sample_uniform` calls."""
    highs = space._cells[0].astype(int) + 1
    return rng.integers(highs, size=(n, space.encoding_width))


def sample_uniform(space: DesignSpace, rng: np.random.Generator) -> tuple[int, ...]:
    """One uniform design: the one-row case of `sample_rows`."""
    return tuple(sample_rows(space, rng, 1)[0].tolist())


def _rows(values, space: DesignSpace) -> np.ndarray:
    """A float matrix one encoding wide: the shape check of both row forms."""
    M = np.asarray(values, dtype=float)
    if M.ndim != 2 or M.shape[1] != space.encoding_width:
        raise DimensionMismatchError(f"expected shape (n, {space.encoding_width}), got {M.shape}")
    return M


def index_rows(designs, space: DesignSpace) -> np.ndarray:
    """Index tuples as a matrix, checked like `design_at` checks one tuple."""
    M = _rows(designs, space)
    if np.any((M < 0) | (M > space._cells[0]) | (M != np.floor(M))):
        raise InvalidDesignError("index matrix has an entry out of range")
    return M.astype(int)


def encode_rows(designs, space: DesignSpace) -> np.ndarray:
    """Cell-center coordinates in [0, 1]^(3S+1), one row per index row: index k
    of an n-choice axis maps to k/(n-1), or 0.5 for a singleton axis."""
    _, divisor, offset = space._cells
    return _rows(designs, space) / divisor + offset


def encode(x: tuple[int, ...], space: DesignSpace) -> np.ndarray:
    """One design's encoding: the one-row case of `encode_rows`."""
    return encode_rows([x], space)[0]


def decode_rows(values, space: DesignSpace) -> np.ndarray:
    """The nearest design to each row as an index matrix: clamp to [0, 1], then
    round half up per axis. Any finite matrix of the right width decodes."""
    V = _rows(values, space)
    if not np.all(np.isfinite(V)):
        raise ValueError("encoded vector has non-finite entries")
    return np.floor(np.clip(V, 0.0, 1.0) * space._cells[0] + 0.5).astype(int)


def mutate(
    X: np.ndarray, rate: float, space: DesignSpace, rng: np.random.Generator
) -> np.ndarray:
    """Resample each entry of the index matrix X independently with probability
    `rate`, a new matrix.

    A resampled axis always moves to a different index (`j + (j >= current)`
    over a draw j from the n - 1 other choices), and a singleton axis is never
    touched, so the expected changed-field count per row is exactly
    rate * number of non-singleton axes; rate=0 returns X unchanged.
    """
    X = np.asarray(X)
    steps = space._cells[0].astype(int)
    hit = (rng.random(X.shape) < rate) & (steps > 0)
    J = rng.integers(np.maximum(steps, 1), size=X.shape)
    return np.where(hit, J + (J >= X), X)


def crossover(A: np.ndarray, B: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform crossover of two index matrices, row i of A with row i of B:
    each entry comes from A or B with equal odds."""
    return np.where(rng.random(np.shape(A)) < 0.5, A, B)


def design_codes(X, space: DesignSpace) -> np.ndarray:
    """One int64 per index row of X (..., w): the row's mixed-radix number over
    the axes, which is its position in `enumerate_all`'s order, so two rows
    are the same design exactly when their codes are equal."""
    return np.asarray(X) @ space._places


def enumerate_all(space: DesignSpace, limit: int | None = 1_000_000) -> list[tuple[int, ...]]:
    """All designs in lexicographic index order; refuses spaces past `limit`."""
    if limit is not None and space.cardinality > limit:
        raise SpaceTooLargeError(
            f"space has {space.cardinality} designs, enumeration limit is {limit}"
        )
    return list(itertools.product(*(range(len(axis)) for axis in space._axes())))
