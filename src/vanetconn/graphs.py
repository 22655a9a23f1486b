"""Adjacency and Laplacian matrices of a vehicle network snapshot.

A directed link i -> j exists when receiver j lies inside transmitter i's
communication range.  With equal ranges the adjacency is symmetric; with
per-vehicle ranges it is not, and the upward/downward triangular parts carry
the two travel directions separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranges import RangeAssignment
from .traffic import SpacingMatrix

DIRECTION_FULL = "full"
DIRECTION_UPWARD = "upward"
DIRECTION_DOWNWARD = "downward"
DIRECTION_SYMMETRIZED = "symmetrized"
DIRECTIONS = (DIRECTION_FULL, DIRECTION_UPWARD, DIRECTION_DOWNWARD, DIRECTION_SYMMETRIZED)


@dataclass(frozen=True, eq=False)
class Adjacency:
    """Boolean link matrix plus a tag recording which directions it keeps."""

    entries: np.ndarray
    direction: str = DIRECTION_FULL

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.dtype != np.bool_:
            entries = entries.astype(bool)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction tag {self.direction!r}")
        if np.any(np.diagonal(entries)):
            raise ValueError("adjacency diagonal must be zero")
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class Laplacian:
    """Degree-minus-adjacency matrix of an undirected snapshot."""

    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def build_adjacency(spacing: SpacingMatrix, ranges: RangeAssignment) -> Adjacency:
    """Threshold the spacing matrix: link i -> j iff S[i, j] <= range of i.

    The diagonal is forced to zero (S[i, i] = 0 would otherwise pass the
    threshold).  With all ranges equal the result is symmetric.
    """
    if spacing.size != ranges.vehicle_count:
        raise ValueError(
            f"dimension mismatch: {spacing.size} vehicles in spacing, "
            f"{ranges.vehicle_count} ranges"
        )
    entries = spacing.entries <= ranges.ranges[:, None]
    np.fill_diagonal(entries, False)
    return Adjacency(entries, DIRECTION_FULL)


def project(a: Adjacency, direction: str) -> Adjacency:
    """Keep only one travel direction: upward is j > i, downward is j < i."""
    if a.direction != DIRECTION_FULL:
        raise ValueError(f"can only project a full adjacency, got {a.direction!r}")
    if direction == DIRECTION_UPWARD:
        return Adjacency(np.triu(a.entries, 1), DIRECTION_UPWARD)
    if direction == DIRECTION_DOWNWARD:
        return Adjacency(np.tril(a.entries, -1), DIRECTION_DOWNWARD)
    raise ValueError(f"projection direction must be upward or downward, got {direction!r}")


def symmetrize(a: Adjacency) -> Adjacency:
    """Mirror a one-direction adjacency into a pseudo-undirected one."""
    if a.direction not in (DIRECTION_UPWARD, DIRECTION_DOWNWARD):
        raise ValueError(f"can only symmetrize a projected adjacency, got {a.direction!r}")
    return Adjacency(a.entries | a.entries.T, DIRECTION_SYMMETRIZED)


def laplacian(a: Adjacency) -> Laplacian:
    """L = D - A with D the diagonal of row degrees.  Symmetric input only;
    spectral connectivity tests are not defined here for directed matrices."""
    e = a.entries
    if not np.array_equal(e, e.T):
        raise ValueError(
            "adjacency is not symmetric; project and symmetrize it before "
            "taking the Laplacian"
        )
    degrees = e.sum(axis=1).astype(np.float64)
    lap = -e.astype(np.float64)
    np.fill_diagonal(lap, degrees)
    return Laplacian(lap)

