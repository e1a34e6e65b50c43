"""Relationship matrix construction: feature distances, each row's top-m
nearest regions, ANDed with region adjacency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ShapeMismatch, check_int
from .superpixel import SuperpixelMap, region_edges


@dataclass(frozen=True)
class RelationshipMatrix:
    """The walk's (N, N) 0/1 transition structure. `build_relationship`
    builds it as float64, so each walk step multiplies by it uncast."""

    m_rel: np.ndarray

    def __post_init__(self):
        r = self.m_rel
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ShapeMismatch(f"relationship matrix must be square, got {list(r.shape)}")
        if not ((r == 0) | (r == 1)).all():
            raise ShapeMismatch("relationship entries must be 0 or 1")


def distance_matrix(feats: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of an (N, D) array."""
    sq = (feats * feats).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (feats @ feats.T)
    d = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(d, 0.0)
    return (d + d.T) / 2.0  # exact symmetry


def _check_top_m(m):
    """build_relationship's check of m, which the CLI also runs before it
    loads anything."""
    check_int("m", m)
    if m < 1:
        raise InvalidParams(f"top-m needs m >= 1, got {m}")


def build_relationship(feats: np.ndarray, spmap: SuperpixelMap, m: int) -> RelationshipMatrix:
    """M[i, j] = 1 iff column j is among the min(m, N) nearest rows to row i
    of `feats` and regions i, j share a 4-connected border or i == j.

    Nearness ties go to the smaller column index, so a row can lose its own
    diagonal when m smaller-index columns share its zero distance (duplicate
    feature rows). Rows rank independently, so M[i, j] and M[j, i] may differ.
    """
    _check_top_m(m)
    n = spmap.n_regions
    if feats.shape[0] != n:
        raise ShapeMismatch(f"{feats.shape[0]} feature rows for {n} regions")
    order = np.argsort(distance_matrix(feats), axis=1, kind="stable")
    near = np.zeros((n, n), dtype=bool)
    np.put_along_axis(near, order[:, : min(m, n)], True, axis=1)
    adj = np.eye(n, dtype=bool)
    i, j = region_edges(spmap.region_of).T
    adj[i, j] = adj[j, i] = True
    return RelationshipMatrix((near & adj).astype(np.float64))
