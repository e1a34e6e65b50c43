"""Relationship matrix construction: feature distances, each row's top-m
nearest regions, ANDed with region adjacency and ranked on the adjacent pairs
only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ShapeMismatch, check_int
from .superpixel import SuperpixelMap


@dataclass(frozen=True)
class RelationshipMatrix:
    """The walk's (N, N) 0/1 transition structure. `build_relationship`
    builds it as float64, so `spread` multiplies by it uncast."""

    m_rel: np.ndarray

    def __post_init__(self):
        r = self.m_rel
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ShapeMismatch(f"relationship matrix must be square, got {list(r.shape)}")
        if not ((r == 0) | (r == 1)).all():
            raise ShapeMismatch("relationship entries must be 0 or 1")

    @property
    def n_regions(self) -> int:
        return self.m_rel.shape[0]

    def spread(self, cur: np.ndarray) -> np.ndarray:
        """The walk's one product, `cur @ m_rel`, on (C, N) probabilities."""
        return cur @ self.m_rel


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
    check_int("m", m, low=1)


def _finite_distances(feats: np.ndarray) -> np.ndarray:
    """distance_matrix(feats), or InvalidParams when the descriptors or the
    distances (by overflow) are not finite."""
    if not np.isfinite(feats).all():
        raise InvalidParams("region descriptors must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        d = distance_matrix(feats)
    if not np.isfinite(d.max()):  # NaN propagates through max
        raise InvalidParams("descriptor distances are not finite (overflow)")
    return d


def _top_k_pairs(d: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """Which (rows, cols) pairs a stable sort of each row of `d` puts among the
    row's k nearest columns (ties to the smaller column index), unsorted.

    With t_i row i's k-th smallest distance (np.partition), a pair is kept
    when d[i, j] < t_i; at d[i, j] == t_i it is kept while the columns nearer
    than t_i plus the columns at t_i with a smaller index leave a slot."""
    part = np.partition(d, k - 1, axis=1)
    kth = part[:, k - 1]
    n_nearer = (part[:, : k - 1] < kth[:, None]).sum(axis=1)
    dist, bound = d[rows, cols], kth[rows]
    keep = dist < bound
    tie = np.flatnonzero(dist == bound)
    if tie.size:
        r, c = rows[tie], cols[tie]
        at_bound = d[r] == bound[tie, None]
        ties_before = (at_bound & (np.arange(d.shape[1]) < c[:, None])).sum(axis=1)
        keep[tie] = n_nearer[r] + ties_before < k
    return keep


def build_relationship(feats: np.ndarray, spmap: SuperpixelMap, m: int) -> RelationshipMatrix:
    """M[i, j] = 1 iff column j is among the min(m, N) nearest rows to row i
    of `feats` and regions i, j share a 4-connected border or i == j.

    Nearness ties go to the smaller column index, so a row can lose its own
    diagonal when m smaller-index columns share its zero distance (duplicate
    feature rows). Rows rank independently, so M[i, j] and M[j, i] may differ.
    Only the pairs M can hold are ranked: the diagonal and both directions of
    every `spmap.edges` pair. Non-finite descriptors or distances raise
    InvalidParams before any rank.
    """
    _check_top_m(m)
    n = spmap.n_regions
    if feats.shape[0] != n:
        raise ShapeMismatch(f"{feats.shape[0]} feature rows for {n} regions")
    edges = spmap.edges
    ids = np.arange(n)
    rows = np.concatenate([ids, edges[:, 0], edges[:, 1]])
    cols = np.concatenate([ids, edges[:, 1], edges[:, 0]])
    # the N² distances are freed before the N² output is built
    keep = _top_k_pairs(_finite_distances(feats), rows, cols, min(m, n))
    rel = np.zeros((n, n))
    rel[rows[keep], cols[keep]] = 1.0
    return RelationshipMatrix(rel)
