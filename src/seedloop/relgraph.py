"""Relationship matrix construction: feature distances, row-wise top-m
similarity, region adjacency, and their entry-wise product."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ShapeMismatch
from .superpixel import SuperpixelMap, region_edges


@dataclass(frozen=True)
class RelationshipMatrix:
    """The walk's (N, N) 0/1 transition structure. `relationship_matrix`
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


def similarity_matrix(dist: np.ndarray, m: int) -> np.ndarray:
    """Per row, mark the min(m, N) smallest distances with 1.

    Ties go to the smaller column index, so a row can lose its own diagonal
    when m smaller-index columns share its zero distance (duplicate
    feature rows). Rows are independent, so M[i, j] and M[j, i] may differ.
    """
    if m < 1:
        raise InvalidParams(f"top-m needs m >= 1, got {m}")
    n = dist.shape[0]
    order = np.argsort(dist, axis=1, kind="stable")
    out = np.zeros((n, n), dtype=np.uint8)
    np.put_along_axis(out, order[:, : min(m, n)], 1, axis=1)
    return out


def adjacency_matrix(spmap: SuperpixelMap) -> np.ndarray:
    """A[i, j] = 1 iff regions i, j share a 4-connected border or i == j."""
    i, j = region_edges(spmap.region_of).T
    adj = np.eye(spmap.n_regions, dtype=np.uint8)
    adj[i, j] = 1
    adj[j, i] = 1
    return adj


def relationship_matrix(siml: np.ndarray, adj: np.ndarray) -> RelationshipMatrix:
    """Entry-wise AND of the similarity and adjacency factors."""
    if siml.shape != adj.shape:
        raise ShapeMismatch("similarity and adjacency matrices differ in shape")
    return RelationshipMatrix(np.logical_and(siml, adj).astype(np.float64))


def build_relationship(feats: np.ndarray, spmap: SuperpixelMap, m: int) -> RelationshipMatrix:
    """Convenience wrapper: features -> distances -> top-m -> AND adjacency."""
    siml = similarity_matrix(distance_matrix(feats), m)
    return relationship_matrix(siml, adjacency_matrix(spmap))
