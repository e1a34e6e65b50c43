"""Relationship matrix construction: feature distances, row-wise top-m
similarity, region adjacency, and their entry-wise product."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ShapeMismatch
from .features import FeatureMatrix
from .superpixel import SuperpixelMap, region_edges


@dataclass(frozen=True)
class RelationshipMatrix:
    """Binary transition structure of the walk plus its two factors."""

    m_siml: np.ndarray  # (N, N) uint8
    m_adj: np.ndarray  # (N, N) uint8
    m_rel: np.ndarray  # (N, N) uint8


def distance_matrix(feats: FeatureMatrix) -> np.ndarray:
    """Pairwise Euclidean distances between feature rows."""
    v = feats.values
    sq = (v * v).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (v @ v.T)
    d = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(d, 0.0)
    return (d + d.T) / 2.0  # exact symmetry


def similarity_matrix(dist: np.ndarray, m: int = 10) -> np.ndarray:
    """Per row, mark the min(m, N) smallest distances with 1.

    Ties go to the smaller column index, so the zero-distance diagonal is
    always selected. Rows are independent; the result may be asymmetric.
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


def symmetrize(siml: np.ndarray, mode: str) -> np.ndarray:
    """Optional symmetrization of the top-m similarity matrix."""
    if mode == "none":
        return siml
    if mode == "or":
        return np.maximum(siml, siml.T)
    if mode == "and":
        return np.minimum(siml, siml.T)
    raise ValueError(f"unknown symmetrize mode {mode!r}")


def relationship_matrix(siml: np.ndarray, adj: np.ndarray) -> RelationshipMatrix:
    """Entry-wise product of the similarity and adjacency factors."""
    if siml.shape != adj.shape:
        raise ShapeMismatch("similarity and adjacency matrices differ in shape")
    rel = (siml.astype(np.uint8) & adj.astype(np.uint8)).astype(np.uint8)
    return RelationshipMatrix(
        siml.astype(np.uint8), adj.astype(np.uint8), rel
    )


def build_relationship(
    feats: FeatureMatrix, spmap: SuperpixelMap, m: int = 10, symmetrize_mode: str = "none"
) -> RelationshipMatrix:
    """Convenience wrapper: features -> distances -> top-m -> AND adjacency."""
    siml = symmetrize(similarity_matrix(distance_matrix(feats), m), symmetrize_mode)
    return relationship_matrix(siml, adjacency_matrix(spmap))
