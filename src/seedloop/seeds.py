"""Seed state and both feedback chains' seed mathematics: confidence gates,
the customized random walk, the convex seed update, and the convergence
monitor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ShapeMismatch, WOutOfRange
from .relgraph import RelationshipMatrix
from .superpixel import SuperpixelMap
from .tensorio import IGNORE, LabelMap

_TOL = 1e-6


@dataclass(frozen=True)
class SeedState:
    """(n_categories, n_regions) probabilities; category 0 is background.

    An all-zero column marks an ignored superpixel. Column sums stay <= 1.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = self.probs
        if p.ndim != 2 or p.shape[0] == 0:
            raise ShapeMismatch(f"probs must be [categories, regions], got {list(p.shape)}")
        if not ((p >= 0) & (p <= 1)).all():  # NaN fails too
            raise ShapeMismatch("probabilities must lie in [0, 1]")
        if (p.sum(axis=0) > 1 + _TOL).any():
            raise ShapeMismatch("column sums must not exceed 1")

    @property
    def n_categories(self) -> int:
        return self.probs.shape[0]

    @property
    def n_regions(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class GateParams:
    alpha_fg: float = 0.90
    alpha_bg: float = 0.90
    beta_fg: float = 0.75
    beta_bg: float = 0.90

    def __post_init__(self):
        for v in (self.alpha_fg, self.alpha_bg, self.beta_fg, self.beta_bg):
            if not 0.0 <= v <= 1.0:
                raise WOutOfRange("gate thresholds must lie in [0, 1]")


@dataclass(frozen=True)
class ConvergenceParams:
    delta: float = 0.1  # per-superpixel L1 change threshold
    rho: float = 0.95  # unchanged fraction that stops the update

    def __post_init__(self):
        if not self.delta > 0 or not 0 < self.rho <= 1:  # NaN fails both
            raise WOutOfRange("bad convergence parameters")


def gate(state: SeedState, t_fg: float, t_bg: float) -> SeedState:
    """Zero every column whose dominant-category probability is below the
    threshold (t_bg when the argmax is background, t_fg otherwise); kept
    columns retain their original values. Argmax ties go to the smaller id."""
    p = state.probs
    top = np.argmax(p, axis=0)  # argmax already breaks ties toward smaller id
    top_val = p[top, np.arange(state.n_regions)]
    thresh = np.where(top == 0, t_bg, t_fg)
    keep = top_val >= thresh
    return SeedState(p * keep[None, :])


def walk_step(
    s_gated: SeedState, rel: RelationshipMatrix, nout_gated: SeedState
) -> SeedState:
    """One customized random-walk step: per category row s,
    clamp01(s x m_rel) entrywise-times the gated network-output row."""
    if s_gated.probs.shape != nout_gated.probs.shape:
        raise ShapeMismatch("seed and network-output shapes differ")
    n = s_gated.n_regions
    if rel.m_rel.shape != (n, n):
        raise ShapeMismatch(f"relationship matrix must be [{n}, {n}], got {list(rel.m_rel.shape)}")
    spread = s_gated.probs @ rel.m_rel
    return SeedState(np.clip(spread, 0.0, 1.0) * nout_gated.probs)


def _renormalize_columns(probs: np.ndarray) -> np.ndarray:
    """Scale down columns whose sum exceeds 1 so the state invariant holds."""
    sums = probs.sum(axis=0)
    scale = np.where(sums > 1.0, sums, 1.0)
    return probs / scale


def custom_walk(
    state: SeedState,
    rel: RelationshipMatrix,
    n_out: SeedState,
    gates: GateParams,
    steps: int,
    strict: bool = False,
) -> SeedState:
    """Multi-step customized random walk producing the mixed seed.

    The seed state is gated with the alpha thresholds and the network output
    with the beta thresholds; the walk step is applied `steps` times. The
    mixed seed is the entrywise max of the gated original seeds and the walk
    result so original seeds are never lost; `strict=True` returns the bare
    walk result instead. Columns exceeding unit mass are scaled down.
    """
    if steps < 1:
        raise InvalidParams(f"steps must be >= 1, got {steps}")
    start = gate(state, gates.alpha_fg, gates.alpha_bg)
    guided = gate(n_out, gates.beta_fg, gates.beta_bg)
    cur = start
    for _ in range(steps):
        cur = walk_step(cur, rel, guided)
    mixed = cur.probs if strict else np.maximum(start.probs, cur.probs)
    return SeedState(_renormalize_columns(mixed))


def seed_update(s_old: SeedState, n_out: SeedState, w: float) -> SeedState:
    """Convex combination S_new = (1 - w) * S_old + w * N_out."""
    if not 0.0 <= w <= 1.0:
        raise WOutOfRange(f"w={w} outside [0, 1]")
    if s_old.probs.shape != n_out.probs.shape:
        raise ShapeMismatch("seed and network-output shapes differ")
    return SeedState((1.0 - w) * s_old.probs + w * n_out.probs)


def convergence_check(
    s_prev: SeedState, s_new: SeedState, params: ConvergenceParams = ConvergenceParams()
):
    """A superpixel is unchanged when its column L1 change is below delta;
    the update stops once at least rho of superpixels are unchanged."""
    if s_prev.probs.shape != s_new.probs.shape:
        raise ShapeMismatch("states differ in shape")
    change = np.abs(s_new.probs - s_prev.probs).sum(axis=0)
    unchanged = float((change < params.delta).mean())
    return unchanged >= params.rho, unchanged


def region_labels(state: SeedState) -> np.ndarray:
    """Per-superpixel argmax category as uint8; all-zero columns become
    ignore. Categories must lie below the ignore label."""
    if state.n_categories > IGNORE:
        raise ShapeMismatch(
            f"{state.n_categories} categories do not fit below the ignore label {IGNORE}"
        )
    per_region = np.argmax(state.probs, axis=0).astype(np.uint8)
    empty = state.probs.sum(axis=0) <= 0.0
    return np.where(empty, np.uint8(IGNORE), per_region)


def labels_from_state(state: SeedState, spmap: SuperpixelMap) -> LabelMap:
    """Render region_labels(state) to a pixel label map."""
    if spmap.n_regions != state.n_regions:
        raise ShapeMismatch("superpixel count differs from seed state")
    return LabelMap(region_labels(state)[spmap.region_of])
