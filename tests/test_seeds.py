import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedloop import (
    ConvergenceParams,
    GateParams,
    convergence_check,
    custom_walk,
    gate,
    labels_from_state,
    seed_update,
    walk_step,
)
from seedloop.errors import ShapeMismatch, WOutOfRange
from seedloop.relgraph import RelationshipMatrix
from seedloop.seeds import SeedState
from seedloop.superpixel import SuperpixelMap
from seedloop.tensorio import IGNORE


def rel_from(m):
    return RelationshipMatrix(np.asarray(m, dtype=np.float64))


def random_state(rng, c, n):
    p = rng.random((c, n))
    return SeedState(p / np.maximum(p.sum(axis=0, keepdims=True), 1.0))


@pytest.mark.parametrize(
    "probs",
    [
        np.full((2, 3), np.nan),
        np.full((2, 3), -0.1),
        np.full((2, 3), 0.6),
        np.zeros(3),
        np.zeros((0, 3)),
    ],
    ids=["nan", "negative", "column_mass", "not_2d", "no_categories"],
)
def test_state_rejects_bad_probs(probs):
    with pytest.raises(ShapeMismatch):
        SeedState(probs)


def test_gate_keeps_confident_background():
    s = SeedState(np.array([[0.95], [0.05]]))
    out = gate(s, 0.90, 0.90)
    assert np.array_equal(out.probs, s.probs)


def test_gate_drops_unconfident_foreground():
    s = SeedState(np.array([[0.10], [0.80]]))
    out = gate(s, 0.90, 0.90)
    assert (out.probs == 0).all()


def test_gate_zero_thresholds_identity(rng):
    s = random_state(rng, 3, 7)
    out = gate(s, 0.0, 0.0)
    assert np.array_equal(out.probs, s.probs)


def test_gate_idempotent(rng):
    s = random_state(rng, 3, 10)
    once = gate(s, 0.4, 0.3)
    twice = gate(once, 0.4, 0.3)
    assert np.array_equal(once.probs, twice.probs)


def test_walk_step_identity_transition(rng):
    s = random_state(rng, 2, 5)
    n_out = random_state(rng, 2, 5)
    out = walk_step(s, rel_from(np.eye(5)), n_out)
    assert np.allclose(out.probs, s.probs * n_out.probs)


def test_walk_step_absorbing_zero(rng):
    z = SeedState(np.zeros((2, 5)))
    n_out = random_state(rng, 2, 5)
    out = walk_step(z, rel_from(np.ones((5, 5))), n_out)
    assert (out.probs == 0).all()


def test_walk_step_chain_hand_case():
    # 4-node chain with self-loops; single unit seed at node 0, guidance 0.8
    chain = np.eye(4, dtype=np.uint8)
    for i in range(3):
        chain[i, i + 1] = chain[i + 1, i] = 1
    s = SeedState(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))
    n_out = SeedState(np.array([[0.2] * 4, [0.8] * 4]))
    out = walk_step(s, rel_from(chain), n_out)
    assert np.allclose(out.probs[1], [0.8, 0.8, 0.0, 0.0])


def test_custom_walk_support_grows_with_steps(rng):
    n = 6
    chain = np.eye(n, dtype=np.uint8)
    for i in range(n - 1):
        chain[i, i + 1] = chain[i + 1, i] = 1
    s = SeedState(np.vstack([np.zeros(n), np.eye(n)[0]]))
    n_out = SeedState(np.vstack([np.full(n, 0.1), np.full(n, 0.9)]))
    gates = GateParams(0.5, 0.5, 0.5, 0.5)
    sup1 = custom_walk(s, rel_from(chain), n_out, gates, 1).probs > 0
    sup2 = custom_walk(s, rel_from(chain), n_out, gates, 2).probs > 0
    assert (sup1 <= sup2).all()
    assert sup2.sum() > sup1.sum()


def test_custom_walk_zero_guidance_keeps_gated_seeds(rng):
    s = random_state(rng, 3, 6)
    n_out = SeedState(np.zeros((3, 6)))
    gates = GateParams(0.2, 0.2, 0.9, 0.9)
    mixed = custom_walk(s, rel_from(np.ones((6, 6))), n_out, gates, 2)
    expected = gate(s, 0.2, 0.2)
    assert np.array_equal(mixed.probs, expected.probs)


def test_custom_walk_matches_brute_force_toy():
    # 6 regions, 2 categories: straight-line evaluation of the walk algebra
    rng = np.random.default_rng(99)
    n = 6
    rel_m = (rng.random((n, n)) < 0.4).astype(np.uint8)
    np.fill_diagonal(rel_m, 1)
    s = random_state(rng, 2, n)
    n_out = random_state(rng, 2, n)
    gates = GateParams(0.3, 0.3, 0.3, 0.3)
    got = custom_walk(s, rel_from(rel_m), n_out, gates, 2)

    start = gate(s, 0.3, 0.3).probs
    g = gate(n_out, 0.3, 0.3).probs
    cur = start
    for _ in range(2):
        cur = np.clip(cur @ rel_m.astype(float), 0, 1) * g
    mixed = np.maximum(start, cur)
    sums = mixed.sum(axis=0)
    mixed = mixed / np.where(sums > 1.0, sums, 1.0)
    assert np.allclose(got.probs, mixed, atol=1e-12)


def test_custom_walk_strict_drops_unsupported_seeds(rng):
    s = random_state(rng, 2, 4)
    n_out = SeedState(np.zeros((2, 4)))
    gates = GateParams(0.0, 0.0, 0.5, 0.5)
    strict = custom_walk(s, rel_from(np.eye(4)), n_out, gates, 1, strict=True)
    assert (strict.probs == 0).all()


_unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=12),
    st.tuples(_unit, _unit, _unit, _unit),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
)
def test_custom_walk_mass_and_seed_support(seed, c, n, thresholds, steps, strict):
    rng = np.random.default_rng(seed)
    s = random_state(rng, c, n)
    s = SeedState(s.probs * (rng.random(n) < 0.7))  # some ignored regions
    n_out = random_state(rng, c, n)
    rel = rel_from(rng.random((n, n)) < rng.random())
    gates = GateParams(*thresholds)
    mixed = custom_walk(s, rel, n_out, gates, steps, strict=strict).probs
    assert ((mixed >= 0) & (mixed <= 1)).all()
    assert (mixed.sum(axis=0) <= 1 + 1e-6).all()
    if not strict:
        seeded = gate(s, gates.alpha_fg, gates.alpha_bg).probs.any(axis=0)
        assert mixed.any(axis=0)[seeded].all()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=12),
    _unit,
    _unit,
)
def test_gate_keeps_or_zeroes_each_column(seed, c, n, t_fg, t_bg):
    rng = np.random.default_rng(seed)
    p = random_state(rng, c, n).probs
    p[:, rng.random(n) < 0.2] = 0.0  # ignored regions
    p[:, rng.random(n) < 0.2] = 1.0 / c  # argmax ties
    at = rng.random(n) < 0.2  # dominant probability exactly at the threshold
    p[:, at] = 0.0
    p[0, at & (rng.random(n) < 0.5)] = t_bg
    p[1, at & (p[0] == 0)] = t_fg
    out = gate(SeedState(p), t_fg, t_bg).probs
    # the dominant category is the first one at the column maximum
    top = (p == p.max(axis=0)).argmax(axis=0)
    below = p.max(axis=0) < np.where(top == 0, t_bg, t_fg)
    assert np.array_equal(out[:, ~below], p[:, ~below])  # kept columns unchanged
    assert not out[:, below].any()  # every column below its threshold zeroed


def test_seed_update_identities(rng):
    a = random_state(rng, 3, 8)
    b = random_state(rng, 3, 8)
    assert np.array_equal(seed_update(a, b, 0.0).probs, a.probs)
    assert np.array_equal(seed_update(a, b, 1.0).probs, b.probs)


def test_seed_update_arithmetic():
    a = SeedState(np.array([[0.5], [0.0]]))
    b = SeedState(np.array([[0.9], [0.0]]))
    assert seed_update(a, b, 0.2).probs[0, 0] == pytest.approx(0.58)


def test_seed_update_rejects_bad_w(rng):
    a = random_state(rng, 2, 3)
    with pytest.raises(WOutOfRange):
        seed_update(a, a, 1.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=0.0, max_value=1.0))
def test_seed_update_convex_bounds(seed, w):
    rng = np.random.default_rng(seed)
    a = random_state(rng, 3, 6)
    b = random_state(rng, 3, 6)
    out = seed_update(a, b, w).probs
    lo = np.minimum(a.probs, b.probs)
    hi = np.maximum(a.probs, b.probs)
    assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=12),
    _unit,
)
def test_seed_update_is_convex_combination(seed, c, n, w):
    rng = np.random.default_rng(seed)
    old = random_state(rng, c, n).probs
    old[:, rng.random(n) < 0.3] = 0.0  # ignored regions
    n_out = rng.random((c, n))
    n_out /= n_out.sum(axis=0)  # a softmax output: unit mass per column
    n_out[:, rng.random(n) < 0.2] = 0.0
    out = seed_update(SeedState(old), SeedState(n_out), w)
    assert isinstance(out, SeedState) and out.probs.shape == (c, n)
    assert np.array_equal(out.probs, (1.0 - w) * old + w * n_out)
    mass_bound = np.maximum(old.sum(axis=0), n_out.sum(axis=0))
    assert (out.probs.sum(axis=0) <= mass_bound + 1e-12).all()


def test_convergence_identical_states(rng):
    s = random_state(rng, 3, 10)
    stopped, frac = convergence_check(s, s)
    assert stopped and frac == 1.0


def test_convergence_boundary_fraction():
    prev = SeedState(np.zeros((2, 20)))
    nxt = np.zeros((2, 20))
    nxt[0, 0] = 0.2
    stopped, frac = convergence_check(prev, SeedState(nxt), ConvergenceParams(0.1, 0.95))
    assert stopped and frac == pytest.approx(0.95)


def test_convergence_all_changed():
    prev = SeedState(np.zeros((2, 5)))
    nxt = SeedState(np.full((2, 5), 0.2))
    stopped, frac = convergence_check(prev, nxt, ConvergenceParams(0.1, 0.95))
    assert not stopped and frac == 0.0


def test_geometric_convergence_closed_form(rng):
    s = random_state(rng, 3, 10)
    n_out = random_state(rng, 3, 10)
    w = 0.2
    cur = s
    d0 = np.abs(s.probs - n_out.probs).max()
    for t in range(1, 15):
        cur = seed_update(cur, n_out, w)
        assert np.abs(cur.probs - n_out.probs).max() == pytest.approx(
            (1 - w) ** t * d0, abs=1e-9
        )


def test_labels_from_state():
    spmap = SuperpixelMap(np.array([[0, 1, 2]], dtype=np.int32))
    s = SeedState(np.array([[0.0, 0.1, 0.5], [0.0, 0.7, 0.5]]))
    lab = labels_from_state(s, spmap)
    assert lab.labels[0, 0] == IGNORE  # all-zero column
    assert lab.labels[0, 1] == 1
    assert lab.labels[0, 2] == 0  # tie goes to smaller category id


def test_labels_from_state_rejects_categories_past_ignore():
    spmap = SuperpixelMap(np.array([[0, 1]], dtype=np.int32))
    probs = np.zeros((257, 2))
    probs[256, 0] = probs[255, 1] = 1.0  # as uint8: category 0 and ignore
    with pytest.raises(ShapeMismatch):
        labels_from_state(SeedState(probs), spmap)
    probs = np.zeros((255, 2))
    probs[254, 0] = probs[3, 1] = 1.0
    assert labels_from_state(SeedState(probs), spmap).labels.tolist() == [[254, 3]]


def test_shape_mismatch_errors(rng):
    a = random_state(rng, 2, 4)
    b = random_state(rng, 2, 5)
    with pytest.raises(ShapeMismatch):
        seed_update(a, b, 0.5)
    with pytest.raises(ShapeMismatch):
        convergence_check(a, b)
    with pytest.raises(ShapeMismatch):
        walk_step(a, rel_from(np.eye(4)), b)
    with pytest.raises(ShapeMismatch):  # rows match the state, columns do not
        walk_step(a, rel_from(np.ones((4, 5))), a)
