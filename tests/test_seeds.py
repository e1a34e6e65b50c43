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
from seedloop.seeds import make_state
from seedloop.superpixel import SuperpixelMap
from seedloop.tensorio import IGNORE


def rel_from(m):
    m = np.asarray(m, dtype=np.uint8)
    return RelationshipMatrix(m, m, m)


def random_state(rng, c, n):
    p = rng.random((c, n))
    return make_state(p / np.maximum(p.sum(axis=0, keepdims=True), 1.0))


def test_gate_keeps_confident_background():
    s = make_state([[0.95], [0.05]])
    out = gate(s, 0.90, 0.90)
    assert np.array_equal(out.probs, s.probs)


def test_gate_drops_unconfident_foreground():
    s = make_state([[0.10], [0.80]])
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
    z = make_state(np.zeros((2, 5)))
    n_out = random_state(rng, 2, 5)
    out = walk_step(z, rel_from(np.ones((5, 5))), n_out)
    assert (out.probs == 0).all()


def test_walk_step_chain_hand_case():
    # 4-node chain with self-loops; single unit seed at node 0, guidance 0.8
    chain = np.eye(4, dtype=np.uint8)
    for i in range(3):
        chain[i, i + 1] = chain[i + 1, i] = 1
    s = make_state([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    n_out = make_state([[0.2] * 4, [0.8] * 4])
    out = walk_step(s, rel_from(chain), n_out)
    assert np.allclose(out.probs[1], [0.8, 0.8, 0.0, 0.0])


def test_custom_walk_support_grows_with_steps(rng):
    n = 6
    chain = np.eye(n, dtype=np.uint8)
    for i in range(n - 1):
        chain[i, i + 1] = chain[i + 1, i] = 1
    s = make_state(np.vstack([np.zeros(n), np.eye(n)[0]]))
    n_out = make_state(np.vstack([np.full(n, 0.1), np.full(n, 0.9)]))
    gates = GateParams(0.5, 0.5, 0.5, 0.5)
    sup1 = custom_walk(s, rel_from(chain), n_out, gates, 1).probs > 0
    sup2 = custom_walk(s, rel_from(chain), n_out, gates, 2).probs > 0
    assert (sup1 <= sup2).all()
    assert sup2.sum() > sup1.sum()


def test_custom_walk_zero_guidance_keeps_gated_seeds(rng):
    s = random_state(rng, 3, 6)
    n_out = make_state(np.zeros((3, 6)))
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
    n_out = make_state(np.zeros((2, 4)))
    gates = GateParams(0.0, 0.0, 0.5, 0.5)
    strict = custom_walk(s, rel_from(np.eye(4)), n_out, gates, 1, strict=True)
    assert (strict.probs == 0).all()


def test_seed_update_identities(rng):
    a = random_state(rng, 3, 8)
    b = random_state(rng, 3, 8)
    assert np.array_equal(seed_update(a, b, 0.0).probs, a.probs)
    assert np.array_equal(seed_update(a, b, 1.0).probs, b.probs)


def test_seed_update_arithmetic():
    a = make_state([[0.5], [0.0]])
    b = make_state([[0.9], [0.0]])
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


def test_convergence_identical_states(rng):
    s = random_state(rng, 3, 10)
    stopped, frac = convergence_check(s, s)
    assert stopped and frac == 1.0


def test_convergence_boundary_fraction():
    prev = make_state(np.zeros((2, 20)))
    nxt = np.zeros((2, 20))
    nxt[0, 0] = 0.2
    stopped, frac = convergence_check(prev, make_state(nxt), ConvergenceParams(0.1, 0.95))
    assert stopped and frac == pytest.approx(0.95)


def test_convergence_all_changed():
    prev = make_state(np.zeros((2, 5)))
    nxt = make_state(np.full((2, 5), 0.2))
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
    spmap = SuperpixelMap(3, 1, np.array([[0, 1, 2]], dtype=np.int32), 3)
    s = make_state([[0.0, 0.1, 0.5], [0.0, 0.7, 0.5]])
    lab = labels_from_state(s, spmap)
    assert lab.labels[0, 0] == IGNORE  # all-zero column
    assert lab.labels[0, 1] == 1
    assert lab.labels[0, 2] == 0  # tie goes to smaller category id


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
