import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedloop import (
    adjacency_matrix,
    build_relationship,
    distance_matrix,
    relationship_matrix,
    similarity_matrix,
)
from seedloop import relgraph
from seedloop.errors import InvalidParams, ShapeMismatch
from seedloop.relgraph import RelationshipMatrix
from seedloop.superpixel import SuperpixelMap
from tests.conftest import random_spmap


def test_distance_identical_rows_zero():
    d = distance_matrix(np.ones((4, 3)))
    assert np.allclose(d, 0.0)


def test_distance_345():
    d = distance_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert d[0, 1] == pytest.approx(5.0)
    assert d[1, 0] == pytest.approx(5.0)
    assert d[0, 0] == 0.0


def test_distance_matches_brute_force(rng):
    v = rng.standard_normal((8, 5))
    d = distance_matrix(v)
    for i in range(8):
        for j in range(8):
            assert d[i, j] == pytest.approx(np.linalg.norm(v[i] - v[j]), abs=1e-12)


def test_similarity_m_ge_n_all_ones(rng):
    d = distance_matrix(rng.standard_normal((3, 4)))
    assert (similarity_matrix(d, 10) == 1).all()


@pytest.mark.parametrize("m", [0, -1, 2.5, True])
def test_similarity_rejects_m_below_one(m):
    # m = 0 marked no column and m = -1 all but the farthest one of each row;
    # 2.5 failed as a bare TypeError and True marked one column
    with pytest.raises(InvalidParams):
        similarity_matrix(np.zeros((3, 3)), m)


@pytest.mark.parametrize("m", [0, 2.5])
def test_build_relationship_checks_m_before_distances(monkeypatch, m):
    def no_work(*args):
        raise AssertionError("distances computed before m was checked")

    monkeypatch.setattr(relgraph, "distance_matrix", no_work)
    spmap = SuperpixelMap(np.array([[0, 1]], dtype=np.int32))
    with pytest.raises(InvalidParams):
        build_relationship(np.zeros((2, 3)), spmap, m)


def test_similarity_row_definition():
    d = np.array(
        [
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 0.0, 2.0, 3.0],
            [2.0, 2.0, 0.0, 3.0],
            [3.0, 3.0, 3.0, 0.0],
        ]
    )
    s = similarity_matrix(d, 2)
    assert list(s[0]) == [1, 1, 0, 0]  # self plus column 1


def test_similarity_matches_sort_oracle(rng):
    d = distance_matrix(rng.standard_normal((12, 6)))
    s = similarity_matrix(d, 10)
    for i in range(12):
        order = sorted(range(12), key=lambda j: (d[i, j], j))
        expected = np.zeros(12, dtype=np.uint8)
        expected[order[:10]] = 1
        assert np.array_equal(s[i], expected)
        assert s[i].sum() == 10
        assert s[i, i] == 1


def test_adjacency_single_region():
    spmap = SuperpixelMap(np.zeros((1, 1), dtype=np.int32))
    assert np.array_equal(adjacency_matrix(spmap), [[1]])


def test_adjacency_two_cells():
    spmap = SuperpixelMap(np.array([[0, 1]], dtype=np.int32))
    assert np.array_equal(adjacency_matrix(spmap), [[1, 1], [1, 1]])


def test_adjacency_three_stripes():
    region_of = np.repeat(np.array([[0, 1, 2]], dtype=np.int32), 3, axis=0)
    spmap = SuperpixelMap(region_of)
    a = adjacency_matrix(spmap)
    assert a[0, 2] == 0 and a[2, 0] == 0
    assert a[0, 1] == 1 and a[1, 2] == 1
    assert np.array_equal(a, a.T)
    assert (np.diag(a) == 1).all()


def test_relationship_identity_of_product(rng):
    spmap = random_spmap(rng)
    adj = adjacency_matrix(spmap)
    siml = np.ones_like(adj)
    rel = relationship_matrix(siml, adj)
    assert rel.m_rel.dtype == np.float64  # what the walk multiplies by, uncast
    assert np.array_equal(rel.m_rel, adj)


def test_relationship_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        relationship_matrix(np.ones((3, 3), dtype=np.uint8), np.ones((4, 4), dtype=np.uint8))


def test_relationship_matches_nested_loop_oracle(rng):
    n = 12
    siml = (rng.random((n, n)) < 0.4).astype(np.uint8)
    adj = (rng.random((n, n)) < 0.4).astype(np.uint8)
    rel = relationship_matrix(siml, adj)
    for i in range(n):
        for j in range(n):
            assert rel.m_rel[i, j] == (1 if siml[i, j] and adj[i, j] else 0)


@pytest.mark.parametrize(
    "m_rel",
    [np.ones((2, 3)), np.ones(3), np.array([[1.0, 0.0], [2.0, 1.0]]), np.full((2, 2), np.nan)],
    ids=["not_square", "not_2d", "value_2", "nan"],
)
def test_relationship_matrix_rejects_bad_input(m_rel):
    with pytest.raises(ShapeMismatch):
        RelationshipMatrix(m_rel)


def test_similarity_duplicate_rows_can_drop_the_diagonal():
    # every column ties at distance 0, so each row keeps column 0 only
    s = similarity_matrix(np.zeros((3, 3)), 1)
    assert np.array_equal(s, [[1, 0, 0], [1, 0, 0], [1, 0, 0]])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=10))
def test_rel_implies_both_factors(seed, m):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    d = distance_matrix(rng.standard_normal((n, 4)))
    siml = similarity_matrix(d, m)
    adj = (rng.random((n, n)) < 0.5).astype(np.uint8)
    np.fill_diagonal(adj, 1)
    adj = np.maximum(adj, adj.T)
    rel = relationship_matrix(siml, adj)
    assert (rel.m_rel <= (siml & adj)).all()
    assert (np.diag(rel.m_rel) == 1).all()


def test_adjacency_relabel_invariance(rng):
    spmap = random_spmap(rng)
    perm = rng.permutation(spmap.n_regions)
    permuted = SuperpixelMap(perm[spmap.region_of].astype(np.int32))
    a = adjacency_matrix(spmap)
    b = adjacency_matrix(permuted)
    assert np.array_equal(a, b[np.ix_(perm, perm)])
