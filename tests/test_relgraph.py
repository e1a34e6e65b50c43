import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.workloads import WORKLOADS
from seedloop import (
    SegParams,
    SynthParams,
    build_relationship,
    felzenszwalb,
    gen_synthetic,
    rag_merge,
    superpixel,
    superpixel_features,
)
from seedloop import relgraph
from seedloop.features import standardize
from seedloop.errors import InvalidParams, ShapeMismatch
from seedloop.pipeline import prepare_scene
from seedloop.relgraph import RelationshipMatrix, _check_top_m, distance_matrix
from seedloop.superpixel import SuperpixelMap, region_edges
from tests.conftest import random_spmap

# four regions, each sharing a 4-connected border with the other three, so
# every top-m mark shows in the relationship matrix
K4 = SuperpixelMap(np.array([[0, 0, 0, 0], [1, 2, 2, 3], [1, 1, 3, 3]], dtype=np.int32))


def _top_m_oracle(d, m):
    """Row i marks its min(m, N) nearest columns, ties to the smaller index."""
    n = len(d)
    out = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        out[i, sorted(range(n), key=lambda j: (d[i, j], j))[:m]] = 1
    return out


def _reference_build_relationship(feats, spmap, m):
    """The full-sort build: a stable argsort of every row marks its min(m, N)
    nearest columns, ANDed with adjacency plus the diagonal."""
    _check_top_m(m)
    n = spmap.n_regions
    order = np.argsort(distance_matrix(feats), axis=1, kind="stable")
    near = np.zeros((n, n), dtype=bool)
    np.put_along_axis(near, order[:, : min(m, n)], True, axis=1)
    adj = np.eye(n, dtype=bool)
    i, j = region_edges(spmap.region_of).T
    adj[i, j] = adj[j, i] = True
    return RelationshipMatrix((near & adj).astype(np.float64))


def _oracle_ms(n):
    return sorted({1, 2, 10, max(n - 1, 1), n, n + 3})


def _assert_matches_reference(feats, spmap):
    for m in _oracle_ms(spmap.n_regions):
        got = build_relationship(feats, spmap, m).m_rel
        want = _reference_build_relationship(feats, spmap, m).m_rel
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), m


def _adjacency_oracle(spmap):
    """1 where two regions touch across a 4-connected border, and on the diagonal."""
    adj = np.eye(spmap.n_regions, dtype=np.uint8)
    r = spmap.region_of
    for y in range(spmap.height):
        for x in range(spmap.width):
            for b in r[y, x + 1 : x + 2].tolist() + r[y + 1 : y + 2, x].tolist():
                adj[r[y, x], b] = adj[b, r[y, x]] = 1
    return adj


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
    # every pair of K4 is adjacent, so m >= N marks the whole matrix
    for m in (4, 10):
        rel = build_relationship(rng.standard_normal((4, 3)), K4, m)
        assert (rel.m_rel == 1).all()


@pytest.mark.parametrize("m", [0, -1, 2.5, True])
def test_similarity_rejects_m_below_one(m):
    # m = 0 marked no column and m = -1 all but the farthest one of each row;
    # 2.5 failed as a bare TypeError and True marked one column
    with pytest.raises(InvalidParams):
        build_relationship(np.zeros((4, 3)), K4, m)


@pytest.mark.parametrize("m", [0, 2.5])
def test_build_relationship_checks_m_before_distances(monkeypatch, m):
    def no_work(*args):
        raise AssertionError("distances computed before m was checked")

    monkeypatch.setattr(relgraph, "distance_matrix", no_work)
    spmap = SuperpixelMap(np.array([[0, 1]], dtype=np.int32))
    with pytest.raises(InvalidParams):
        build_relationship(np.zeros((2, 3)), spmap, m)


def test_similarity_row_definition():
    # 1-D descriptors 0, 1, 3, 6: row 2's nearest other row is 1 (distance 2),
    # row 3's is 2 (distance 3)
    rel = build_relationship(np.array([[0.0], [1.0], [3.0], [6.0]]), K4, 2)
    assert list(rel.m_rel[0]) == [1, 1, 0, 0]  # self plus column 1
    assert np.array_equal(rel.m_rel, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])


def test_similarity_matches_sort_oracle(rng):
    for m in range(1, 6):
        v = rng.standard_normal((4, 6))
        rel = build_relationship(v, K4, m)
        assert np.array_equal(rel.m_rel, _top_m_oracle(distance_matrix(v), m))
        assert (rel.m_rel.sum(axis=1) == min(m, 4)).all()
        assert (np.diag(rel.m_rel) == 1).all()


def test_adjacency_single_region():
    spmap = SuperpixelMap(np.zeros((1, 1), dtype=np.int32))
    assert np.array_equal(build_relationship(np.zeros((1, 3)), spmap, 1).m_rel, [[1]])


def test_adjacency_two_cells():
    spmap = SuperpixelMap(np.array([[0, 1]], dtype=np.int32))
    rel = build_relationship(np.array([[0.0], [1.0]]), spmap, 2)
    assert np.array_equal(rel.m_rel, [[1, 1], [1, 1]])


def test_adjacency_three_stripes(rng):
    spmap = SuperpixelMap(np.repeat(np.array([[0, 1, 2]], dtype=np.int32), 3, axis=0))
    a = build_relationship(rng.standard_normal((3, 2)), spmap, 3).m_rel
    assert a[0, 2] == 0 and a[2, 0] == 0
    assert a[0, 1] == 1 and a[1, 2] == 1
    assert np.array_equal(a, a.T)
    assert (np.diag(a) == 1).all()


def test_relationship_identity_of_product(rng):
    # with every column near, the matrix is the adjacency factor
    spmap = random_spmap(rng)
    n = spmap.n_regions
    rel = build_relationship(rng.standard_normal((n, 4)), spmap, n)
    assert rel.m_rel.dtype == np.float64  # what the walk multiplies by, uncast
    assert np.array_equal(rel.m_rel, _adjacency_oracle(spmap))


def test_relationship_shape_mismatch(monkeypatch):
    def no_work(*args):
        raise AssertionError("distances computed for the wrong number of rows")

    monkeypatch.setattr(relgraph, "distance_matrix", no_work)
    with pytest.raises(ShapeMismatch):
        build_relationship(np.zeros((3, 4)), K4, 2)


def test_relationship_matches_nested_loop_oracle(rng):
    spmap = random_spmap(rng, 8, 8, 3)
    n = spmap.n_regions
    v = rng.standard_normal((n, 4))
    rel = build_relationship(v, spmap, 3)
    siml, adj = _top_m_oracle(distance_matrix(v), 3), _adjacency_oracle(spmap)
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
    rel = build_relationship(np.zeros((4, 3)), K4, 1)
    assert np.array_equal(rel.m_rel, [[1, 0, 0, 0]] * 4)
    # m smaller-index duplicates push a row's own column out of its top m
    rel = build_relationship(np.array([[0.0], [0.0], [0.0], [5.0]]), K4, 2)
    assert list(np.diag(rel.m_rel)) == [1, 1, 0, 1]


def test_build_relationship_reads_a_rag_merge_output_without_region_edges(monkeypatch):
    # a many_regions scene: N > m, so the rank decides which pairs stay
    (img, _, _), = gen_synthetic(7, 1, SynthParams(128, 128))
    params = SegParams(k=20, min_size=5, merge_thresh=10)
    merged = rag_merge(felzenszwalb(img, params), img, params.merge_thresh)
    feats = standardize(superpixel_features(img, merged))
    calls = []

    def spy(region_of):
        calls.append(region_of.shape)
        return region_edges(region_of)

    monkeypatch.setattr(superpixel, "region_edges", spy)
    monkeypatch.setattr(relgraph, "region_edges", spy, raising=False)
    rel = build_relationship(feats, merged, 10)
    assert calls == []
    # a map without carried pairs finds them from its pixels, to the same matrix
    fresh = build_relationship(feats, SuperpixelMap(merged.region_of), 10)
    assert calls == [img.data.shape[:2]]
    assert rel.m_rel.tobytes() == fresh.m_rel.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=10))
def test_rel_implies_both_factors(seed, m):
    rng = np.random.default_rng(seed)
    spmap = random_spmap(rng, 5, 5, 3)
    n = spmap.n_regions
    v = rng.standard_normal((n, 4))
    rel = build_relationship(v, spmap, m)
    assert (rel.m_rel <= (_top_m_oracle(distance_matrix(v), m) & _adjacency_oracle(spmap))).all()
    assert (np.diag(rel.m_rel) == 1).all()


def test_adjacency_relabel_invariance(rng):
    spmap = random_spmap(rng)
    n = spmap.n_regions
    perm = rng.permutation(n)
    permuted = SuperpixelMap(perm[spmap.region_of].astype(np.int32))
    v = rng.standard_normal((n, 4))
    w = np.empty_like(v)
    w[perm] = v  # region r is region perm[r] of the permuted map
    a = build_relationship(v, spmap, n).m_rel
    b = build_relationship(w, permuted, n).m_rel
    assert np.array_equal(a, b[np.ix_(perm, perm)])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_build_relationship_matches_reference_on_workload_scenes(name):
    w = WORKLOADS[name]
    for img, gt, seeds in gen_synthetic(w.scene_seed, w.count, SynthParams(w.size, w.size)):
        scene = prepare_scene(img, seeds, w.cfg, gt)
        _assert_matches_reference(scene.feats, scene.spmap)


def test_build_relationship_matches_reference_on_ties(rng):
    for h, w, n_values in [(1, 1, 1), (1, 2, 2), (6, 6, 4), (12, 12, 3), (20, 20, 2)]:
        spmap = random_spmap(rng, h, w, n_values)
        n = spmap.n_regions
        # small integer descriptors: many rows share a distance
        _assert_matches_reference(rng.integers(0, 3, size=(n, 2)).astype(np.float64), spmap)
        # continuous descriptors rounded to one decimal
        _assert_matches_reference(np.round(rng.standard_normal((n, 3)), 1), spmap)
        # duplicate rows: a few distinct rows repeated in a random order
        distinct = rng.standard_normal((3, 4))
        _assert_matches_reference(distinct[rng.integers(0, 3, size=n)], spmap)
        # every row equal: every distance is zero
        _assert_matches_reference(np.ones((n, 3)), spmap)


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, 1e200], ids=["nan", "inf", "neg_inf", "overflow"]
)
@pytest.mark.parametrize("m", [1, 10])
def test_non_finite_descriptors_rejected_before_the_rank(monkeypatch, bad, m):
    # a NaN row used to take whatever rank argsort gave NaN; 1e200 squares to
    # inf inside the distances
    def no_rank(*args):
        raise AssertionError("pairs ranked on non-finite distances")

    monkeypatch.setattr(relgraph, "_top_k_pairs", no_rank)
    feats = np.random.default_rng(3).standard_normal((4, 3))
    feats[2, 1] = bad
    with pytest.raises(InvalidParams):
        build_relationship(feats, K4, m)
