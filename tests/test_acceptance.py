"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from seedloop import (
    GateParams,
    IGNORE,
    LabelMap,
    LoopConfig,
    build_relationship,
    confusion,
    custom_walk,
    felzenszwalb,
    gen_synthetic,
    scores,
    seed_update,
)
from seedloop.pipeline import ablation_configs, score_pairs, score_scenes, seeds_as_prediction
from seedloop.relgraph import RelationshipMatrix, distance_matrix
from seedloop.seeds import ConvergenceParams, SeedState, _gate, convergence_check
from seedloop.segmenter import LinearSegmenter, labeled_targets, loss_and_grad
from seedloop.superpixel import SegParams
from tests.conftest import make_image, random_spmap
from tests.test_superpixel import assert_valid_spmap

# regression bound frozen from the first full run of this implementation:
# seed-only mIoU 0.3057, closed-loop mIoU 0.9890 on 20 scenes, rng_seed=7
PINNED_MIN_IMPROVEMENT = 0.60

# SHA-256 of every pinned64 prediction and trace, shared with the benchmark
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL — {desc}")
                raise
            print(f"criterion {num}: PASS — {desc} ({time.time() - start:.1f}s)")

        return wrapper

    return deco


@criterion(1, "relationship matrix oracle equivalence, 200 instances")
def test_criterion_1_relmat_oracle():
    rng = np.random.default_rng(1)
    start = time.time()
    for _ in range(200):
        spmap = random_spmap(rng, 4, 4, 3)
        while spmap.n_regions > 12:
            spmap = random_spmap(rng, 4, 4, 3)
        n = spmap.n_regions
        m = int(rng.integers(1, 11))
        v = rng.standard_normal((n, 4))
        d = distance_matrix(v)
        rel = build_relationship(v, spmap, m)

        # brute-force constructions
        siml_bf = np.zeros((n, n), dtype=np.uint8)
        for i in range(n):
            order = sorted(range(n), key=lambda j: (d[i, j], j))
            for j in order[: min(m, n)]:
                siml_bf[i, j] = 1
        adj_bf = np.zeros((n, n), dtype=np.uint8)
        for y in range(spmap.height):
            for x in range(spmap.width):
                a = spmap.region_of[y, x]
                adj_bf[a, a] = 1
                if x + 1 < spmap.width:
                    b = spmap.region_of[y, x + 1]
                    adj_bf[a, b] = adj_bf[b, a] = 1
                if y + 1 < spmap.height:
                    b = spmap.region_of[y + 1, x]
                    adj_bf[a, b] = adj_bf[b, a] = 1
        rel_bf = siml_bf & adj_bf

        assert rel.m_rel.dtype == np.float64
        assert np.array_equal(rel.m_rel, rel_bf)
    assert time.time() - start < 5.0


@criterion(2, "metrics oracle equivalence, 100 random 16x16 pairs")
def test_criterion_2_metrics_oracle():
    rng = np.random.default_rng(2)
    start = time.time()
    for _ in range(100):
        gt_arr = rng.integers(0, 4, size=(16, 16)).astype(np.uint8)
        gt_arr[rng.random((16, 16)) < 0.15] = IGNORE
        pred_arr = rng.integers(0, 4, size=(16, 16)).astype(np.uint8)
        gt = LabelMap(gt_arr)
        pred = LabelMap(pred_arr)

        cm_bf = np.zeros((4, 4), dtype=np.int64)
        for y in range(16):
            for x in range(16):
                if gt_arr[y, x] != IGNORE:
                    cm_bf[gt_arr[y, x], pred_arr[y, x]] += 1
        total = cm_bf.sum()
        if total == 0:
            continue
        accu_bf = np.trace(cm_bf) / total
        ious, weights = [], []
        per_class_iou = np.zeros(4)
        for c in range(4):
            union = cm_bf[c].sum() + cm_bf[:, c].sum() - cm_bf[c, c]
            if union > 0:
                per_class_iou[c] = cm_bf[c, c] / union
                ious.append(per_class_iou[c])
        miou_bf = float(np.mean(ious))
        fiou_bf = float(sum(cm_bf[c].sum() / total * per_class_iou[c] for c in range(4)))

        cm = confusion(pred, gt, 4)
        assert np.array_equal(cm, cm_bf)
        accu, miou, fiou = scores(cm)
        assert abs(accu - accu_bf) < 1e-12
        assert abs(miou - miou_bf) < 1e-12
        assert abs(fiou - fiou_bf) < 1e-12
    assert time.time() - start < 5.0


def walk_support_oracle(s0_probs, g_probs, m_rel, steps):
    """Per category: set propagation through m_rel masked by the gated
    network-output support, merged with the original support."""
    c, n = s0_probs.shape
    support = np.zeros((c, n), dtype=bool)
    for cat in range(c):
        t = set(np.nonzero(s0_probs[cat] > 0)[0].tolist())
        g_sup = set(np.nonzero(g_probs[cat] > 0)[0].tolist())
        for _ in range(steps):
            t = {j for j in range(n) if any(m_rel[i, j] for i in t)} & g_sup
        support[cat] = [j in t or s0_probs[cat, j] > 0 for j in range(n)]
    return support


@criterion(3, "walk support equals reachability oracle; monotone in steps")
def test_criterion_3_walk_support():
    rng = np.random.default_rng(3)
    start = time.time()
    for _ in range(100):
        n = int(rng.integers(2, 21))
        c = int(rng.integers(2, 4))
        m_rel = (rng.random((n, n)) < 0.3).astype(np.uint8)
        np.fill_diagonal(m_rel, 1)
        rel = RelationshipMatrix(m_rel)
        p = rng.random((c, n)) * (rng.random((c, n)) < 0.7)
        s = SeedState(p / np.maximum(p.sum(axis=0, keepdims=True), 1.0))
        q = rng.random((c, n))
        n_out = SeedState(q / q.sum(axis=0, keepdims=True))
        gates = GateParams(*rng.uniform(0.1, 0.8, size=4))
        steps = int(rng.integers(1, 4))

        mixed = custom_walk(s, rel, n_out, gates, steps)
        s0 = _gate(s.probs, gates.alpha_fg, gates.alpha_bg)
        g = _gate(n_out.probs, gates.beta_fg, gates.beta_bg)
        predicted = walk_support_oracle(s0, g, m_rel, steps)
        assert np.array_equal(mixed.probs > 0, predicted)

        nxt = custom_walk(s, rel, n_out, gates, steps + 1)
        assert ((mixed.probs > 0) <= (nxt.probs > 0)).all()
    assert time.time() - start < 10.0


@criterion(4, "seed-update algebra and convergence monitor")
def test_criterion_4_update_algebra():
    rng = np.random.default_rng(4)
    p = rng.random((3, 40))
    s0 = SeedState(p / np.maximum(p.sum(axis=0, keepdims=True), 1.0))
    q = rng.random((3, 40))
    n_out = SeedState(q / q.sum(axis=0, keepdims=True))

    assert np.array_equal(seed_update(s0, n_out, 0.0).probs, s0.probs)
    assert np.array_equal(seed_update(s0, n_out, 1.0).probs, n_out.probs)
    for w in (0.2, 0.5, 0.9):
        out = seed_update(s0, n_out, w).probs
        assert (out >= np.minimum(s0.probs, n_out.probs) - 1e-12).all()
        assert (out <= np.maximum(s0.probs, n_out.probs) + 1e-12).all()

    w = 0.2
    params = ConvergenceParams(delta=0.1, rho=0.95)
    d0 = np.abs(s0.probs - n_out.probs).max()
    col_l1 = np.abs(s0.probs - n_out.probs).sum(axis=0)
    predicted_stop = next(
        t
        for t in range(1, 1000)
        if (w * (1 - w) ** (t - 1) * col_l1 < params.delta).mean() >= params.rho
    )
    cur = s0
    for t in range(1, predicted_stop + 1):
        nxt = seed_update(cur, n_out, w)
        assert abs(np.abs(nxt.probs - n_out.probs).max() - (1 - w) ** t * d0) < 1e-9
        stopped, _ = convergence_check(cur, nxt, params)
        assert stopped == (t >= predicted_stop)
        cur = nxt
    print(f"  monitor stopped at predicted iteration {predicted_stop}", end=" ")


@criterion(5, "segmenter gradient vs central finite differences, 20 instances")
def test_criterion_5_gradient_check():
    rng = np.random.default_rng(5)
    start = time.time()
    h = 1e-5
    for _ in range(20):
        d, c, n = int(rng.integers(2, 8)), int(rng.integers(2, 5)), int(rng.integers(3, 10))
        model = LinearSegmenter(rng.standard_normal((d, c)), rng.standard_normal(c))
        f = rng.standard_normal((n, d))
        p = rng.random((c, n))
        mixed = SeedState(p / p.sum(axis=0, keepdims=True))
        f, y = labeled_targets(f, mixed)
        _, grad_w, grad_b = loss_and_grad(model, f, y, 1e-3)

        def loss_at(wts, bias, f=f, y=y):
            return loss_and_grad(LinearSegmenter(wts, bias), f, y, 1e-3)[0]

        fd_w = np.zeros_like(grad_w)
        for i in range(d):
            for j in range(c):
                wp, wm = model.weights.copy(), model.weights.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd_w[i, j] = (loss_at(wp, model.bias) - loss_at(wm, model.bias)) / (2 * h)
        fd_b = np.zeros_like(grad_b)
        for j in range(c):
            bp, bm = model.bias.copy(), model.bias.copy()
            bp[j] += h
            bm[j] -= h
            fd_b[j] = (loss_at(model.weights, bp) - loss_at(model.weights, bm)) / (2 * h)
        rel_w = np.abs(grad_w - fd_w).max() / max(np.abs(grad_w).max(), np.abs(fd_w).max())
        rel_b = np.abs(grad_b - fd_b).max() / max(np.abs(grad_b).max(), np.abs(fd_b).max(), 1e-12)
        assert rel_w < 1e-4
        assert rel_b < 1e-4
    assert time.time() - start < 5.0


@criterion(6, "segmentation sanity and invariants on 50 random images")
def test_criterion_6_segmentation_invariants():
    start = time.time()
    img = make_image(np.full((32, 32, 3), 128))
    assert felzenszwalb(img, SegParams()).n_regions == 1
    assert felzenszwalb(img, SegParams(k=5, sigma=2.0, min_size=1)).n_regions == 1

    arr = np.zeros((32, 32, 3), dtype=np.uint8)
    arr[:, 16:, :] = 255
    assert felzenszwalb(make_image(arr), SegParams(k=100, sigma=0, min_size=1)).n_regions == 2

    rng = np.random.default_rng(6)
    for _ in range(50):
        img = make_image(rng.integers(0, 256, size=(32, 32, 3)))
        spmap = felzenszwalb(img, SegParams(k=80, sigma=0.6, min_size=8))
        assert_valid_spmap(spmap)
    assert time.time() - start < 10.0


@pytest.fixture(scope="module")
def synthetic_scenes():
    return gen_synthetic(7, 20)


@criterion(7, "closed loop beats the initial seeds on 20 synthetic scenes")
def test_criterion_7_end_to_end(synthetic_scenes):
    start = time.time()
    seed_pairs = ((seeds_as_prediction(seeds), gt) for _img, gt, seeds in synthetic_scenes)
    seed_miou = score_pairs(seed_pairs, 4)[1]
    loop_miou = score_scenes(synthetic_scenes, LoopConfig())[1]
    print(f"  seed-only mIoU={seed_miou:.4f} loop mIoU={loop_miou:.4f}", end=" ")
    assert loop_miou > seed_miou
    assert loop_miou - seed_miou >= PINNED_MIN_IMPROVEMENT
    assert time.time() - start < 60.0


@criterion(8, "both chains rank at least as high as each single chain")
def test_criterion_8_ablation_ranking(synthetic_scenes):
    start = time.time()
    arms = ablation_configs(LoopConfig())
    miou_full, miou_c1, miou_c2 = (
        score_scenes(synthetic_scenes, arms[name])[1]
        for name in ("baseline+F1+F2", "baseline+F1", "baseline+F2")
    )
    print(f"  full={miou_full:.4f} chain1={miou_c1:.4f} chain2={miou_c2:.4f}", end=" ")
    assert miou_full >= miou_c1
    assert miou_full >= miou_c2
    assert time.time() - start < 180.0


@criterion(9, "two full runs give byte-identical predictions and traces, as in golden.json")
def test_criterion_9_determinism(tmp_path, synthetic_scenes):
    from seedloop.pipeline import run_dataset
    from seedloop.tensorio import save_label_pgm, save_ppm

    data = tmp_path / "data"
    data.mkdir()
    for i, (img, gt, seeds) in enumerate(synthetic_scenes):
        save_ppm(img, data / f"{i:04d}.ppm")
        save_label_pgm(gt, data / f"{i:04d}.gt.pgm")
        save_label_pgm(seeds, data / f"{i:04d}.seeds.pgm")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    res_a = run_dataset(data, LoopConfig(), out_a)
    res_b = run_dataset(data, LoopConfig(), out_b)
    assert res_a == res_b
    for f in sorted(out_a.iterdir()):
        assert f.read_bytes() == (out_b / f.name).read_bytes()
    # outputs stay those of the recorded reference commit, not only between runs
    golden = json.loads(GOLDEN_PATH.read_text())["pinned64"]
    for i in range(len(synthetic_scenes)):
        for suffix, digests in ((".pred.pgm", golden["pred"]), (".trace.txt", golden["trace"])):
            data = (out_a / f"{i:04d}{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digests[i], f"{i:04d}{suffix}"
