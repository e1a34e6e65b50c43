import numpy as np
import pytest

from seedloop import LinearSegmenter, labeled_targets, loss_and_grad, predict, train_epochs
from seedloop.errors import InvalidParams, NoLabeledRegions, ShapeMismatch
from seedloop.seeds import SeedState


def test_zero_model_uniform_predictions(rng):
    model = LinearSegmenter(np.zeros((5, 4)))
    out = predict(model, rng.standard_normal((7, 5)))
    assert np.allclose(out.probs, 0.25)


def test_bias_saturation():
    model = LinearSegmenter(np.zeros((2, 3)), np.array([10.0, 0.0, 0.0]))
    out = predict(model, np.zeros((3, 2)))
    assert np.allclose(out.probs[0], 1.0, atol=1e-4)


def test_predict_matches_straight_line_softmax(rng):
    model = LinearSegmenter(rng.standard_normal((4, 3)), rng.standard_normal(3))
    f = rng.standard_normal((5, 4))
    out = predict(model, f)
    for j in range(5):
        logits = model.weights.T @ f[j] + model.bias
        e = np.exp(logits)
        assert np.allclose(out.probs[:, j], e / e.sum(), atol=1e-12)
    assert np.allclose(out.probs.sum(axis=0), 1.0, atol=1e-6)


def test_predict_shape_mismatch(rng):
    model = LinearSegmenter(np.zeros((4, 3)))
    with pytest.raises(ShapeMismatch):
        predict(model, rng.standard_normal((5, 6)))


def test_loss_no_labeled_regions(rng):
    model = LinearSegmenter(np.zeros((3, 2)))
    f, unlabeled = rng.standard_normal((4, 3)), SeedState(np.zeros((2, 4)))
    with pytest.raises(NoLabeledRegions):
        labeled_targets(f, unlabeled)
    with pytest.raises(NoLabeledRegions):
        loss_and_grad(model, f[:0], np.zeros((2, 0)), 1e-3)
    with pytest.raises(NoLabeledRegions):
        train_epochs(model, f[:0], np.zeros((2, 0)), 1, 1e-2, 1e-3)


def test_perfect_predictions_near_zero_loss():
    model = LinearSegmenter(np.zeros((2, 2)), np.array([50.0, -50.0]))
    f = np.zeros((3, 2))
    mixed = SeedState(np.vstack([np.ones(3), np.zeros(3)]))
    loss, _, _ = loss_and_grad(model, *labeled_targets(f, mixed), 0.0)
    assert loss == pytest.approx(0.0, abs=1e-20)


def test_gradient_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(5):
        model = LinearSegmenter(rng.standard_normal((4, 3)), rng.standard_normal(3))
        f = rng.standard_normal((6, 4))
        probs = rng.random((3, 6))
        probs[:, rng.integers(0, 6)] = 0.0  # keep an unlabeled column
        mixed = SeedState(probs / np.maximum(probs.sum(axis=0, keepdims=True), 1.0))
        f_lab, y = labeled_targets(f, mixed)
        _, grad_w, grad_b = loss_and_grad(model, f_lab, y, 1e-3)

        def loss_at(wts, bias):
            return loss_and_grad(LinearSegmenter(wts, bias), f_lab, y, 1e-3)[0]

        fd_w = np.zeros_like(grad_w)
        for i in range(4):
            for c in range(3):
                wp, wm = model.weights.copy(), model.weights.copy()
                wp[i, c] += h
                wm[i, c] -= h
                fd_w[i, c] = (loss_at(wp, model.bias) - loss_at(wm, model.bias)) / (2 * h)
        fd_b = np.zeros_like(grad_b)
        for c in range(3):
            bp, bm = model.bias.copy(), model.bias.copy()
            bp[c] += h
            bm[c] -= h
            fd_b[c] = (loss_at(model.weights, bp) - loss_at(model.weights, bm)) / (2 * h)
        scale = max(np.abs(grad_w).max(), np.abs(fd_w).max())
        assert np.abs(grad_w - fd_w).max() / scale < 1e-4
        assert np.abs(grad_b - fd_b).max() / max(np.abs(grad_b).max(), 1e-8) < 1e-4


def test_training_decreases_loss_on_separable_toy(rng):
    f = np.vstack([rng.normal(-2, 0.2, size=(10, 3)), rng.normal(2, 0.2, size=(10, 3))])
    labels = np.zeros((2, 20))
    labels[0, :10] = 1.0
    labels[1, 10:] = 1.0
    mixed = SeedState(labels)
    model = LinearSegmenter(np.zeros((3, 2)))
    losses = []
    for _ in range(50):
        losses.append(loss_and_grad(model, *labeled_targets(f, mixed), 0.0)[0])
        # the returned loss is the one before the step
        assert train_epochs(model, *labeled_targets(f, mixed), 1, 1e-2, 0.0) == losses[-1]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_train_epochs_rejects_zero(rng):
    model = LinearSegmenter(np.zeros((3, 2)))
    mixed = SeedState(np.vstack([np.ones(4), np.zeros(4)]))
    f, y = labeled_targets(rng.standard_normal((4, 3)), mixed)
    for epochs in (0, 2.5, True):  # 2.5 failed as a bare TypeError; True ran once
        with pytest.raises(InvalidParams):
            train_epochs(model, f, y, epochs, 1e-2, 1e-3)


def test_training_deterministic(rng):
    f = rng.standard_normal((6, 4))
    mixed = SeedState(np.vstack([np.ones(6) * 0.5, np.ones(6) * 0.5]))
    runs = []
    for _ in range(2):
        model = LinearSegmenter(np.zeros((4, 2)))
        train_epochs(model, *labeled_targets(f, mixed), 10, 1e-2, 1e-3)
        runs.append((model.weights.copy(), model.bias.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def _reference_train_epochs(model, feats, mixed, epochs, learning_rate, l2):
    """The per-step loop: every step rebuilds the targets from the mixed seed
    and takes the loss."""
    losses = []
    for _ in range(epochs):
        loss, grad_w, grad_b = loss_and_grad(model, *labeled_targets(feats, mixed), l2)
        losses.append(loss)
        model.weights = model.weights - learning_rate * grad_w
        model.bias = model.bias - learning_rate * grad_b
    return losses[0]


@pytest.mark.parametrize("l2", [0.0, 1e-3])
@pytest.mark.parametrize("epochs", [1, 2, 3, 4, 5])
def test_train_epochs_matches_per_step_reference(rng, epochs, l2):
    for _ in range(10):
        n, d, c = rng.integers(1, 40), rng.integers(1, 8), rng.integers(2, 6)
        f = rng.standard_normal((n, d)) * rng.choice([0.1, 1.0, 10.0])
        probs = rng.random((c, n))
        probs[:, rng.random(n) < 0.3] = 0.0  # all-zero columns: unlabeled regions
        probs[:, rng.integers(0, n)] = rng.random(c) + 1e-3  # at least one labeled
        mixed = SeedState(probs / np.maximum(probs.sum(axis=0, keepdims=True), 1.0))
        w0, b0 = rng.standard_normal((d, c)), rng.standard_normal(c)
        got, want = LinearSegmenter(w0.copy(), b0.copy()), LinearSegmenter(w0.copy(), b0.copy())
        loss = train_epochs(got, *labeled_targets(f, mixed), epochs, 0.5, l2)
        want_loss = _reference_train_epochs(want, f, mixed, epochs, 0.5, l2)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


def test_loss_and_grad_rejects_targets_that_do_not_fit(rng):
    model = LinearSegmenter(np.zeros((3, 2)))
    f, y = labeled_targets(rng.standard_normal((4, 3)), SeedState(np.full((2, 4), 0.5)))
    for bad_f, bad_y in [(f[:, :2], y), (f[:3], y), (f, y[:1]), (f, y[:, :1]), (f[0], y)]:
        with pytest.raises(ShapeMismatch):
            loss_and_grad(model, bad_f, bad_y, 1e-3)


def test_sizes_read_from_weights():
    model = LinearSegmenter(np.zeros((3, 7)))
    assert (model.n_features, model.n_categories) == (3, 7)
    assert np.array_equal(model.bias, np.zeros(7))
    with pytest.raises(AttributeError):
        model.n_categories = 4


@pytest.mark.parametrize(
    "weights, bias",
    [
        (np.zeros((3, 7)), np.zeros(4)),  # bias length is not C
        (np.zeros((3, 7)), np.zeros((1, 7))),  # bias not a vector
        (np.zeros(7), None),  # weights not [D, C]
    ],
    ids=["bias_len", "bias_2d", "weights_1d"],
)
def test_mismatched_parameters_rejected(weights, bias):
    with pytest.raises(ShapeMismatch):
        LinearSegmenter(weights, bias)


def test_non_finite_parameters_rejected():
    with pytest.raises(InvalidParams):
        LinearSegmenter(np.full((2, 3), np.nan))
