import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitcat import tdnn
from unitcat.features import NUM_FILTERS
from unitcat.tdnn import (
    CHUNK_FRAMES,
    EMBED_DIM,
    MIN_FRAMES,
    STATS_DIM,
    AamParams,
    TdnnConfig,
    aam_loss,
    average_embeddings,
    forward,
    forward_activations,
    init_tdnn,
    layer_dims,
    load_params,
    loss_and_grads,
    save_params,
    splice,
    stats_pool,
    train_step,
    transfer_init,
)
from unitcat.workspace import Workspace


def _feats(t, seed=0, dim=NUM_FILTERS):
    return np.random.default_rng(seed).normal(scale=2.0, size=(t, dim))


def test_min_frames_follows_from_splice_contexts():
    assert MIN_FRAMES == 15


def test_layer_dims_table():
    assert layer_dims() == [
        ("frame1", 200, 256),
        ("frame2", 768, 256),
        ("frame3", 768, 256),
        ("frame4", 256, 256),
        ("frame5", 256, 512),
    ]
    assert STATS_DIM == 1024
    assert EMBED_DIM == 256


def test_init_shapes_and_determinism():
    cfg = TdnnConfig(num_classes=7)
    p = init_tdnn(cfg, seed=5)
    assert p.tensors["frame1.W"].shape == (256, 200)
    assert p.tensors["frame2.W"].shape == (256, 768)
    assert p.tensors["frame3.W"].shape == (256, 768)
    assert p.tensors["frame4.W"].shape == (256, 256)
    assert p.tensors["frame5.W"].shape == (512, 256)
    assert p.tensors["segment6.W"].shape == (256, 1024)
    assert p.tensors["projection.W"].shape == (256, 7)
    for name in ["frame1", "frame2", "frame3", "frame4", "frame5", "segment6"]:
        assert np.all(p.tensors[f"{name}.b"] == 0.0)
    q = init_tdnn(cfg, seed=5)
    for name in p.tensors:
        assert np.array_equal(p.tensors[name], q.tensors[name])
    r = init_tdnn(cfg, seed=6)
    assert not np.array_equal(p.tensors["frame1.W"], r.tensors["frame1.W"])


def test_init_weight_scale_tracks_fan_in():
    p = init_tdnn(TdnnConfig(num_classes=4), seed=1)
    for name, in_dim, _ in layer_dims():
        sd = float(p.tensors[f"{name}.W"].std())
        assert abs(sd - 1.0 / math.sqrt(in_dim)) < 0.2 / math.sqrt(in_dim)


def test_splice_small_example():
    x = np.arange(5.0)[:, None]
    out = splice(x, (-1, 0, 1))
    assert out.shape == (3, 3)
    assert out.tolist() == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]


def test_splice_too_short():
    with pytest.raises(ValueError, match="too short"):
        splice(np.zeros((4, 2)), (-2, 0, 2))


def test_stats_pool_small_example():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    pooled = stats_pool(h)
    assert np.allclose(pooled, [2.0, 3.0, 1.0, 1.0])


def test_stats_pool_constant_rows_hit_variance_floor():
    h = np.tile(np.array([1.5, -2.0, 0.0]), (6, 1))
    pooled = stats_pool(h)
    assert np.allclose(pooled[:3], [1.5, -2.0, 0.0])
    assert np.allclose(pooled[3:], 1e-5)


def test_stats_pool_duplication_invariance():
    h = np.random.default_rng(2).normal(size=(9, 5))
    assert np.allclose(stats_pool(h), stats_pool(np.vstack([h, h])))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=15, max_value=200))
def test_forward_shapes_over_random_lengths(t):
    p = init_tdnn(TdnnConfig(num_classes=3), seed=11)
    acts = forward_activations(p, _feats(t, seed=t))
    assert acts["frame1.out"].shape == (t - 4, 256)
    assert acts["frame2.out"].shape == (t - 8, 256)
    assert acts["frame3.out"].shape == (t - 14, 256)
    assert acts["frame4.out"].shape == (t - 14, 256)
    assert acts["frame5.out"].shape == (t - 14, 512)
    assert acts["pooled"].shape == (1024,)
    assert acts["embedding"].shape == (256,)
    assert acts["cosines"].shape == (3,)
    assert np.all(np.abs(acts["cosines"]) <= 1.0)


def test_forward_rejects_short_or_misshaped_input():
    p = init_tdnn(TdnnConfig(num_classes=2), seed=0)
    with pytest.raises(ValueError, match="at least 15"):
        forward(p, _feats(14))
    with pytest.raises(ValueError, match="features"):
        forward(p, np.zeros((20, 39)))


def test_minimum_length_input_pools_one_frame():
    p = init_tdnn(TdnnConfig(num_classes=2), seed=3)
    acts = forward_activations(p, _feats(MIN_FRAMES))
    assert acts["frame5.out"].shape == (1, 512)
    # single-frame variance collapses to the floor
    assert np.allclose(acts["pooled"][512:], 1e-5)


def test_embedding_is_pre_activation():
    p = init_tdnn(TdnnConfig(num_classes=2), seed=4)
    emb, _ = forward(p, _feats(30))
    assert np.any(emb < 0.0)


def test_frame_receptive_field_is_fifteen_frames():
    p = init_tdnn(TdnnConfig(num_classes=2), seed=5)
    feats = _feats(30, seed=8)
    base = forward_activations(p, feats)["frame5.out"]

    bumped = feats.copy()
    bumped[20] += 1.0
    out = forward_activations(p, bumped)["frame5.out"]
    # output frame k sees input frames [k, k+14]; frame 20 is seen by k in [6, 15]
    assert np.array_equal(out[:6], base[:6])
    assert not np.array_equal(out[6:], base[6:])

    bumped0 = feats.copy()
    bumped0[0] += 1.0
    out0 = forward_activations(p, bumped0)["frame5.out"]
    assert np.array_equal(out0[1:], base[1:])
    assert not np.array_equal(out0[0], base[0])


# --- margin loss ------------------------------------------------------------


def _unit_case(seed, dim=5, classes=4):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=dim)
    proj = rng.normal(size=(dim, classes))
    return e, proj


def test_aam_zero_margin_unit_scale_is_softmax_ce():
    e, proj = _unit_case(0)
    aam = AamParams(margin=0.0, scale=1.0)
    loss, _, _ = aam_loss(e, proj, 2, aam)
    cos = (e / np.linalg.norm(e)) @ (proj / np.linalg.norm(proj, axis=0))
    ref = -math.log(np.exp(cos[2]) / np.exp(cos).sum())
    assert loss == pytest.approx(ref, abs=1e-12)


def test_aam_single_class_is_zero_loss_zero_grad():
    e, proj = _unit_case(1, classes=1)
    loss, grad_e, grad_w = aam_loss(e, proj, 0, AamParams())
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad_e, 0.0, atol=1e-12)
    assert np.allclose(grad_w, 0.0, atol=1e-12)


def test_aam_margin_fallback_region_is_finite():
    # embedding exactly opposite its class column: theta = pi
    proj = np.eye(3)
    e = np.array([-2.0, 0.0, 0.0])
    loss, grad_e, grad_w = aam_loss(e, proj, 0, AamParams())
    assert math.isfinite(loss)
    assert np.all(np.isfinite(grad_e))
    assert np.all(np.isfinite(grad_w))


def test_aam_label_out_of_range():
    e, proj = _unit_case(2)
    with pytest.raises(ValueError, match="label"):
        aam_loss(e, proj, 4, AamParams())


def _fd_close(fd, an, rtol=1e-4, atol=1e-8):
    return abs(fd - an) <= atol + rtol * max(abs(fd), abs(an))


def test_aam_gradients_match_finite_differences():
    e, proj = _unit_case(7)
    aam = AamParams()
    _, grad_e, grad_w = aam_loss(e, proj, 1, aam)
    eps = 1e-6
    for i in range(len(e)):
        ep, em = e.copy(), e.copy()
        ep[i] += eps
        em[i] -= eps
        fd = (aam_loss(ep, proj, 1, aam)[0] - aam_loss(em, proj, 1, aam)[0]) / (2 * eps)
        assert _fd_close(fd, grad_e[i]), (i, fd, grad_e[i])
    for i in range(proj.shape[0]):
        for j in range(proj.shape[1]):
            pp, pm = proj.copy(), proj.copy()
            pp[i, j] += eps
            pm[i, j] -= eps
            fd = (aam_loss(e, pp, 1, aam)[0] - aam_loss(e, pm, 1, aam)[0]) / (2 * eps)
            assert _fd_close(fd, grad_w[i, j]), (i, j, fd, grad_w[i, j])


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_aam_loss_monotone_in_margin(seed, label, m1, m2):
    e, proj = _unit_case(seed)
    lo, hi = sorted((m1, m2))
    loss_lo, _, _ = aam_loss(e, proj, label, AamParams(margin=lo, scale=32.0))
    loss_hi, _, _ = aam_loss(e, proj, label, AamParams(margin=hi, scale=32.0))
    assert loss_lo <= loss_hi + 1e-9


def test_aam_rows_call_equals_its_one_row_calls():
    rng = np.random.default_rng(30)
    dim, classes = 6, 4
    proj = rng.normal(size=(dim, classes))
    # class columns 0 and 1 on basis vectors, so cosines of +-1 come out exact
    proj[:, 0], proj[:, 1] = 1.5 * np.eye(dim)[0], 0.5 * np.eye(dim)[1]
    rows = [
        (-2.0 * np.eye(dim)[1], 1),  # opposite its class column: the margin fallback
        (3.0 * np.eye(dim)[0], 0),  # parallel to its class column: sin theta_y = 0
    ] + [(rng.normal(size=dim), label) for label in (0, 1, 2, 3, 2)]
    embeddings = np.stack([e for e, _ in rows])
    labels = [label for _, label in rows]
    aam = AamParams()

    loss, grad_e, grad_w = aam_loss(embeddings, proj, labels, aam)
    ones = [aam_loss(e, proj, label, aam) for e, label in rows]
    assert abs(loss - sum(one[0] for one in ones)) <= 1e-12 * max(1.0, abs(loss))
    assert grad_e.shape == embeddings.shape and ones[0][1].shape == (dim,)
    np.testing.assert_allclose(grad_e, np.stack([one[1] for one in ones]), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grad_w, sum(one[2] for one in ones), rtol=1e-12, atol=1e-12)
    assert all(math.isfinite(one[0]) for one in ones)

    with pytest.raises(ValueError, match="label 7 out of range for 4 classes"):
        aam_loss(embeddings, proj, labels[:-1] + [7], aam)
    for bad in (labels[0], labels[:-1], [float(label) for label in labels]):
        with pytest.raises(ValueError, match="7 embedding row.* one int label each"):
            aam_loss(embeddings, proj, bad, aam)


def test_loss_and_grads_makes_one_aam_call_per_chunk(monkeypatch):
    params = init_tdnn(TdnnConfig(num_classes=3), seed=31)
    batch = [(_feats(CHUNK_FRAMES // 2, seed=i), i % 3) for i in range(5)]
    chunks = tdnn._chunks([len(feats) for feats, _ in batch])
    assert len(chunks) == 3
    calls = []

    def counting(embedding, proj, label, aam):
        calls.append(len(embedding))
        return aam_loss(embedding, proj, label, aam)

    monkeypatch.setattr(tdnn, "aam_loss", counting)
    loss_and_grads(params, batch, AamParams())
    assert calls == [len(chunk) for chunk in chunks]


def test_full_network_gradients_match_finite_differences():
    cfg = TdnnConfig(num_classes=3)
    params = init_tdnn(cfg, seed=21)
    feats = _feats(20, seed=22)
    aam = AamParams()
    label = 1
    _, grads = loss_and_grads(params, [(feats, label)], aam)

    eps = 1e-5
    rng = np.random.default_rng(23)
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
        for k in picks:
            orig = flat[k]
            flat[k] = orig + eps
            up = loss_and_grads(params, [(feats, label)], aam)[0]
            flat[k] = orig - eps
            down = loss_and_grads(params, [(feats, label)], aam)[0]
            flat[k] = orig
            fd = (up - down) / (2 * eps)
            an = grads[name].reshape(-1)[k]
            assert _fd_close(fd, an), (name, int(k), fd, an)


def _rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def test_stacked_batch_equals_sum_of_single_utterances():
    params = init_tdnn(TdnnConfig(num_classes=4), seed=24)
    aam = AamParams()
    # unequal lengths, one of exactly MIN_FRAMES, and more frames than one
    # chunk holds (one utterance longer than a chunk on its own)
    lengths = [MIN_FRAMES, 40, CHUNK_FRAMES - 30, 23, CHUNK_FRAMES + 10, 61, MIN_FRAMES]
    batch = [(_feats(t, seed=100 + i), i % 4) for i, t in enumerate(lengths)]
    assert sum(lengths) > 2 * CHUNK_FRAMES

    loss, grads = loss_and_grads(params, batch, aam)
    want_loss = 0.0
    want = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    for feats, label in batch:
        one_loss, one = loss_and_grads(params, [(feats, label)], aam)
        want_loss += one_loss
        for name, g in one.items():
            want[name] += g
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert list(grads) == list(params.tensors)
    for name in params.tensors:
        assert _rel_err(grads[name], want[name]) <= 1e-12, name


def test_stacked_batch_gradients_match_finite_differences():
    params = init_tdnn(TdnnConfig(num_classes=3), seed=25)
    batch = [(_feats(t, seed=t), label) for t, label in ((MIN_FRAMES, 0), (22, 2), (31, 1))]
    aam = AamParams()
    _, grads = loss_and_grads(params, batch, aam)

    eps = 1e-5
    rng = np.random.default_rng(26)
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        for k in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + eps
            up = loss_and_grads(params, batch, aam)[0]
            flat[k] = orig - eps
            down = loss_and_grads(params, batch, aam)[0]
            flat[k] = orig
            fd = (up - down) / (2 * eps)
            an = grads[name].reshape(-1)[k]
            assert _fd_close(fd, an), (name, int(k), fd, an)


@pytest.mark.parametrize("where", [0, 3, -1])
@pytest.mark.parametrize(
    "bad, match",
    [(np.zeros((20, NUM_FILTERS + 1)), "features"), (np.zeros((14, NUM_FILTERS)), "at least 15")],
)
def test_bad_utterance_anywhere_is_refused_before_any_arithmetic(where, bad, match, monkeypatch):
    params = init_tdnn(TdnnConfig(num_classes=2), seed=27)
    before = {name: t.copy() for name, t in params.tensors.items()}
    # enough good frames ahead of the bad one to fill more than one chunk
    batch = [(_feats(CHUNK_FRAMES // 2, seed=i), i % 2) for i in range(6)]
    batch[where] = (bad, 0)
    passes = []
    monkeypatch.setattr(tdnn, "_add_chunk_grads", lambda *args: passes.append(args) or 0.0)
    with pytest.raises(ValueError, match=match):
        loss_and_grads(params, batch, AamParams())
    with pytest.raises(ValueError, match=match):
        train_step(params, batch, lr=0.1, aam=AamParams())
    assert passes == []
    for name, t in params.tensors.items():
        assert np.array_equal(t, before[name])


def test_loss_and_grads_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        loss_and_grads(init_tdnn(TdnnConfig(num_classes=2), seed=28), [], AamParams())


# --- batched forward -----------------------------------------------------------


def test_batched_forward_equals_per_utterance_forward():
    params = init_tdnn(TdnnConfig(num_classes=5), seed=60)
    # one utterance of exactly MIN_FRAMES, one longer than a chunk, and
    # more than two chunks in all
    lengths = [MIN_FRAMES, 90, CHUNK_FRAMES + 25, 33, CHUNK_FRAMES - 50, 71, MIN_FRAMES, 120]
    assert sum(lengths) > 2 * CHUNK_FRAMES
    feats = [_feats(t, seed=500 + t).astype(np.float32) for t in lengths]
    embeddings, cosines = forward(params, feats)
    assert embeddings.shape == (len(lengths), EMBED_DIM)
    assert cosines.shape == (len(lengths), 5)
    for i, f in enumerate(feats):
        emb, cos = forward(params, f.astype(np.float64))
        assert emb.shape == (EMBED_DIM,) and cos.shape == (5,)
        assert _rel_err(embeddings[i], emb) <= 1e-12, i
        assert _rel_err(cosines[i], cos) <= 1e-12, i
        acts = forward_activations(params, f)
        assert _rel_err(embeddings[i], acts["embedding"]) <= 1e-12, i


def test_batched_forward_of_no_utterances_is_empty():
    embeddings, cosines = forward(init_tdnn(TdnnConfig(num_classes=3), seed=61), [])
    assert embeddings.shape == (0, EMBED_DIM)
    assert cosines.shape == (0, 3)


@pytest.mark.parametrize("where", [0, 3, -1])
@pytest.mark.parametrize(
    "bad, match",
    [(np.zeros((20, NUM_FILTERS + 1)), "features"), (np.zeros((14, NUM_FILTERS)), "at least 15")],
)
def test_batched_forward_refuses_a_bad_utterance_before_any_gemm(where, bad, match, monkeypatch):
    params = init_tdnn(TdnnConfig(num_classes=2), seed=62)
    feats = [_feats(CHUNK_FRAMES // 2, seed=i) for i in range(6)]
    feats[where] = bad
    passes = []
    monkeypatch.setattr(tdnn, "_frame_layers", lambda *args: passes.append(args))
    with pytest.raises(ValueError, match=match):
        forward(params, feats)
    assert passes == []


class _LoggedArrayLike:
    """An array-like with a shape that logs each conversion to an array."""

    def __init__(self, arr, key, log):
        self.shape, self._arr, self._key, self._log = arr.shape, arr, key, log

    def __array__(self, dtype=None, copy=None):
        self._log.append(self._key)
        return self._arr


def test_batched_forward_converts_array_likes_one_chunk_at_a_time(monkeypatch):
    params = init_tdnn(TdnnConfig(num_classes=2), seed=64)
    c = CHUNK_FRAMES
    lengths = [c // 2, c // 2 - 10, c // 4, c - c // 8, c // 4]  # chunks: 0-1, 2, 3, 4
    feats = [_feats(t, seed=700 + t) for t in lengths]
    want = forward(params, feats)
    log = []
    real_frame_layers = tdnn._frame_layers

    def frame_layers(*args):
        log.append("pass")
        return real_frame_layers(*args)

    monkeypatch.setattr(tdnn, "_frame_layers", frame_layers)
    got = forward(params, [_LoggedArrayLike(f, i, log) for i, f in enumerate(feats)])
    assert log == [0, 1, "pass", 2, "pass", 3, "pass", 4, "pass"]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    log.clear()
    bad = [_LoggedArrayLike(f, i, log) for i, f in enumerate(feats[:-1] + [feats[-1][:14]])]
    with pytest.raises(ValueError, match="at least 15"):
        forward(params, bad)
    assert log == []


def test_batched_forward_workspace_holds_the_stream_and_two_layer_buffers(monkeypatch):
    params = init_tdnn(TdnnConfig(num_classes=3), seed=63)
    lengths = [80, 95, 100, 60, CHUNK_FRAMES + 10, 40, 77]
    feats = [_feats(t, seed=600 + t) for t in lengths]
    works = []

    def recording_workspace(*args, **kwargs):
        works.append(Workspace(*args, **kwargs))
        return works[-1]

    monkeypatch.setattr(tdnn, "Workspace", recording_workspace)
    embeddings, cosines = forward(params, feats)
    widest = max(max(in_dim, out_dim) for _, in_dim, out_dim in layer_dims())
    widest_out = max(out_dim for _, _, out_dim in layer_dims())
    frames = CHUNK_FRAMES + 10  # the largest chunk
    (work,) = works
    # the second layer buffer holds layer outputs only
    assert [buf.size for buf in work.buffers] == [
        frames * NUM_FILTERS, frames * widest, frames * widest_out
    ]
    for out in (embeddings, cosines):
        assert not any(np.shares_memory(out, b) for b in work.buffers)


def test_float32_forward_computes_in_float32(monkeypatch):
    params = init_tdnn(TdnnConfig(num_classes=3), seed=65)
    params32 = tdnn.TdnnParams(
        params.config, {name: t.astype(np.float32) for name, t in params.tensors.items()}
    )
    lengths = [80, 95, CHUNK_FRAMES + 10, 40]
    feats = [_feats(t, seed=800 + t).astype(np.float32) for t in lengths]
    works, pooled = [], []
    real_pool = tdnn._pool

    def recording_workspace(*args, **kwargs):
        works.append(Workspace(*args, **kwargs))
        return works[-1]

    def recording_pool(*args):
        pooled.extend(real_pool(*args))
        return pooled[-2:]

    monkeypatch.setattr(tdnn, "Workspace", recording_workspace)
    monkeypatch.setattr(tdnn, "_pool", recording_pool)
    embeddings, cosines = forward(params32, feats)
    assert embeddings.dtype == cosines.dtype == np.float32
    (work,) = works
    assert len(work.buffers) == 3
    assert all(buf.dtype == np.float32 for buf in work.buffers)
    assert pooled and all(arr.dtype == np.float32 for arr in pooled)
    # float64 feature matrices are cast as they are stacked
    one, _ = forward(params32, feats[0].astype(np.float64))
    assert one.dtype == np.float32
    want, _ = forward(params, feats)
    assert np.max(np.abs(embeddings - want)) <= 1e-5 * np.max(np.abs(want))


def test_forward_refuses_params_of_mixed_dtypes():
    params = init_tdnn(TdnnConfig(num_classes=2), seed=66)
    params.tensors["frame1.W"] = params.tensors["frame1.W"].astype(np.float32)
    with pytest.raises(ValueError, match="one floating dtype"):
        forward(params, _feats(20))


# --- training ----------------------------------------------------------------


def _toy_batch(classes=2, per_class=3, t=18, seed=30):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(classes, NUM_FILTERS))
    batch = []
    for c in range(classes):
        for _ in range(per_class):
            batch.append((centers[c] + rng.normal(scale=0.3, size=(t, NUM_FILTERS)), c))
    return batch


def test_train_step_zero_lr_keeps_params():
    params = init_tdnn(TdnnConfig(num_classes=2), seed=31)
    batch = _toy_batch()
    updated, loss = train_step(params, batch, lr=0.0, aam=AamParams())
    assert math.isfinite(loss)
    for name in params.tensors:
        assert np.array_equal(updated.tensors[name], params.tensors[name])


def test_train_step_is_deterministic():
    batch = _toy_batch()
    a = init_tdnn(TdnnConfig(num_classes=2), seed=32)
    b = init_tdnn(TdnnConfig(num_classes=2), seed=32)
    ua, la = train_step(a, batch, lr=0.05, aam=AamParams())
    ub, lb = train_step(b, batch, lr=0.05, aam=AamParams())
    assert la == lb
    for name in ua.tensors:
        assert np.array_equal(ua.tensors[name], ub.tensors[name])


def test_train_step_reduces_loss_on_separable_data():
    params = init_tdnn(TdnnConfig(num_classes=2), seed=33)
    batch = _toy_batch()
    aam = AamParams()
    _, first = train_step(params, batch, lr=0.05, aam=aam)
    for _ in range(20):
        params, last = train_step(params, batch, lr=0.05, aam=aam)
    assert last < first


def test_train_step_input_gates():
    params = init_tdnn(TdnnConfig(num_classes=2), seed=34)
    with pytest.raises(ValueError, match="empty"):
        train_step(params, [], lr=0.1, aam=AamParams())
    with pytest.raises(ValueError, match="lr"):
        train_step(params, _toy_batch(), lr=-0.1, aam=AamParams())
    for lr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lr"):
            train_step(params, _toy_batch(), lr=lr, aam=AamParams())


def test_train_step_leaves_its_input_params_unchanged():
    params = init_tdnn(TdnnConfig(num_classes=2), seed=35)
    before = {name: t.copy() for name, t in params.tensors.items()}
    updated, _ = train_step(params, _toy_batch(), lr=0.5, aam=AamParams())
    for name, t in params.tensors.items():
        assert np.array_equal(t, before[name])
    assert not np.array_equal(updated.tensors["frame1.W"], params.tensors["frame1.W"])


def _copy_tensors(params):
    return {name: t.copy() for name, t in params.tensors.items()}


def test_train_steps_with_a_carried_workspace_equal_fresh_ones():
    aam = AamParams()
    start = init_tdnn(TdnnConfig(num_classes=3), seed=36)
    before = _copy_tensors(start)
    # the second batch holds an utterance longer than a chunk, so the
    # buffers the first step left must grow
    batches = [
        [(_feats(t, seed=200 + t), t % 3) for t in (MIN_FRAMES, 30, 41)],
        [(_feats(t, seed=300 + t), t % 3) for t in (CHUNK_FRAMES + 20, 25, 60)],
        [(_feats(t, seed=400 + t), t % 3) for t in (50, 50, MIN_FRAMES + 1, 33)],
    ]
    work = Workspace()
    carried = fresh = start
    sizes = []
    for batch in batches:
        carried, carried_loss = train_step(carried, batch, 0.05, aam, work)
        fresh, fresh_loss = train_step(fresh, batch, 0.05, aam)
        sizes.append(sum(buf.size for buf in work.buffers))
        assert carried_loss == fresh_loss
        for name in fresh.tensors:
            assert np.array_equal(carried.tensors[name], fresh.tensors[name]), name
            assert not any(np.shares_memory(carried.tensors[name], b) for b in work.buffers)
    assert sizes[1] > sizes[0]
    for name, t in start.tensors.items():
        assert np.array_equal(t, before[name]), name


def test_loss_and_grads_with_a_workspace_returns_fresh_gradients():
    params = init_tdnn(TdnnConfig(num_classes=2), seed=37)
    batch = _toy_batch()
    work = Workspace()
    loss, grads = loss_and_grads(params, batch, AamParams(), work)
    kept = {name: g.copy() for name, g in grads.items()}
    assert loss == loss_and_grads(params, batch, AamParams())[0]
    loss_and_grads(params, _toy_batch(seed=38), AamParams(), work)
    for name, g in grads.items():
        assert np.array_equal(g, kept[name]), name
        assert not any(np.shares_memory(g, b) for b in work.buffers)


def test_training_workspace_keeps_its_buffers_over_repeated_steps():
    params = init_tdnn(TdnnConfig(num_classes=2), seed=38)
    batch = _toy_batch(per_class=4, t=60)
    work = Workspace()
    params, _ = train_step(params, batch, 0.05, AamParams(), work)
    first = work.buffers
    assert first
    for _ in range(3):
        params, _ = train_step(params, batch, 0.05, AamParams(), work)
        now = work.buffers
        assert len(now) == len(first)
        assert all(np.shares_memory(a, b) for a, b in zip(first, now))


def test_training_workspace_holds_activations_and_two_gradient_buffers():
    params = init_tdnn(TdnnConfig(num_classes=2), seed=39)
    lengths = [40, 55, 31]  # one chunk
    batch = [(_feats(t, seed=700 + t), i % 2) for i, t in enumerate(lengths)]
    work = Workspace()
    loss_and_grads(params, batch, AamParams(), work)
    # the stream, one splice buffer of frame1's rows at the widest layer
    # width, each layer's output over the rows that straddle no two
    # utterances, one gradient buffer the size of frame1's output and one
    # weight-gradient scratch the size of segment6.W, the largest it takes
    rows, layer_rows = [], list(lengths)
    for _, offsets, _ in tdnn.FRAME_LAYERS:
        layer_rows = [t - (max(offsets) - min(offsets)) for t in layer_rows]
        rows.append(layer_rows)
    outs = [sum(r) * out_dim for r, (_, _, out_dim) in zip(rows, tdnn.FRAME_LAYERS)]
    want = [sum(lengths) * NUM_FILTERS, sum(rows[0]) * 768, *outs, outs[0]]
    want.append(params.tensors["segment6.W"].size)
    assert [buf.size for buf in work.buffers] == want


def _training_workspace_floats(lengths):
    """Floats of a one-chunk training pass's buffers, less the weight scratch."""
    work = Workspace()
    batch = [(_feats(t, seed=t), i % 2) for i, t in enumerate(lengths)]
    loss_and_grads(init_tdnn(TdnnConfig(num_classes=2), seed=40), batch, AamParams(), work)
    return sum(buf.size for buf in work.buffers[:-1])


def test_training_workspace_holds_2600_floats_per_stacked_frame():
    # the stream (40), the splice buffer (768), the layer outputs (4 * 256
    # + 512) and the gradient buffer (256); a per-layer spliced copy would
    # add its input width
    lengths = [60, 45, 70]
    more = [t + 20 for t in lengths]
    per_frame = (_training_workspace_floats(more) - _training_workspace_floats(lengths)) / (
        sum(more) - sum(lengths)
    )
    assert sum(more) <= CHUNK_FRAMES
    assert per_frame == NUM_FILTERS + 768 + 4 * 256 + 512 + 256 == 2600


# --- transfer and persistence ---------------------------------------------------


def test_transfer_init_copies_body_and_replaces_head():
    src = init_tdnn(TdnnConfig(num_classes=5), seed=41)
    dst = transfer_init(src, new_num_classes=9, seed=42)
    assert dst.config.num_classes == 9
    assert dst.tensors["projection.W"].shape == (EMBED_DIM, 9)
    for name in src.tensors:
        if name == "projection.W":
            continue
        assert np.array_equal(dst.tensors[name], src.tensors[name])
    feats = _feats(25, seed=43)
    emb_src, _ = forward(src, feats)
    emb_dst, _ = forward(dst, feats)
    assert np.array_equal(emb_src, emb_dst)
    # same seed, same head; different seed, different head
    again = transfer_init(src, new_num_classes=9, seed=42)
    assert np.array_equal(again.tensors["projection.W"], dst.tensors["projection.W"])
    other = transfer_init(src, new_num_classes=9, seed=43)
    assert not np.array_equal(other.tensors["projection.W"], dst.tensors["projection.W"])


def test_average_embeddings():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert np.array_equal(average_embeddings([a]), a)
    assert np.allclose(average_embeddings([a, b]), [0.5, 0.5])
    with pytest.raises(ValueError, match="zero"):
        average_embeddings([])


def test_params_roundtrip(tmp_path):
    params = init_tdnn(TdnnConfig(num_classes=6), seed=50)
    path = tmp_path / "params.bin"
    save_params(path, params)
    assert path.read_bytes().split(b"\n", 1)[0].split()[3] == b"40"
    back = load_params(path)
    assert back.config.num_classes == 6
    assert set(back.tensors) == set(params.tensors)
    for name in params.tensors:
        assert back.tensors[name].shape == params.tensors[name].shape
        assert np.array_equal(back.tensors[name], params.tensors[name])
    # loaded params drive the network identically
    feats = _feats(20, seed=51)
    assert np.array_equal(forward(params, feats)[0], forward(back, feats)[0])


def test_params_file_error_gates(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTPARAMS 1 2 40 0\n\n")
    with pytest.raises(ValueError, match="not a parameter file"):
        load_params(bad)

    params = init_tdnn(TdnnConfig(num_classes=2), seed=52)
    path = tmp_path / "params.bin"
    save_params(path, params)
    data = path.read_bytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_params(truncated)

    headerless = tmp_path / "headerless.bin"
    headerless.write_bytes(b"TDNNPARAMS 1 2 40 0")
    with pytest.raises(ValueError, match="header"):
        load_params(headerless)


@pytest.mark.parametrize(
    "header, fragment",
    [
        (b"TDNNPARAMS 2 2 40 0\n\n", "header line 1 .*expected 'TDNNPARAMS 1 2 40 13'"),
        (b"TDNNPARAMS 1 2 40 2\nw 1 1\n\n", "header line 1 .*expected 'TDNNPARAMS 1 2 40 13'"),
        (b"TDNNPARAMS 1 2 39 13\n\n", "header line 1 .*expected 'TDNNPARAMS 1 2 40 13'"),
        (b"TDNNPARAMS 1 2 80 13\n\n", "header line 1 .*expected 'TDNNPARAMS 1 2 40 13'"),
        (b"TDNNPARAMS 1 2 40 13\n\xff\n\n", "header line 2 '\ufffd': expected 'frame1.W 256 200'"),
    ],
    ids=["version-2", "count-2-listing-1", "feature-dim-39", "feature-dim-80", "not-utf8"],
)
def test_params_header_refusals(tmp_path, header, fragment):
    path = tmp_path / "params.bin"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=fragment):
        load_params(path)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda t: t.pop("frame2.b"), "frame2.b"),
        (lambda t: t.update({"segment6.W": t["segment6.W"][:, :-1]}), "segment6.W"),
        (lambda t: t.update({"projection.W": np.ones((EMBED_DIM, 3))}), "projection.W"),
        (lambda t: t.update({"frame0.W": np.ones((1, 1))}), "frame0.W"),
    ],
    ids=["missing", "misshaped", "other-class-count", "unknown"],
)
def test_save_params_refuses_other_tensors_writing_nothing(tmp_path, edit, named):
    params = init_tdnn(TdnnConfig(num_classes=2), seed=58)
    edit(params.tensors)
    path = tmp_path / "model" / "params.bin"
    with pytest.raises(ValueError, match=f"tensors {named} differ .* for 2 classes"):
        save_params(path, params)
    assert not path.parent.exists()


def test_training_refuses_float16_params():
    params = init_tdnn(TdnnConfig(num_classes=2), seed=53)
    batch = _toy_batch()
    with pytest.raises(ValueError, match="got float16"):
        loss_and_grads(params.astype(np.float16), batch, AamParams())
    with pytest.raises(ValueError, match="got float16"):
        train_step(params.astype(np.float16), batch, lr=0.1, aam=AamParams())
    with pytest.raises(ValueError, match="float64 params only, got float32"):
        forward_activations(params.astype(np.float32), _feats(20))
    with pytest.raises(ValueError, match="float64 Workspace cannot hold a float32 pass"):
        loss_and_grads(params.astype(np.float32), batch, AamParams(), Workspace())


def test_float32_gradients_agree_with_float64_from_one_rounded_start():
    narrow = init_tdnn(TdnnConfig(num_classes=3), seed=56).astype(np.float32)
    wide = narrow.astype(np.float64)
    lengths = (MIN_FRAMES, 40, 85, CHUNK_FRAMES + 20, 60)
    batch = [(_feats(t, seed=900 + i).astype(np.float32), i % 3) for i, t in enumerate(lengths)]
    work = Workspace(np.float32)
    loss32, grads32 = loss_and_grads(narrow, batch, AamParams(), work)
    loss64, grads64 = loss_and_grads(wide, batch, AamParams())
    assert work.buffers and all(buf.dtype == np.float32 for buf in work.buffers)
    assert abs(loss32 - loss64) <= 1e-6 * abs(loss64)
    for name, want in grads64.items():
        assert grads32[name].dtype == np.float32, name
        assert np.max(np.abs(grads32[name] - want)) <= 1e-5 * np.max(np.abs(want)), name


def test_float32_training_tracks_float64_over_thirty_steps():
    batch = [(feats.astype(np.float32), c) for feats, c in _toy_batch(classes=3, t=40)]
    narrow = init_tdnn(TdnnConfig(num_classes=3), seed=57).astype(np.float32)
    wide = narrow.astype(np.float64)
    aam = AamParams()
    work = Workspace(np.float32)
    for _ in range(30):
        narrow, loss32 = train_step(narrow, batch, 0.01, aam, work)
        wide, loss64 = train_step(wide, batch, 0.01, aam)
        assert abs(loss32 - loss64) <= 1e-3 * abs(loss64)
    assert narrow.dtype == np.float32
    assert loss64 < 0.01


def test_load_params_converts_each_tensor_to_the_asked_dtype(tmp_path):
    params = init_tdnn(TdnnConfig(num_classes=4), seed=54)
    path = tmp_path / "params.bin"
    save_params(path, params)
    wide, narrow = load_params(path), load_params(path, np.float32)
    assert set(narrow.tensors) == set(wide.tensors) == set(params.tensors)
    for name, t in params.tensors.items():
        assert wide.tensors[name].dtype == np.float64
        assert np.array_equal(wide.tensors[name], t)
        assert narrow.tensors[name].dtype == np.float32
        assert np.array_equal(narrow.tensors[name], t.astype(np.float32))


def _edited_params_file(path, edit):
    """A saved 2-class parameter file whose header lines went through edit."""
    save_params(path, init_tdnn(TdnnConfig(num_classes=2), seed=55))
    header, payload = path.read_bytes().split(b"\n\n", 1)
    lines = edit(header.decode().split("\n"))
    path.write_bytes(("\n".join(lines) + "\n\n").encode() + payload)


def _replace(old, new):
    return lambda lines: [new if line == old else line for line in lines]


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (_replace("TDNNPARAMS 1 2 40 13", "TDNNPARAMS x 2 40 13"), "header line 1"),
        (_replace("TDNNPARAMS 1 2 40 13", "TDNNPARAMS 1 0 40 13"), "header line 1"),
        (_replace("frame1.W 256 200", "frame1.W 256"), "header line 2"),
        (_replace("frame1.W 256 200", "frame1.W -256 200"), "header line 2"),
        (lambda lines: ["TDNNPARAMS 1 2 40 0"], "header line 1 .*expected 'TDNNPARAMS 1 2 40 13'"),
        (
            _replace("frame1.W 256 200", "frame1.W 256 199"),
            "header line 2 'frame1.W 256 199': expected 'frame1.W 256 200'",
        ),
        (
            _replace("frame1.b 1 256", "frame1.b 256 1"),
            "header line 3 'frame1.b 256 1': expected 'frame1.b 1 256'",
        ),
        (_replace("TDNNPARAMS 1 2 40 13", "TDNNPARAMS 1 2 39 13"), "header line 1"),
        (
            _replace("frame1.W 256 200", "frame0.W 256 200"),
            "header line 2 'frame0.W 256 200': expected 'frame1.W 256 200'",
        ),
        (
            _replace("frame2.b 1 256", "frame1.b 1 256"),
            "header line 5 'frame1.b 1 256': expected 'frame2.b 1 256'",
        ),
        (lambda lines: lines[:-1], "header line 14 '': expected 'projection.W 256 2'"),
        (lambda lines: lines + ["extra 1 1"], "header line 15 'extra 1 1': expected ''"),
        (_replace("frame1.b 1 256", "frame1.b 1 256 "), "header line 3 'frame1.b 1 256 '"),
    ],
    ids=[
        "non-integer-version",
        "zero-classes",
        "two-field-tensor-line",
        "negative-rows",
        "no-tensors",
        "wrong-shape",
        "bias-as-column",
        "feat-dim-differs-from-shapes",
        "unknown-name",
        "repeated-name",
        "last-tensor-missing",
        "extra-tensor-line",
        "trailing-space",
    ],
)
def test_load_params_refuses_a_malformed_header_naming_file_and_line(tmp_path, edit, fragment):
    path = tmp_path / "params.bin"
    _edited_params_file(path, edit)
    with pytest.raises(ValueError, match=fragment) as refused:
        load_params(path)
    assert str(path) in str(refused.value)


def test_config_validation():
    with pytest.raises(ValueError, match="num_classes"):
        TdnnConfig(num_classes=0)
    with pytest.raises(ValueError, match="margin"):
        AamParams(margin=-0.1)
    with pytest.raises(ValueError, match="scale"):
        AamParams(scale=0.0)
