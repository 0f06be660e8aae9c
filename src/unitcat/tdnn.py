"""TDNN speaker-embedding network with statistics pooling.

Five time-delay layers splice context windows over a stream of the
front end's NUM_FILTERS (40) log-mel features, a pooling layer
concatenates per-dimension mean and standard deviation over all valid
frames, an affine layer produces the 256-dim embedding (pre-activation),
and a bias-free projection yields per-class cosines trained with an
additive-angular-margin softmax, with hand-derived analytic gradients.
``forward``, ``loss_and_grads`` and ``train_step`` compute in their
weights' dtype, float32 or float64. ``run`` trains and extracts in
float32; the finite-difference gradient checks run the same code in
float64, and ``forward_activations``, which serves them, is float64 only.

Every pass is stacked: ``loss_and_grads`` and ``forward`` concatenate up
to CHUNK_FRAMES frames of their utterances into one stream and run each
frame layer as one GEMM over it. A spliced layer's rows are each
utterance's valid rows back to back, so no row's context window straddles
two utterances, and an utterance of T frames gives T - MIN_FRAMES + 1
frame5 rows. ``forward`` takes one (T, NUM_FILTERS) matrix or a list of
them, arrays or array-likes such as archive records, and reads each one
only when its chunk is stacked; its forward-only pass keeps two layer
buffers besides the stream, not every layer's activations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import NUM_FILTERS
from .rng import derive_seed
from .workspace import Workspace

# (name, splice offsets, output dim); input dim is len(offsets) * previous dim
FRAME_LAYERS: tuple[tuple[str, tuple[int, ...], int], ...] = (
    ("frame1", (-2, -1, 0, 1, 2), 256),
    ("frame2", (-2, 0, 2), 256),
    ("frame3", (-3, 0, 3), 256),
    ("frame4", (0,), 256),
    ("frame5", (0,), 512),
)
EMBED_DIM = 256
STATS_DIM = 2 * FRAME_LAYERS[-1][2]
# total splice context: frames needed to produce one pooled frame
MIN_FRAMES = 1 + sum(max(offs) - min(offs) for _, offs, _ in FRAME_LAYERS)
VARIANCE_FLOOR = 1e-10
# frames per stacked pass of loss_and_grads and forward: enough rows for
# the GEMMs to run near the BLAS rate, few enough that a training pass's
# buffers stay ~11 MB
CHUNK_FRAMES = 384

PARAMS_MAGIC = "TDNNPARAMS"
PARAMS_VERSION = 1


@dataclass
class TdnnConfig:
    num_classes: int

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")


@dataclass
class AamParams:
    margin: float = 0.2
    scale: float = 32.0

    def __post_init__(self) -> None:
        if self.margin < 0 or self.scale <= 0:
            raise ValueError("margin must be >= 0 and scale > 0")


@dataclass
class TdnnParams:
    """Immutable bundle of named tensors; layer.W rows are output units."""

    config: TdnnConfig
    tensors: dict[str, np.ndarray]

    @property
    def dtype(self) -> np.dtype:
        """The floating dtype that every tensor shares."""
        dtypes = {t.dtype for t in self.tensors.values()}
        if len(dtypes) != 1 or not np.issubdtype(next(iter(dtypes)), np.floating):
            raise ValueError(
                f"tensors must share one floating dtype, got {sorted(map(str, dtypes))}"
            )
        return dtypes.pop()

    def astype(self, dtype: np.dtype | type) -> TdnnParams:
        """The same weights with every tensor converted to dtype."""
        return TdnnParams(self.config, {n: t.astype(dtype) for n, t in self.tensors.items()})


def _compute_dtype(params: TdnnParams, what: str, allowed=(np.float32, np.float64)) -> np.dtype:
    """The dtype that what computes in: params' dtype, refused unless allowed."""
    if params.dtype not in allowed:
        names = " or ".join(np.dtype(d).name for d in allowed)
        raise ValueError(f"{what} runs on {names} params only, got {params.dtype}")
    return params.dtype


def layer_dims() -> list[tuple[str, int, int]]:
    """(name, spliced input dim, output dim) per frame layer."""
    dims = []
    prev = NUM_FILTERS
    for name, offsets, out_dim in FRAME_LAYERS:
        dims.append((name, len(offsets) * prev, out_dim))
        prev = out_dim
    return dims


def _tensor_shapes(cfg: TdnnConfig) -> dict[str, tuple[int, ...]]:
    """Each tensor's shape, in init_tdnn's order; biases are 1-D."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, in_dim, out_dim in layer_dims():
        shapes[f"{name}.W"] = (out_dim, in_dim)
        shapes[f"{name}.b"] = (out_dim,)
    shapes["segment6.W"] = (EMBED_DIM, STATS_DIM)
    shapes["segment6.b"] = (EMBED_DIM,)
    shapes["projection.W"] = (EMBED_DIM, cfg.num_classes)
    return shapes


def init_tdnn(cfg: TdnnConfig, seed: int) -> TdnnParams:
    """Gaussian weights with standard deviation 1/sqrt(fan_in), zero biases."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(cfg).items():
        # a layer's W maps its columns' inputs; the projection's rows are the embedding
        fan_in = EMBED_DIM if name == "projection.W" else shape[-1]
        tensors[name] = (
            np.zeros(shape) if len(shape) == 1 else rng.standard_normal(shape) / math.sqrt(fan_in)
        )
    return TdnnParams(cfg, tensors)


def splice(
    x: np.ndarray, offsets: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Concatenate offset copies of x along the feature axis, valid frames
    only: output row k gathers input rows k+off-min(offsets). The copy goes
    to out when one is given."""
    lo = -min(offsets)
    out_frames = len(x) - (max(offsets) - min(offsets))
    if out_frames < 1:
        raise ValueError(
            f"{len(x)} frames is too short for splice offsets {offsets}"
        )
    return np.concatenate(
        [x[lo + off : lo + off + out_frames] for off in offsets], axis=1, out=out
    )


def stats_pool(h: np.ndarray) -> np.ndarray:
    """Concatenated per-dimension mean and floored standard deviation."""
    if len(h) < 1:
        raise ValueError("stats pooling needs at least one frame")
    mean = h.mean(axis=0)
    var = np.mean((h - mean) ** 2, axis=0)
    std = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    return np.concatenate([mean, std])


def _check_feats(feats) -> int:
    """The frame count of a (T, NUM_FILTERS) matrix of at least MIN_FRAMES
    frames, from np.shape alone, so feats is not converted to an array."""
    shape = np.shape(feats)
    if len(shape) != 2 or shape[1] != NUM_FILTERS:
        raise ValueError(f"expected (T, {NUM_FILTERS}) features, got {shape}")
    if shape[0] < MIN_FRAMES:
        raise ValueError(f"need at least {MIN_FRAMES} frames, got {shape[0]}")
    return shape[0]


def _head(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first prod(shape) elements of the contiguous buf, as shape."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def _frame_layers(
    params: TdnnParams,
    x: np.ndarray,
    lengths: list[int],
    alloc,
    acts: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Frame layers over the stream x, which stacks utterances of the
    given frame counts, one GEMM per layer; returns frame5's output.

    A spliced layer splices each utterance's valid rows into a compact
    matrix, so no row's context window straddles two utterances.
    alloc(shape) supplies each layer's spliced input and then its output;
    acts, when given, keeps them as '<layer>.spliced' and '<layer>.out'.
    """
    for name, offsets, out_dim in FRAME_LAYERS:
        spliced = x
        if len(offsets) > 1:
            ctx = max(offsets) - min(offsets)
            spliced = alloc((len(x) - ctx * len(lengths), len(offsets) * x.shape[1]))
            src = dst = 0
            for t in lengths:
                splice(x[src : src + t], offsets, out=spliced[dst : dst + t - ctx])
                src += t
                dst += t - ctx
            lengths = [t - ctx for t in lengths]
        x = np.matmul(spliced, params.tensors[f"{name}.W"].T, out=alloc((len(spliced), out_dim)))
        x += params.tensors[f"{name}.b"]
        np.maximum(x, 0.0, out=x)
        if acts is not None:
            acts[f"{name}.spliced"] = spliced
            acts[f"{name}.out"] = x
    return x


def _pooled_spans(lengths: list[int]) -> list[slice]:
    """Each stacked utterance's frame5 rows, from its frame count."""
    spans, start = [], 0
    for t in lengths:
        spans.append(slice(start, start + t - (MIN_FRAMES - 1)))
        start = spans[-1].stop
    return spans


def _pool(
    h: np.ndarray, spans: list[slice], centered: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """stats_pool of each span of h's rows, (n, 2 * dim), and each span's
    unfloored variance, (n, dim); centered gets h minus its span's mean."""
    dim = h.shape[1]
    pooled = np.empty((len(spans), 2 * dim), h.dtype)
    var = np.empty((len(spans), dim), h.dtype)
    for i, rows in enumerate(spans):
        pooled[i, :dim] = h[rows].mean(axis=0)
        c = np.subtract(h[rows], pooled[i, :dim], out=centered[rows])
        var[i] = np.mean(c * c, axis=0)
    pooled[:, dim:] = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    return pooled, var


def forward_activations(params: TdnnParams, feats: np.ndarray) -> dict[str, np.ndarray]:
    """Forward pass over one utterance keeping each frame layer's spliced
    input and output, the pooled statistics, the embedding and the
    cosines. float64 params only: it serves the finite-difference checks
    of loss_and_grads, which run in float64."""
    _compute_dtype(params, "forward_activations", (np.float64,))
    _check_feats(feats)
    feats = np.asarray(feats, dtype=np.float64)
    acts: dict[str, np.ndarray] = {}
    pooled = stats_pool(_frame_layers(params, feats, [len(feats)], np.empty, acts))
    embedding = pooled @ params.tensors["segment6.W"].T + params.tensors["segment6.b"]
    acts["pooled"] = pooled
    acts["embedding"] = embedding
    acts["cosines"] = _cosines(embedding, params.tensors["projection.W"])
    return acts


def forward(
    params: TdnnParams, feats: np.ndarray | list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(embedding, per-class cosine logits) of one (T, NUM_FILTERS) matrix;
    for a list of them, (embeddings (n, EMBED_DIM), cosines (n, classes)).
    The pass computes in the dtype of params' tensors: every buffer and
    both results take it, and the features are cast to it as they are
    stacked, so float32 params give a float32 pass.

    Every utterance's shape is checked with np.shape before any
    arithmetic. The utterances are then stacked in chunks of at most
    CHUNK_FRAMES frames, as in loss_and_grads: one GEMM per frame layer
    per chunk, each utterance pooled on its own rows, one segment6 GEMM
    per chunk and one cosine GEMM at the end. An utterance is converted to
    an array only when its chunk is stacked, so a list of array-likes
    that read themselves on conversion (archive.Record) is held one chunk
    at a time. Each frame layer reads only the layer before it, so the
    call takes just three buffers from its own Workspace, sized for its
    largest chunk: the stream and two that the layers of every chunk use
    in turn. The returned arrays never alias them.
    """
    batched = isinstance(feats, (list, tuple))
    utts = feats if batched else [feats]
    lengths = [_check_feats(f) for f in utts]
    chunks = _chunks(lengths)
    work = Workspace(_compute_dtype(params, "forward"))
    frames = max((sum(lengths[i] for i in chunk) for chunk in chunks), default=0)
    widest = max(max(i, o) for _, i, o in layer_dims())
    stream_buf = work((frames * NUM_FILTERS,))
    bufs = (work((frames * widest,)), work((frames * widest,)))
    embeddings = np.empty((len(utts), EMBED_DIM), work.dtype)
    for chunk in chunks:
        chunk_lengths = lengths[chunk.start : chunk.stop]
        stream = np.concatenate(
            utts[chunk.start : chunk.stop],
            out=_head(stream_buf, (sum(chunk_lengths), NUM_FILTERS)),
        )
        alloc = _taking_turns(bufs)
        h = _frame_layers(params, stream, chunk_lengths, alloc)
        pooled, _ = _pool(h, _pooled_spans(chunk_lengths), alloc(h.shape))
        rows = embeddings[chunk.start : chunk.stop]
        np.matmul(pooled, params.tensors["segment6.W"].T, out=rows)
        rows += params.tensors["segment6.b"]
    cosines = _cosines(embeddings, params.tensors["projection.W"])
    return (embeddings, cosines) if batched else (embeddings[0], cosines[0])


def _taking_turns(bufs: tuple[np.ndarray, ...]):
    """alloc whose requests take the flat buffers bufs in turn."""
    turns = itertools.cycle(bufs)
    return lambda shape: _head(next(turns), shape)


def _cosines(embeddings: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Cosine of each embedding (the last axis) with each class column."""
    e_norms = np.linalg.norm(embeddings, axis=-1, keepdims=True)
    if np.any(e_norms == 0.0):
        raise ValueError("zero-norm embedding has no direction")
    w_norms = np.linalg.norm(proj, axis=0)
    if np.any(w_norms == 0.0):
        raise ValueError("projection has a zero-norm class column")
    return np.clip((embeddings / e_norms) @ (proj / w_norms), -1.0, 1.0)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z)
    exp = np.exp(shifted)
    return exp / exp.sum()


def aam_loss(
    embedding: np.ndarray, proj: np.ndarray, label: int, aam: AamParams
) -> tuple[float, np.ndarray, np.ndarray]:
    """Additive-angular-margin cross entropy with analytic gradients.

    Logits are scale * cos(theta_j), except the target class which gets
    scale * cos(theta_y + margin); past theta_y + margin > pi the target
    logit falls back to the monotone linear form cos(theta_y) -
    margin*sin(margin). Returns (loss, d loss/d embedding, d loss/d proj).
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    proj = np.asarray(proj, dtype=np.float64)
    n_classes = proj.shape[1]
    if not 0 <= label < n_classes:
        raise ValueError(f"label {label} out of range for {n_classes} classes")
    e_norm = np.linalg.norm(embedding)
    if e_norm == 0.0:
        raise ValueError("zero-norm embedding")
    w_norms = np.linalg.norm(proj, axis=0)
    if np.any(w_norms == 0.0):
        raise ValueError("zero-norm projection column")
    u = embedding / e_norm
    v = proj / w_norms
    cos = np.clip(u @ v, -1.0, 1.0)

    cos_m, sin_m = math.cos(aam.margin), math.sin(aam.margin)
    c_y = cos[label]
    if c_y > math.cos(math.pi - aam.margin):
        sin_y = math.sqrt(max(1.0 - c_y * c_y, 0.0))
        psi = c_y * cos_m - sin_y * sin_m
        dpsi = cos_m + sin_m * c_y / sin_y if sin_y > 0.0 else cos_m
    else:
        psi = c_y - aam.margin * sin_m
        dpsi = 1.0

    logits = aam.scale * cos
    logits[label] = aam.scale * psi
    probs = _softmax(logits)
    loss = -math.log(max(probs[label], 1e-300))

    # dL/dcos_j, with the margin's slope folded into the target class
    g = probs.copy()
    g[label] -= 1.0
    g *= aam.scale
    g[label] *= dpsi

    grad_e = (v - u[:, None] * cos) @ g / e_norm
    grad_w = (u[:, None] - v * cos) * (g / w_norms)
    return loss, grad_e, grad_w


def _chunks(lengths: list[int]) -> list[range]:
    """Consecutive index ranges of at most CHUNK_FRAMES frames each; an
    utterance longer than that forms a chunk of its own."""
    chunks, start, frames = [], 0, 0
    for i, t in enumerate(lengths):
        if i > start and frames + t > CHUNK_FRAMES:
            chunks.append(range(start, i))
            start, frames = i, 0
        frames += t
    if lengths:
        chunks.append(range(start, len(lengths)))
    return chunks


def loss_and_grads(
    params: TdnnParams,
    batch: list[tuple[np.ndarray, int]],
    aam: AamParams,
    work: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Summed loss and summed gradients over a batch of (features, label)
    utterances; one utterance is the one-element batch.

    Every utterance is checked before any arithmetic. The batch is then
    cut into chunks of at most CHUNK_FRAMES frames (a longer utterance is
    a chunk of its own). Each chunk's utterances are stacked into one
    frame stream, so each frame layer runs one GEMM per chunk for its
    forward pass, its weight gradient and its input gradient; no row
    straddles two utterances (see _frame_layers). Each chunk's gradients
    are added in place into one result set.

    Every chunk pass takes its stacked activations and gradients from
    work, so the chunks reuse the same pages. A training loop owns one
    Workspace for all its steps and passes it to every call; without one,
    the call allocates its own. The returned gradients never alias work.

    The pass computes in the dtype of params' tensors, float32 or float64:
    work must hold that dtype, the features are cast to it as they are
    stacked, and the gradients take it. aam_loss computes each utterance's
    row in float64 either way.
    """
    dtype = _compute_dtype(params, "loss_and_grads")
    if work is None:
        work = Workspace(dtype)
    if work.dtype != dtype:
        raise ValueError(f"a {work.dtype} Workspace cannot hold a {dtype} pass")
    lengths = [_check_feats(feats) for feats, _ in batch]
    utts = [(np.asarray(feats), label) for feats, label in batch]
    if not utts:
        raise ValueError("empty batch")
    grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    loss = 0.0
    for chunk in _chunks(lengths):
        work.rewind()
        loss += _add_chunk_grads(params, [utts[i] for i in chunk], aam, grads, work)
    return loss, grads


def _unsplice(
    d_spliced: np.ndarray, lengths: list[int], offsets: tuple[int, ...], buf: np.ndarray
) -> np.ndarray:
    """Gradient of a spliced layer's stacked input, in the head of buf, from
    the gradient of its spliced copy, whose rows hold lengths[i] rows of
    utterance i: each row's blocks add back onto the frames they copied."""
    ctx = max(offsets) - min(offsets)
    lo = -min(offsets)
    width = d_spliced.shape[1] // len(offsets)
    d_x = _head(buf, (len(d_spliced) + ctx * len(lengths), width))
    d_x.fill(0.0)
    src = dst = 0
    for n in lengths:
        for j, off in enumerate(offsets):
            d_x[dst + lo + off : dst + lo + off + n] += d_spliced[
                src : src + n, j * width : (j + 1) * width
            ]
        src += n
        dst += n + ctx
    return d_x


def _add_chunk_grads(
    params: TdnnParams,
    utts: list[tuple[np.ndarray, int]],
    aam: AamParams,
    grads: dict[str, np.ndarray],
    alloc: Workspace,
) -> float:
    """Add one chunk's gradients into grads; returns its summed loss."""
    lengths = [len(feats) for feats, _ in utts]
    stream = np.concatenate(
        [feats for feats, _ in utts], out=alloc((sum(lengths), NUM_FILTERS))
    )
    acts: dict[str, np.ndarray] = {}
    h = _frame_layers(params, stream, lengths, alloc, acts)
    spans = _pooled_spans(lengths)
    # holds dL/dh, then the input gradient of each spliced layer; no layer
    # output is larger
    grad_buf = alloc((max(acts[f"{name}.out"].size for name, _, _ in FRAME_LAYERS),))
    # h minus its utterance's mean, later dL/dh
    centered = _head(grad_buf, h.shape)
    pooled, var = _pool(h, spans, centered)
    dim = h.shape[1]
    std = pooled[:, dim:]

    w6 = params.tensors["segment6.W"]
    embeddings = pooled @ w6.T + params.tensors["segment6.b"]
    grad_emb = np.empty_like(embeddings)
    loss = 0.0
    for i, (_, label) in enumerate(utts):
        loss_i, grad_emb[i], grad_proj = aam_loss(
            embeddings[i], params.tensors["projection.W"], label, aam
        )
        loss += loss_i
        grads["projection.W"] += grad_proj
    grads["segment6.W"] += grad_emb.T @ pooled
    grads["segment6.b"] += grad_emb.sum(axis=0)
    d_pooled = grad_emb @ w6
    # std is clamped at the floor; there the derivative vanishes
    d_std = np.where(var > VARIANCE_FLOOR, d_pooled[:, dim:] / std, 0.0)
    for i, rows in enumerate(spans):
        n = rows.stop - rows.start
        centered[rows] *= d_std[i] / n
        centered[rows] += d_pooled[i, :dim] / n

    d_x = centered
    lengths = [rows.stop - rows.start for rows in spans]
    w_scratch = alloc((max(params.tensors[f"{n}.W"].size for n, _, _ in FRAME_LAYERS),))
    for depth in range(len(FRAME_LAYERS) - 1, -1, -1):
        name, offsets, _ = FRAME_LAYERS[depth]
        w = params.tensors[f"{name}.W"]
        spliced, out = acts[f"{name}.spliced"], acts[f"{name}.out"]
        d_x *= out > 0.0
        grads[f"{name}.W"] += np.matmul(d_x.T, spliced, out=_head(w_scratch, w.shape))
        grads[f"{name}.b"] += d_x.sum(axis=0)
        if depth == 0:
            break  # the input features take no gradient
        if len(offsets) == 1:
            # out is spent once its mask is applied; frame4 and frame5 are
            # at least as wide as their inputs, so it takes their gradient
            d_x = np.matmul(d_x, w, out=_head(out, (len(d_x), w.shape[1])))
            continue
        # the spliced copy is spent; its buffer takes the spliced gradient
        d_x = _unsplice(np.matmul(d_x, w, out=spliced), lengths, offsets, grad_buf)
        lengths = [n + max(offsets) - min(offsets) for n in lengths]
    return loss


def train_step(
    params: TdnnParams,
    batch: list[tuple[np.ndarray, int]],
    lr: float,
    aam: AamParams,
    work: Workspace | None = None,
) -> tuple[TdnnParams, float]:
    """One gradient-descent update on the batch-mean loss, in params'
    dtype; params is left unchanged. work goes to loss_and_grads: a
    training loop owns one Workspace for all its steps; the new tensors
    never alias it."""
    if not math.isfinite(lr) or lr < 0:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    loss_sum, grads = loss_and_grads(params, batch, aam, work)
    mean_loss = loss_sum / len(batch)
    if not math.isfinite(mean_loss):
        raise FloatingPointError(f"non-finite training loss {mean_loss}")
    # turn the summed gradients into the updated tensors in place
    for name, g in grads.items():
        g *= -lr / len(batch)
        g += params.tensors[name]
    return TdnnParams(params.config, grads), mean_loss


def transfer_init(source: TdnnParams, new_num_classes: int, seed: int) -> TdnnParams:
    """Copy everything below the projection; reinitialize the projection
    for a new class count. Embeddings are unchanged by construction."""
    if new_num_classes < 1:
        raise ValueError(f"new_num_classes must be >= 1, got {new_num_classes}")
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "projection")))
    tensors = {
        name: t.copy() for name, t in source.tensors.items() if name != "projection.W"
    }
    tensors["projection.W"] = rng.standard_normal((EMBED_DIM, new_num_classes)) / math.sqrt(
        EMBED_DIM
    )
    return TdnnParams(TdnnConfig(new_num_classes), tensors)


def average_embeddings(embeddings: list[np.ndarray]) -> np.ndarray:
    if not embeddings:
        raise ValueError("cannot average zero embeddings")
    return np.mean(np.stack([np.asarray(e, dtype=np.float64) for e in embeddings]), axis=0)


# --- parameter files ------------------------------------------------------
#
# Text header:  TDNNPARAMS <version> <num_classes> <feature dim> <tensor count>
# where the feature dim is always NUM_FILTERS (40), then one "name rows cols"
# line per tensor in init_tdnn's order, a bias as one row, a blank line, and
# the tensors' row-major little-endian float64 payloads in that order.


def _header(cfg: TdnnConfig) -> list[str]:
    """The header lines save_params writes for cfg, without the blank line;
    the class count fixes every one of them."""
    shapes = _tensor_shapes(cfg)
    magic = f"{PARAMS_MAGIC} {PARAMS_VERSION} {cfg.num_classes} {NUM_FILTERS} {len(shapes)}"
    # (1, *shape)[-2] is a matrix's row count and a bias's one row
    return [magic] + [f"{name} {(1, *shape)[-2]} {shape[-1]}" for name, shape in shapes.items()]


def save_params(path: str | Path, params: TdnnParams) -> None:
    """Write _header(params.config), then the tensors in its order; tensors
    whose names or shapes differ from init_tdnn's are refused, writing nothing."""
    shapes = _tensor_shapes(params.config)
    differ = dict(shapes.items() ^ {n: np.shape(t) for n, t in params.tensors.items()}.items())
    if differ:
        raise ValueError(
            f"{path}: tensors {', '.join(sorted(differ))} differ from the shapes "
            f"init_tdnn builds for {params.config.num_classes} classes"
        )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(("\n".join(_header(params.config)) + "\n\n").encode("utf-8"))
        for name in shapes:
            fh.write(np.ascontiguousarray(params.tensors[name], dtype="<f8"))


def load_params(path: str | Path, dtype: np.dtype | type = np.float64) -> TdnnParams:
    """Each tensor is read from the file into its own float64 array and
    converted to dtype as it is read (extract loads float32 weights).

    The class count on line 1 fixes the header: any header other than the
    one save_params writes for it is refused at its first differing line,
    naming the file, the line number, the line read and the line expected."""
    with open(path, "rb") as fh:
        lines = []
        while (line := fh.readline()) != b"\n":
            if not line:
                raise ValueError(f"{path}: missing parameter header")
            lines.append(line.decode("utf-8", "replace").rstrip("\n"))
        magic = lines[0].split() if lines else []
        if magic[:1] != [PARAMS_MAGIC]:
            raise ValueError(f"{path}: not a parameter file")
        try:
            cfg = TdnnConfig(int(magic[2]))
        except (IndexError, ValueError):
            raise ValueError(
                f"{path}: header line 1 {lines[0]!r}: expected a class count >= 1"
            ) from None
        # past the shorter list, the line read or expected is the blank one
        pairs = itertools.zip_longest(lines, _header(cfg), fillvalue="")
        for lineno, (read, expected) in enumerate(pairs, start=1):
            if read != expected:
                raise ValueError(f"{path}: header line {lineno} {read!r}: expected {expected!r}")
        tensors: dict[str, np.ndarray] = {}
        for name, shape in _tensor_shapes(cfg).items():
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: truncated payload for tensor {name}")
            tensors[name] = arr.astype(dtype, copy=False)
    return TdnnParams(cfg, tensors)
