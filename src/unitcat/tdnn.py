"""TDNN speaker-embedding network with statistics pooling.

Five time-delay layers splice context windows over a 40-dim feature
stream, a pooling layer concatenates per-dimension mean and standard
deviation over all valid frames, an affine layer produces the 256-dim
embedding (pre-activation), and a bias-free projection yields per-class
cosines trained with an additive-angular-margin softmax. Everything is
float64 numpy with hand-derived analytic gradients, so the whole network
is finite-difference checkable.

Training runs in stacked passes: ``loss_and_grads`` concatenates up to
CHUNK_FRAMES frames of a batch's utterances into one stream and runs each
frame layer as one GEMM over it, forward and backward. Rows whose context
window straddles two utterances are computed but never pooled, so their
gradient is exactly zero. ``forward`` runs the same frame-layer loop on a
single utterance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
FEAT_DIM = 40
EMBED_DIM = 256
STATS_DIM = 2 * FRAME_LAYERS[-1][2]
# total splice context: frames needed to produce one pooled frame
MIN_FRAMES = 1 + sum(max(offs) - min(offs) for _, offs, _ in FRAME_LAYERS)
VARIANCE_FLOOR = 1e-10
# frames per stacked pass of loss_and_grads: enough rows for the GEMMs to
# run near the BLAS rate, few enough that a pass's buffers stay ~15 MB
CHUNK_FRAMES = 384

PARAMS_MAGIC = "TDNNPARAMS"
PARAMS_VERSION = 1


@dataclass
class TdnnConfig:
    num_classes: int
    feat_dim: int = FEAT_DIM

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

    def tensor_names(self) -> list[str]:
        return list(self.tensors)


def layer_dims(feat_dim: int = FEAT_DIM) -> list[tuple[str, int, int]]:
    """(name, spliced input dim, output dim) per frame layer."""
    dims = []
    prev = feat_dim
    for name, offsets, out_dim in FRAME_LAYERS:
        dims.append((name, len(offsets) * prev, out_dim))
        prev = out_dim
    return dims


def init_tdnn(cfg: TdnnConfig, seed: int) -> TdnnParams:
    """Gaussian weights with standard deviation 1/sqrt(fan_in), zero biases."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors: dict[str, np.ndarray] = {}
    for name, in_dim, out_dim in layer_dims(cfg.feat_dim):
        tensors[f"{name}.W"] = rng.standard_normal((out_dim, in_dim)) / math.sqrt(in_dim)
        tensors[f"{name}.b"] = np.zeros(out_dim)
    tensors["segment6.W"] = rng.standard_normal((EMBED_DIM, STATS_DIM)) / math.sqrt(STATS_DIM)
    tensors["segment6.b"] = np.zeros(EMBED_DIM)
    tensors["projection.W"] = rng.standard_normal((EMBED_DIM, cfg.num_classes)) / math.sqrt(
        EMBED_DIM
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


def stats_pool(h: np.ndarray, floor: float = VARIANCE_FLOOR) -> np.ndarray:
    """Concatenated per-dimension mean and floored standard deviation."""
    if len(h) < 1:
        raise ValueError("stats pooling needs at least one frame")
    mean = h.mean(axis=0)
    var = np.mean((h - mean) ** 2, axis=0)
    std = np.sqrt(np.maximum(var, floor))
    return np.concatenate([mean, std])


def _check_feats(params: TdnnParams, feats: np.ndarray) -> np.ndarray:
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != params.config.feat_dim:
        raise ValueError(
            f"expected (T, {params.config.feat_dim}) features, got {feats.shape}"
        )
    if len(feats) < MIN_FRAMES:
        raise ValueError(f"need at least {MIN_FRAMES} frames, got {len(feats)}")
    return feats


def _frame_layers(
    params: TdnnParams, x: np.ndarray, alloc=np.empty
) -> dict[str, np.ndarray]:
    """Each frame layer's spliced input and ReLU output over the frame
    stream x, one GEMM per layer; alloc(shape) supplies the new arrays."""
    acts: dict[str, np.ndarray] = {}
    for name, offsets, out_dim in FRAME_LAYERS:
        rows = len(x) - (max(offsets) - min(offsets))
        if len(offsets) == 1:
            spliced = x
        else:
            spliced = splice(x, offsets, out=alloc((rows, len(offsets) * x.shape[1])))
        x = np.matmul(spliced, params.tensors[f"{name}.W"].T, out=alloc((rows, out_dim)))
        x += params.tensors[f"{name}.b"]
        np.maximum(x, 0.0, out=x)
        acts[f"{name}.spliced"] = spliced
        acts[f"{name}.out"] = x
    return acts


def forward_activations(params: TdnnParams, feats: np.ndarray) -> dict[str, np.ndarray]:
    """Forward pass keeping each frame layer's spliced input and output,
    the pooled statistics, the embedding and the cosines."""
    acts = _frame_layers(params, _check_feats(params, feats))
    pooled = stats_pool(acts["frame5.out"])
    embedding = pooled @ params.tensors["segment6.W"].T + params.tensors["segment6.b"]
    acts["pooled"] = pooled
    acts["embedding"] = embedding
    acts["cosines"] = _cosines(embedding, params.tensors["projection.W"])
    return acts


def forward(params: TdnnParams, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(embedding, per-class cosine logits)."""
    acts = forward_activations(params, feats)
    return acts["embedding"], acts["cosines"]


def _cosines(embedding: np.ndarray, proj: np.ndarray) -> np.ndarray:
    e_norm = np.linalg.norm(embedding)
    if e_norm == 0.0:
        raise ValueError("zero-norm embedding has no direction")
    w_norms = np.linalg.norm(proj, axis=0)
    if np.any(w_norms == 0.0):
        raise ValueError("projection has a zero-norm class column")
    return np.clip((embedding / e_norm) @ (proj / w_norms), -1.0, 1.0)


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
    forward pass, its weight gradient and its input gradient. A stacked
    row whose context window straddles two utterances is computed but
    never pooled, so its gradient is exactly zero. Each chunk's gradients
    are added in place into one result set.

    Every chunk pass takes its stacked activations and gradients from
    work, so the chunks reuse the same pages. A training loop owns one
    Workspace for all its steps and passes it to every call; without one,
    the call allocates its own. The returned gradients never alias work.
    """
    utts = [(_check_feats(params, feats), label) for feats, label in batch]
    if not utts:
        raise ValueError("empty batch")
    grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    if work is None:
        work = Workspace()
    loss = 0.0
    for chunk in _chunks([len(feats) for feats, _ in utts]):
        work.rewind()
        loss += _add_chunk_grads(params, [utts[i] for i in chunk], aam, grads, work)
    return loss, grads


def _add_chunk_grads(
    params: TdnnParams,
    utts: list[tuple[np.ndarray, int]],
    aam: AamParams,
    grads: dict[str, np.ndarray],
    alloc: Workspace,
) -> float:
    """Add one chunk's gradients into grads; returns its summed loss."""
    frames = sum(len(feats) for feats, _ in utts)
    stream = np.concatenate(
        [feats for feats, _ in utts], out=alloc((frames, params.config.feat_dim))
    )
    acts = _frame_layers(params, stream, alloc)

    # frame5 row r sees stream rows r .. r + MIN_FRAMES - 1, so utterance
    # i pools the len - MIN_FRAMES + 1 rows from its first stream row; the
    # MIN_FRAMES - 1 rows after them straddle two utterances
    h = acts["frame5.out"]
    dim = h.shape[1]
    spans = []
    start = 0
    for feats, _ in utts:
        spans.append(slice(start, start + len(feats) - (MIN_FRAMES - 1)))
        start += len(feats)
    # h minus its utterance's mean on pooled rows, zero on straddling rows;
    # later dL/dh
    centered = alloc(h.shape)
    pooled = np.empty((len(utts), 2 * dim))
    var = np.empty((len(utts), dim))
    for i, rows in enumerate(spans):
        pooled[i, :dim] = h[rows].mean(axis=0)
        c = np.subtract(h[rows], pooled[i, :dim], out=centered[rows])
        var[i] = np.mean(c * c, axis=0)
        centered[rows.stop : rows.stop + MIN_FRAMES - 1] = 0.0
    std = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    pooled[:, dim:] = std

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
    w_scratch = alloc((max(params.tensors[f"{n}.W"].size for n, _, _ in FRAME_LAYERS),))
    for depth in range(len(FRAME_LAYERS) - 1, -1, -1):
        name, offsets, _ = FRAME_LAYERS[depth]
        w = params.tensors[f"{name}.W"]
        spliced = acts[f"{name}.spliced"]
        d_x *= acts[f"{name}.out"] > 0.0
        grads[f"{name}.W"] += np.matmul(
            d_x.T, spliced, out=w_scratch[: w.size].reshape(w.shape)
        )
        grads[f"{name}.b"] += d_x.sum(axis=0)
        if depth == 0:
            break  # the input features take no gradient
        if len(offsets) == 1:
            d_x = np.matmul(d_x, w, out=alloc((len(d_x), w.shape[1])))
            continue
        # the spliced copy is spent; its buffer takes the spliced gradient
        d_spliced = np.matmul(d_x, w, out=spliced)
        lo = -min(offsets)
        width = w.shape[1] // len(offsets)
        d_x = alloc((len(d_spliced) + max(offsets) + lo, width))
        d_x.fill(0.0)
        for j, off in enumerate(offsets):
            d_x[lo + off : lo + off + len(d_spliced)] += d_spliced[:, j * width : (j + 1) * width]
    return loss


def train_step(
    params: TdnnParams,
    batch: list[tuple[np.ndarray, int]],
    lr: float,
    aam: AamParams,
    work: Workspace | None = None,
) -> tuple[TdnnParams, float]:
    """One gradient-descent update on the batch-mean loss; params is left
    unchanged. work goes to loss_and_grads: a training loop owns one
    Workspace for all its steps; the new tensors never alias it."""
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
    return TdnnParams(TdnnConfig(new_num_classes, source.config.feat_dim), tensors)


def average_embeddings(embeddings: list[np.ndarray]) -> np.ndarray:
    if not embeddings:
        raise ValueError("cannot average zero embeddings")
    return np.mean(np.stack([np.asarray(e, dtype=np.float64) for e in embeddings]), axis=0)


# --- parameter files ------------------------------------------------------
#
# Text header:  TDNNPARAMS <version> <num_classes> <feat_dim> <tensor count>
# then one "name rows cols" line per tensor, a blank line, and the tensors'
# row-major little-endian float64 payloads in header order.


def save_params(path: str | Path, params: TdnnParams) -> None:
    header = [
        f"{PARAMS_MAGIC} {PARAMS_VERSION} {params.config.num_classes} "
        f"{params.config.feat_dim} {len(params.tensors)}"
    ]
    blobs = []
    for name, t in params.tensors.items():
        arr = np.ascontiguousarray(np.atleast_2d(np.asarray(t, dtype="<f8")))
        header.append(f"{name} {arr.shape[0]} {arr.shape[1]}")
        blobs.append(arr.tobytes())
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "wb") as fh:
        fh.write(("\n".join(header) + "\n\n").encode("utf-8"))
        for blob in blobs:
            fh.write(blob)


def load_params(path: str | Path) -> TdnnParams:
    data = Path(path).read_bytes()
    sep = data.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: missing parameter header")
    lines = data[:sep].decode("utf-8").splitlines()
    magic = lines[0].split()
    if len(magic) != 5 or magic[0] != PARAMS_MAGIC:
        raise ValueError(f"{path}: not a parameter file")
    if int(magic[1]) != PARAMS_VERSION:
        raise ValueError(f"{path}: unsupported version {magic[1]}")
    num_classes, feat_dim, count = int(magic[2]), int(magic[3]), int(magic[4])
    if len(lines) - 1 != count:
        raise ValueError(f"{path}: header declares {count} tensors, lists {len(lines) - 1}")
    tensors: dict[str, np.ndarray] = {}
    offset = sep + 2
    for line in lines[1:]:
        name, rows_s, cols_s = line.split()
        rows, cols = int(rows_s), int(cols_s)
        nbytes = rows * cols * 8
        if offset + nbytes > len(data):
            raise ValueError(f"{path}: truncated payload for tensor {name}")
        arr = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=offset)
        tensors[name] = arr.reshape(rows, cols).copy()
        offset += nbytes
    for name in list(tensors):
        if name.endswith(".b"):
            tensors[name] = tensors[name].reshape(-1)
    return TdnnParams(TdnnConfig(num_classes, feat_dim), tensors)
