"""Residual refinement head over the joint visual/coarse/physical tensor.

The joint tensor stacks [features | coarse probabilities | physical rasters]
per pixel, with physical channels standardized from graph-level interval
statistics and zero-filled when a modality is absent.  A shared two-layer
perceptron (1x1-convolution semantics) predicts a bounded correction that is
added to the coarse probabilities; a zero-initialized head makes the module
start as the identity.  Training is plain seeded gradient descent on the
joint objective, with per-scene modality dropout so one weight set serves
both visual-only and visual-physical inference.

The head reads one input form, a scene's ``JointParts`` from
``assemble_joint``: flat features, the flat coarse map it corrects, and
rasters with their standardisation.  The forward pass writes each pixel block
of the joint tensor into a buffer just before that block's first matmul and
keeps one block of activations; training's backward pass runs each block's
forward again first.  A dropped scene's physical columns are written as zeros.
``refine``'s ``coarse`` must be the map in its parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .losses import COMPONENTS, LossWeights, loss_step, prepare_targets, total_loss
from .priors import MODALITIES, MODALITY_INDEX, PriorGraph, check_labels, check_rasters

PROB_FLOOR = 1e-6  # lower clamp for refined probabilities
FEATURE_NOISE = 0.3  # std of the Gaussian noise on mock backbone features
COARSE_NOISE = 0.02  # std of the Gaussian noise on mock coarse probabilities
# Pixel rows per block of the head's work.  Every row-wise step and every
# pixel reduction runs over the fixed blocks of ``_tiles``, and a reduction adds
# its block partials in block order.  OpenBLAS 0.3.31 splits a product that
# sums over all N pixels differently at 1 and 2 threads; per 2,048-row block it
# gives the same bits at both, at every N tried.  One block of the hidden
# activations (2,048 x 32 float64, 512 KB) stays in cache.
TILE_ROWS = 2048


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class TrainingError(RuntimeError):
    """Training diverged; carries the last finite parameters and history."""

    def __init__(self, message, params=None, history=None):
        super().__init__(message)
        self.params = params
        self.history = history or []


@dataclass
class RefinerParams:
    """Fusion layer (w1, b1), residual head (w2, b2) and the correction scale."""

    w1: np.ndarray  # (hidden, D + C + M)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (C, hidden)
    b2: np.ndarray  # (C,)
    residual_scale: float = 0.5

    def validate(self):
        for name, arr in (("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)):
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"parameter {name} contains non-finite values")
        if not np.isfinite(self.residual_scale):
            raise NumericError("residual_scale is non-finite")
        hidden, din = self.w1.shape
        c = self.w2.shape[0]
        if self.b1.shape != (hidden,) or self.w2.shape != (c, hidden) or self.b2.shape != (c,):
            raise ValueError("inconsistent parameter shapes")
        if din < c + len(MODALITIES):
            raise ValueError(f"fused input width {din} smaller than C + M = {c + len(MODALITIES)}")


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 0  # 0 = full batch
    weights: LossWeights = field(default_factory=LossWeights)
    modality_dropout_prob: float = 0.5
    hidden: int = 32
    residual_scale: float = 0.5

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not np.isfinite(self.residual_scale):
            raise ValueError("residual_scale must be finite")
        if not 0.0 <= self.modality_dropout_prob <= 1.0:
            raise ValueError("modality_dropout_prob must be in [0, 1]")
        if self.epochs < 1 or self.hidden < 1:
            raise ValueError("epochs and hidden width must be >= 1")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = full batch)")


@dataclass(frozen=True)
class Scene:
    """One training sample: backbone outputs, physical rasters and ground truth."""

    features: np.ndarray  # (H, W, D)
    coarse: np.ndarray  # (H, W, C)
    rasters: dict  # modality -> (H, W)
    labels: np.ndarray  # (H, W) ints, 0 = unlabeled


class JointParts(NamedTuple):
    """One scene's joint tensor as its parts; ``fill`` writes any rows of it.

    ``features`` and ``coarse`` are flat float64 views of the scene's maps.
    ``rasters`` holds (column, flat grid, mu, sigma) per supplied modality;
    every physical column it does not name is zero, so a scene with
    ``rasters=()`` is the scene with its modalities dropped.
    """

    shape: tuple  # (H, W, D + C + M), the assembled tensor's shape
    features: np.ndarray  # (N, D)
    coarse: np.ndarray  # (N, C)
    rasters: tuple

    def fill(self, out: np.ndarray, rows: slice) -> np.ndarray:
        """Write the joint tensor's pixels ``rows`` into ``out`` and return it."""
        d = self.features.shape[1]
        phys = d + self.coarse.shape[1]
        out[:, :d] = self.features[rows]
        out[:, d:phys] = self.coarse[rows]
        if len(self.rasters) < out.shape[1] - phys:
            out[:, phys:] = 0.0
        for column, grid, mu, sigma in self.rasters:
            # (grid - mu) / sigma, the same two operations per cell
            np.subtract(grid[rows], mu, out=out[:, column])
            out[:, column] /= sigma
        return out


def assemble_joint(features, coarse, rasters, graph: PriorGraph) -> JointParts:
    """Check a scene and return its joint tensor as ``JointParts``.

    Physical channels are standardized by the graph-level interval-midpoint
    mean/scale of their modality; absent modalities stay all-zero.  A non-finite
    feature or coarse cell is a ValueError; rasters go through ``check_rasters``.
    """
    features = np.asarray(features, dtype=np.float64)
    coarse = np.asarray(coarse, dtype=np.float64)
    if features.ndim != 3:
        raise ValueError(f"features must be (H, W, D), got shape {features.shape}")
    if coarse.ndim != 3:
        raise ValueError(f"coarse map must be (H, W, C), got shape {coarse.shape}")
    h, w = features.shape[:2]
    if h * w == 0:
        raise ValueError(f"feature map of shape {features.shape} has no pixels")
    if coarse.shape[:2] != (h, w):
        raise ValueError(
            f"coarse map shape {coarse.shape[:2]} does not match features {(h, w)}"
        )
    if coarse.shape[2] != graph.num_classes:
        raise ValueError(
            f"coarse map has {coarse.shape[2]} channels but the graph defines "
            f"{graph.num_classes} classes"
        )
    for name, grid in (("feature map", features), ("coarse map", coarse)):
        bad = grid.size - np.count_nonzero(np.isfinite(grid))
        if bad:
            raise ValueError(f"{name} has {bad} non-finite cells")
    d, c = features.shape[2], coarse.shape[2]
    standardised = tuple(
        (d + c + MODALITY_INDEX[name], grid.reshape(-1), *graph.modality_stats(name))
        for name, grid in check_rasters(rasters, (h, w)).items()
    )
    return JointParts(
        (h, w, d + c + len(MODALITIES)),
        features.reshape(h * w, d),
        coarse.reshape(h * w, c),
        standardised,
    )


def init_params(feature_dim: int, num_classes: int, config: TrainConfig) -> RefinerParams:
    """Seeded fusion weights; zero residual head so training starts at identity."""
    din = feature_dim + num_classes + len(MODALITIES)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(config.seed), 0])))
    w1 = rng.normal(scale=1.0 / np.sqrt(din), size=(config.hidden, din))
    return RefinerParams(
        w1=w1,
        b1=np.zeros(config.hidden),
        w2=np.zeros((num_classes, config.hidden)),
        b2=np.zeros(num_classes),
        residual_scale=config.residual_scale,
    )


def _tiles(pixels: int) -> tuple:
    """Row slices of ``TILE_ROWS`` pixels; the last one is shorter when
    ``TILE_ROWS`` does not divide ``pixels``.

    ``pixels`` must be positive (``assemble_joint`` rejects empty scenes).
    """
    return tuple(slice(a, min(a + TILE_ROWS, pixels)) for a in range(0, pixels, TILE_ROWS))


class _Buffers(NamedTuple):
    """Work arrays of one pass over N = H * W pixels.

    ``joint``, ``hidden``, ``squash`` and ``raw`` are one block (the first and
    longest tile) long: ``_block`` writes each tile into their leading rows,
    so a set serves one pass at a time.  ``y1``, which the loss reads, keeps
    all N rows.  ``train`` reuses one set per scene shape on every step.
    """

    joint: np.ndarray  # (rows, D + C + M) joint tensor rows written from JointParts
    hidden: np.ndarray  # (rows, hidden) fusion activations, then 1 - hidden^2
    squash: np.ndarray  # (rows, C) head activations, then 1 - squash^2
    raw: np.ndarray  # (rows, C) coarse + correction, then the head's pre-activation gradient
    y1: np.ndarray  # (N, C) clamped refined probabilities
    tiles: tuple  # row slices of the N pixels

    @classmethod
    def empty(cls, params: RefinerParams, pixels: int):
        tiles = _tiles(pixels)
        rows, (hidden, width), classes = tiles[0].stop, params.w1.shape, params.w2.shape[0]
        return cls(
            np.empty((rows, width)),
            np.empty((rows, hidden)),
            np.empty((rows, classes)),
            np.empty((rows, classes)),
            np.empty((pixels, classes)),
            tiles,
        )


def _block(params: RefinerParams, z: JointParts, buffers, t: slice, dy=None):
    """The head on pixel block ``t``, written into the leading rows of ``buffers``.

    The correction goes into ``raw``, or into ``dy[t]`` when the caller
    passes an (N, C) ``dy``; ``raw`` then adds ``z``'s coarse map.  Returns
    the block's (joint, hidden, squash, raw) rows.
    """
    joint, hidden, squash, raw = (a[: t.stop - t.start] for a in buffers[:4])
    t_dy = raw if dy is None else dy[t]
    np.matmul(z.fill(joint, t), params.w1.T, out=hidden)
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, params.w2.T, out=squash)
    squash += params.b2
    np.tanh(squash, out=squash)
    np.multiply(params.residual_scale, squash, out=t_dy)
    np.add(t_dy, z.coarse[t], out=raw)
    return joint, hidden, squash, raw


def _forward(params: RefinerParams, z: JointParts, buffers=None, dy=None):
    """The head over the joint tensor's parts ``z``, one ``_block`` at a time;
    returns (y1, buffers)."""
    h, w, _ = z.shape
    buffers = _Buffers.empty(params, h * w) if buffers is None else buffers
    for t in buffers.tiles:
        raw = _block(params, z, buffers, t, dy)[3]
        np.clip(raw, PROB_FLOOR, 1.0, out=buffers.y1[t])
    return buffers.y1.reshape(h, w, -1), buffers


def _backward(params: RefinerParams, z: JointParts, buffers, grad_y1):
    """Gradients of w1, b1, w2, b2 from ``grad_y1``, the loss gradient at the
    ``y1`` of ``_forward(params, z, buffers)``.

    Each block's forward runs again just before its gradient work; a
    one-block scene uses the activations its forward left in ``buffers``.
    """
    tiles = buffers.tiles
    g = grad_y1.reshape(buffers.y1.shape)
    g_w1, g_b1 = np.zeros(params.w1.shape), np.zeros(params.b1.shape)
    g_w2, g_b2 = np.zeros(params.w2.shape), np.zeros(params.b2.shape)
    g_pre1 = np.empty(buffers.hidden.shape)
    for t in tiles:
        # raw becomes g_dy, then g_pre2; squash and hidden become tanh'
        t_joint, t_hidden, t_squash, t_g_pre2 = (
            buffers[:4] if len(tiles) == 1 else _block(params, z, buffers, t)
        )
        t_g_pre1 = g_pre1[: t.stop - t.start]
        inside = (t_g_pre2 > PROB_FLOOR) & (t_g_pre2 < 1.0)
        t_g_pre2.fill(0.0)
        np.copyto(t_g_pre2, g[t], where=inside)
        t_g_pre2 *= params.residual_scale
        np.multiply(t_squash, t_squash, out=t_squash)
        np.subtract(1.0, t_squash, out=t_squash)
        t_g_pre2 *= t_squash
        g_w2 += t_g_pre2.T @ t_hidden
        g_b2 += t_g_pre2.sum(axis=0)
        np.multiply(t_hidden, t_hidden, out=t_hidden)
        np.subtract(1.0, t_hidden, out=t_hidden)
        np.matmul(t_g_pre2, params.w2, out=t_g_pre1)
        t_g_pre1 *= t_hidden
        g_w1 += t_g_pre1.T @ t_joint
        g_b1 += t_g_pre1.sum(axis=0)
    return g_w1, g_b1, g_w2, g_b2


def refine(params: RefinerParams, z, coarse: np.ndarray):
    """Apply the residual head: returns (refined map, correction).

    ``z`` is the scene's ``JointParts`` from ``assemble_joint`` and ``coarse``
    the coarse map it holds; the head reads that map from ``z`` and writes the
    joint tensor one pixel block at a time.  Refined values are clamped into
    [1e-6, 1] so downstream re-weighting is always well-defined.
    """
    if not isinstance(z, JointParts):
        raise TypeError(
            f"refine takes the scene's JointParts from assemble_joint, got {type(z).__name__}"
        )
    params.validate()
    _check_scene(params, z, 0)
    coarse_map = z.coarse.reshape(*z.shape[:2], -1)
    if not np.array_equal(coarse, coarse_map):
        raise ValueError("refine's coarse map is not the one in its parts from assemble_joint")
    dy = np.empty(coarse_map.shape)
    y1, _ = _forward(params, z, dy=dy.reshape(z.coarse.shape))
    return y1, dy


def _check_scene(params: RefinerParams, parts: JointParts, k: int):
    """Reject scene ``k`` unless the head fits it: its coarse channels, then
    its feature channels."""
    c, d = parts.coarse.shape[1], parts.features.shape[1]
    classes, expected = params.w2.shape[0], params.w1.shape[1] - c - len(MODALITIES)
    if c != classes:
        raise ValueError(f"scene {k} has {c} coarse channels but the head predicts {classes} classes")
    if d != expected:
        raise ValueError(f"scene {k} has {d} feature channels but the head expects {expected}")


def train(dataset, graph: PriorGraph, config: TrainConfig):
    """Seeded gradient descent on the joint objective over a list of Scenes.

    Returns (params, history); history holds one record per update: its
    ``step`` index and the mean of each of ``losses.COMPONENTS`` over the
    update's scenes.  Each step computes only the trained objective
    (``loss_step``); the hard-region hinge is in ``evaluate_losses``.  Each
    scene is checked and its loss targets prepared once, before the first
    step.  Each update is checked before it is written, so a TrainingError for
    a non-finite loss or update carries the live parameters of the last step.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    scenes = list(dataset)
    joints = [assemble_joint(s.features, s.coarse, s.rasters, graph) for s in scenes]
    dropped = [z._replace(rasters=()) for z in joints]  # physical columns all zero
    c = graph.num_classes
    params = init_params(joints[0].features.shape[1], c, config)
    for k, z in enumerate(joints):
        _check_scene(params, z, k)
    targets = [
        prepare_targets(s.labels, s.features, s.rasters, graph, z.shape[:2] + (c,))
        for s, z in zip(scenes, joints)
    ]
    drop_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(config.seed), 1])))
    batch_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(config.seed), 2])))

    n = len(scenes)
    batch = n if config.batch_size == 0 else min(config.batch_size, n)
    history = []
    # updated in place, so these stay the live parameter arrays
    arrays = (params.w1, params.b1, params.w2, params.b2)
    # the step buffers of each distinct scene shape: one block and the (N, C) y1
    work = {(h, w, d): _Buffers.empty(params, h * w) for h, w, d in {z.shape for z in joints}}

    for epoch in range(config.epochs):
        order = np.arange(n) if batch == n else batch_rng.permutation(n)
        for start in range(0, n, batch):
            chunk = order[start : start + batch]
            grads = [np.zeros(a.shape) for a in arrays]
            comps_sum = dict.fromkeys(COMPONENTS, 0.0)
            for idx in chunk:
                drop = drop_rng.random() < config.modality_dropout_prob
                z = dropped[idx] if drop else joints[idx]
                y1, buffers = _forward(params, z, work[z.shape])
                total, comps, grad_pred = loss_step(y1, targets[idx], config.weights)
                if not np.isfinite(total):
                    raise TrainingError(f"loss became non-finite at epoch {epoch}", params, history)
                for g, d in zip(grads, _backward(params, z, buffers, grad_pred)):
                    g += d
                for key in comps_sum:
                    comps_sum[key] += comps[key]
            k = len(chunk)
            lr = config.learning_rate / k
            updated = [a - lr * g for a, g in zip(arrays, grads)]
            if not all(np.all(np.isfinite(u)) for u in updated):
                raise TrainingError(f"parameters became non-finite at epoch {epoch}", params, history)
            for a, u in zip(arrays, updated):
                a[...] = u
            record = {key: comps_sum[key] / k for key in comps_sum}
            record["step"] = len(history)
            history.append(record)
    return params, history


def evaluate_losses(params: RefinerParams, dataset, graph: PriorGraph, weights: LossWeights = LossWeights()):
    """Mean loss components of fixed parameters over a dataset (no dropout).

    Returns the means of ``losses.COMPONENTS`` and of the hard-region hinge
    ``phys_argmax``, with per-scene hinge records under ``phys_terms``.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    totals = dict.fromkeys(COMPONENTS + ("phys_argmax",), 0.0)
    terms = []
    for k, scene in enumerate(dataset):
        z = assemble_joint(scene.features, scene.coarse, scene.rasters, graph)
        _check_scene(params, z, k)
        y1, _ = _forward(params, z)
        _, comps, _ = total_loss(y1, scene.labels, scene.features, scene.rasters, graph, weights)
        for key in totals:
            totals[key] += comps[key]
        terms.append(comps["phys_terms"])
    out = {key: value / len(dataset) for key, value in totals.items()}
    out["phys_terms"] = terms
    return out


def mock_backbone(
    labels,
    graph: PriorGraph,
    ambiguity_pairs=(),
    seed: int = 0,
):
    """Stand-in for a frozen backbone: noisy features and a coarse probability map.

    Classes in an ambiguity pair share one feature direction and get their
    coarse probability split ~50/50, so they are indistinguishable without
    physical measurements; every other class is predicted near one-hot.
    """
    c = graph.num_classes
    labels = check_labels(labels, c)
    effective = np.arange(c + 1)
    for pair in ambiguity_pairs:
        if len(pair) != 2:
            raise ValueError(f"ambiguity pair {pair!r} must have exactly two classes")
        a, b = int(pair[0]), int(pair[1])
        if not (1 <= a <= c and 1 <= b <= c) or a == b:
            raise ValueError(f"invalid ambiguity pair ({a}, {b}) for a {c}-class graph")
        lo, hi = min(a, b), max(a, b)
        effective[hi] = lo

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 3])))
    h, w = labels.shape

    directions = np.zeros((c + 1, c))
    for cid in range(1, c + 1):
        directions[cid, effective[cid] - 1] = 1.0
    # each map is its noise draw with the rest added in place: a + b == b + a bit for bit
    features = rng.normal(scale=FEATURE_NOISE, size=(h, w, c))
    features += directions[labels]

    base = np.full((h, w, c), 0.02)
    pair_members = {m for pair in ambiguity_pairs for m in pair}
    for cid in range(1, c + 1):
        mask = labels == cid
        if cid in pair_members:
            partner = next(
                (b if a == cid else a) for a, b in ambiguity_pairs if cid in (a, b)
            )
            base[mask, cid - 1] += 0.45
            base[mask, partner - 1] += 0.45
        else:
            base[mask, cid - 1] += 0.90
    base[labels == 0] = 1.0 / c
    coarse = rng.normal(scale=COARSE_NOISE, size=base.shape)
    coarse += base
    np.maximum(coarse, 1e-4, out=coarse)
    coarse /= coarse.sum(axis=2, keepdims=True)
    return features, coarse
