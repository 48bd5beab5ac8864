"""Residual refinement head over the joint visual/coarse/physical tensor.

The joint tensor stacks [features | coarse probabilities | physical rasters]
per pixel, with physical channels standardized from graph-level interval
statistics and zero-filled when a modality is absent.  A shared two-layer
perceptron (1x1-convolution semantics) predicts a bounded correction that is
added to the coarse probabilities; a zero-initialized head makes the module
start as the identity.  Training is plain seeded gradient descent on the
joint objective, with per-scene modality dropout so one weight set serves
both visual-only and visual-physical inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import LossWeights, loss_step, prepare_targets, total_loss
from .priors import MODALITIES, PriorGraph

PROB_FLOOR = 1e-6  # lower clamp for refined probabilities


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

    def copy(self) -> "RefinerParams":
        return RefinerParams(
            w1=self.w1.copy(),
            b1=self.b1.copy(),
            w2=self.w2.copy(),
            b2=self.b2.copy(),
            residual_scale=self.residual_scale,
        )


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.modality_dropout_prob <= 1.0:
            raise ValueError("modality_dropout_prob must be in [0, 1]")
        if self.epochs < 1 or self.hidden < 1:
            raise ValueError("epochs and hidden width must be >= 1")


@dataclass(frozen=True)
class Scene:
    """One training sample: backbone outputs, physical rasters and ground truth."""

    features: np.ndarray  # (H, W, D)
    coarse: np.ndarray  # (H, W, C)
    rasters: dict  # modality -> (H, W)
    labels: np.ndarray  # (H, W) ints, 0 = unlabeled


def assemble_joint(features, coarse, rasters, graph: PriorGraph) -> np.ndarray:
    """Stack [features | coarse | NDVI | DEM | SAR] channels per pixel.

    Physical channels are standardized by the graph-level interval-midpoint
    mean/scale of their modality; absent modalities stay all-zero.
    """
    features = np.asarray(features, dtype=np.float64)
    coarse = np.asarray(coarse, dtype=np.float64)
    if features.ndim != 3:
        raise ValueError(f"features must be (H, W, D), got shape {features.shape}")
    if coarse.ndim != 3:
        raise ValueError(f"coarse map must be (H, W, C), got shape {coarse.shape}")
    h, w = features.shape[:2]
    if coarse.shape[:2] != (h, w):
        raise ValueError(
            f"coarse map shape {coarse.shape[:2]} does not match features {(h, w)}"
        )
    if coarse.shape[2] != graph.num_classes:
        raise ValueError(
            f"coarse map has {coarse.shape[2]} channels but the graph defines "
            f"{graph.num_classes} classes"
        )
    rasters = rasters or {}
    unknown = set(rasters) - set(MODALITIES)
    if unknown:
        raise ValueError(f"unknown raster modalities {sorted(unknown)}")
    phys = np.zeros((h, w, len(MODALITIES)))
    for k, name in enumerate(MODALITIES):
        if name not in rasters:
            continue
        grid = np.asarray(rasters[name], dtype=np.float64)
        if grid.shape != (h, w):
            raise ValueError(f"raster {name!r} shape {grid.shape} does not match {(h, w)}")
        mu, sigma = graph.modality_stats(name)
        phys[:, :, k] = (grid - mu) / sigma
    return np.concatenate([features, coarse, phys], axis=2)


def zero_phys_channels(z: np.ndarray) -> np.ndarray:
    """Copy of a joint tensor with the physical channel slots zeroed."""
    out = z.copy()
    out[:, :, -len(MODALITIES):] = 0.0
    return out


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


def _forward(params: RefinerParams, z: np.ndarray, coarse: np.ndarray):
    h, w, _ = z.shape
    flat_z = z.reshape(h * w, -1)
    # bias and tanh in place: one (N, hidden) buffer instead of two
    hidden = flat_z @ params.w1.T
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    squash = np.tanh(hidden @ params.w2.T + params.b2)
    dy = params.residual_scale * squash
    raw = coarse.reshape(h * w, -1) + dy
    y1 = np.clip(raw, PROB_FLOOR, 1.0)
    cache = (flat_z, hidden, squash, raw)
    return y1.reshape(h, w, -1), dy.reshape(h, w, -1), cache


def _backward(params: RefinerParams, cache, grad_y1: np.ndarray):
    flat_z, hidden, squash, raw = cache
    g = grad_y1.reshape(raw.shape)
    inside = (raw > PROB_FLOOR) & (raw < 1.0)
    g_dy = np.where(inside, g, 0.0)
    g_pre2 = g_dy * params.residual_scale * (1.0 - squash * squash)
    g_w2 = g_pre2.T @ hidden
    g_b2 = g_pre2.sum(axis=0)
    # 1 - hidden^2 in place: one (N, hidden) temporary instead of two
    tanh_grad = hidden * hidden
    np.subtract(1.0, tanh_grad, out=tanh_grad)
    g_pre1 = g_pre2 @ params.w2
    g_pre1 *= tanh_grad
    g_w1 = g_pre1.T @ flat_z
    g_b1 = g_pre1.sum(axis=0)
    return g_w1, g_b1, g_w2, g_b2


def refine(params: RefinerParams, z: np.ndarray, coarse: np.ndarray):
    """Apply the residual head: returns (refined map, correction).

    Refined values are clamped into [1e-6, 1] so downstream re-weighting is
    always well-defined.
    """
    params.validate()
    z = np.asarray(z, dtype=np.float64)
    coarse = np.asarray(coarse, dtype=np.float64)
    if z.ndim != 3 or coarse.ndim != 3 or z.shape[:2] != coarse.shape[:2]:
        raise ValueError(
            f"joint tensor shape {z.shape} does not align with coarse map {coarse.shape}"
        )
    if z.shape[2] != params.w1.shape[1]:
        raise ValueError(
            f"joint tensor has {z.shape[2]} channels but fusion expects {params.w1.shape[1]}"
        )
    y1, dy, _ = _forward(params, z, coarse)
    return y1, dy


def train(dataset, graph: PriorGraph, config: TrainConfig):
    """Seeded gradient descent on the joint objective over a list of Scenes.

    Returns (params, history); history holds per-update mean loss components
    with keys step, seg, region, phys, phys_argmax, total.  Each scene is
    checked and its loss targets prepared once, before the first step.
    Raises TrainingError (carrying the last finite state) if the loss goes
    non-finite.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    scenes = list(dataset)
    feature_dim = np.asarray(scenes[0].features).shape[2]
    c = graph.num_classes
    params = init_params(feature_dim, c, config)

    z_full = [assemble_joint(s.features, s.coarse, s.rasters, graph) for s in scenes]
    z_dropped = [zero_phys_channels(z) for z in z_full]
    targets = [
        prepare_targets(s.labels, s.features, s.rasters, graph, z.shape[:2] + (c,))
        for s, z in zip(scenes, z_full)
    ]
    drop_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(config.seed), 1])))
    batch_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(config.seed), 2])))

    n = len(scenes)
    batch = n if config.batch_size in (0, None) else min(config.batch_size, n)
    history = []
    last_good = params.copy()

    for epoch in range(config.epochs):
        order = np.arange(n) if batch == n else batch_rng.permutation(n)
        for start in range(0, n, batch):
            chunk = order[start : start + batch]
            g_w1 = np.zeros_like(params.w1)
            g_b1 = np.zeros_like(params.b1)
            g_w2 = np.zeros_like(params.w2)
            g_b2 = np.zeros_like(params.b2)
            comps_sum = {"seg": 0.0, "region": 0.0, "phys": 0.0, "phys_argmax": 0.0, "total": 0.0}
            for idx in chunk:
                scene = scenes[idx]
                drop = drop_rng.random() < config.modality_dropout_prob
                z = z_dropped[idx] if drop else z_full[idx]
                y1, _, cache = _forward(params, z, scene.coarse)
                total, comps, grad_pred = loss_step(y1, targets[idx], config.weights)
                if not np.isfinite(total):
                    raise TrainingError(
                        f"loss became non-finite at epoch {epoch}",
                        params=last_good,
                        history=history,
                    )
                dw1, db1, dw2, db2 = _backward(params, cache, grad_pred)
                g_w1 += dw1
                g_b1 += db1
                g_w2 += dw2
                g_b2 += db2
                for key in comps_sum:
                    comps_sum[key] += comps[key]
            k = len(chunk)
            lr = config.learning_rate / k
            params.w1 -= lr * g_w1
            params.b1 -= lr * g_b1
            params.w2 -= lr * g_w2
            params.b2 -= lr * g_b2
            if not (
                np.all(np.isfinite(params.w1))
                and np.all(np.isfinite(params.b1))
                and np.all(np.isfinite(params.w2))
                and np.all(np.isfinite(params.b2))
            ):
                raise TrainingError(
                    f"parameters became non-finite at epoch {epoch}",
                    params=last_good,
                    history=history,
                )
            last_good = params.copy()
            record = {key: comps_sum[key] / k for key in comps_sum}
            record["step"] = len(history)
            history.append(record)
    return params, history


def evaluate_losses(params: RefinerParams, dataset, graph: PriorGraph, weights: LossWeights = LossWeights()):
    """Mean loss components of fixed parameters over a dataset (no dropout).

    Returns the component breakdown with per-scene hinge diagnostics under
    ``phys_terms``.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    totals = {"seg": 0.0, "region": 0.0, "phys": 0.0, "phys_argmax": 0.0, "total": 0.0}
    terms = []
    for scene in dataset:
        z = assemble_joint(scene.features, scene.coarse, scene.rasters, graph)
        y1, _, _ = _forward(params, z, scene.coarse)
        _, comps, _ = total_loss(
            y1, scene.labels, scene.features, scene.rasters, graph, weights
        )
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
    feature_dim: int | None = None,
    coarse_noise: float = 0.02,
    feature_noise: float = 0.3,
):
    """Stand-in for a frozen backbone: noisy features and a coarse probability map.

    Classes in an ambiguity pair share one feature direction and get their
    coarse probability split ~50/50, so they are indistinguishable without
    physical measurements; every other class is predicted near one-hot.
    """
    labels = np.asarray(labels)
    c = graph.num_classes
    d = feature_dim or c
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

    directions = np.zeros((c + 1, d))
    for cid in range(1, c + 1):
        directions[cid, (effective[cid] - 1) % d] = 1.0
    features = directions[labels] + rng.normal(scale=feature_noise, size=(h, w, d))

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
    coarse = np.clip(base + rng.normal(scale=coarse_noise, size=base.shape), 1e-4, None)
    coarse = coarse / coarse.sum(axis=2, keepdims=True)
    return features, coarse
