"""Toy prompt-conditioned segmenter.

A per-pixel logistic model over six hand-built features of the image
and the prompt box.  It stands in for a full promptable segmentation
network so that perturbation strategies can be compared end to end at
desk scale: the model is trained with the BCE+Dice objective, an
AdamW-style update and a reduce-on-plateau schedule, one image per step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import loss as loss_mod
from .errors import BoxOutOfBounds, EmptyDataset, NonFiniteGradient
from .geometry import BoundingBox, box_from_mask, coefficients_for
from .perturb import PerturbationConfig, compute_offsets, sample_perturbed_box
from .rng import make_rng

FEATURE_NAMES = ("bias", "intensity", "inside_box", "edge_distance",
                 "center_offset_x", "center_offset_y")
N_FEATURES = len(FEATURE_NAMES)

MODEL_SCHEMA_VERSION = 1


class _WorkArrays:
    """Full-size (H, W) arrays for one forward and backward pass.

    A step needs half a dozen such intermediates.  Allocated afresh each
    step, they go back to the C heap when it ends; the heap then returns
    the pages to the system and faults them in again on the next step,
    which costs more than the arithmetic.  A model keeps one set per
    image shape and reuses it.

    `inside` and `signed` change only near the box but stay full-size,
    so each gradient entry sums the same (H, W) product in the same order
    as the full-image formula and the weights do not depend on the window.
    `inner` is the (rows, cols) slice pair where `inside` is 1.
    """

    def __init__(self, shape: tuple[int, int]):
        self.inside, self.signed, self.p, self.t, self.u, self.v = (
            np.empty(shape) for _ in range(6))
        self.mask_a, self.mask_b = (np.empty(shape, dtype=bool) for _ in range(2))


@dataclass
class ToyModel:
    """Logistic weights plus AdamW moment state.

    Calls on one model share its work arrays, so they must not run
    concurrently.
    """

    weights: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES))
    m: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES))
    v: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES))
    step: int = 0
    work: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def work_arrays(self, shape: tuple[int, int]) -> _WorkArrays:
        if shape not in self.work:
            self.work[shape] = _WorkArrays(shape)
        return self.work[shape]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    lr: float = 0.01
    lam: float = 1e-4
    scheduler_factor: float = 0.5
    scheduler_patience: int = 3
    min_lr: float = 1e-6
    seed: int = 0
    perturb: PerturbationConfig = field(default_factory=PerturbationConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0.0 < self.scheduler_factor < 1.0):
            raise ValueError("scheduler_factor must be in (0, 1)")
        if self.scheduler_patience < 1:
            raise ValueError("scheduler_patience must be >= 1")


def _axis(n: int, lo: float, hi: float, half: float):
    """Pixel centers c on one axis, their in-box distance e (negative
    outside), a = max(-e, 0), the run where e >= 0, and a window run that
    holds every center with a <= half (padded by a pixel against rounding)."""
    c = np.arange(n, dtype=np.float64) + 0.5
    e = np.minimum(c - lo, hi - c)
    start, cut = c.searchsorted((lo - half - 1.0, lo))
    stop, end = c.searchsorted((hi, hi + half + 1.0), "right")
    return c, e, np.maximum(-e, 0.0), slice(cut, stop), slice(start, end)


def _feature_parts(image: np.ndarray, box: BoundingBox,
                   work: _WorkArrays) -> tuple[np.ndarray, ...]:
    """The six features, in FEATURE_NAMES order, as 2-D arrays that broadcast to (H, W).

    The bias is (1, 1), the center offsets are (1, W) and (H, 1); the
    intensity, inside-box indicator and signed edge distance are (H, W),
    the last two written into work (see _WorkArrays).

    `inside` is 1 on the rectangle where e >= 0 on both axes.  A pixel
    more than `half` outside the box on one axis is more than `half` from
    it, so `signed` there clips to exactly -1: any window that holds every
    pixel with signed > -1 gives exact values, and only such a window is
    computed.  In it hypot(ax, ay) is ax + ay wherever one of them is 0,
    so hypot runs only on the corner blocks.
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if not box.within_image(w, h):
        raise BoxOutOfBounds(f"box exceeds image extent {w}x{h}")
    half = 0.5 * min(box.width, box.height)
    px, ex, ax, cols, wcols = _axis(w, box.x_min, box.x_max, half)
    py, ey, ay, rows, wrows = _axis(h, box.y_min, box.y_max, half)

    work.inside.fill(0.0)
    work.inner = rows, cols
    work.inside[rows, cols] = 1.0

    outside = np.add(ax[None, wcols], ay[wrows, None], out=work.t[wrows, wcols])
    for r in (slice(wrows.start, rows.start), slice(rows.stop, wrows.stop)):
        for c in (slice(wcols.start, cols.start), slice(cols.stop, wcols.stop)):
            np.hypot(ax[None, c], ay[r, None], out=work.t[r, c])
    work.signed.fill(-1.0)
    signed = np.minimum(ex[None, wcols], ey[wrows, None], out=work.signed[wrows, wcols])
    np.maximum(signed, 0.0, out=signed)
    signed -= outside
    signed /= half
    np.clip(signed, -1.0, 1.0, out=signed)

    bcx, bcy = box.center
    return (np.ones((1, 1)), image, work.inside, work.signed,
            np.abs(px[None, :] - bcx) / box.width, np.abs(py[:, None] - bcy) / box.height)


def featurize(image: np.ndarray, box: BoundingBox) -> np.ndarray:
    """Per-pixel feature grid of shape (H, W, 6).

    Features: constant bias, normalized intensity, inside-box indicator,
    signed distance to the nearest box edge (normalized by half the
    shorter side, clamped to [-1, 1], positive inside), and the absolute
    offsets from the box center normalized by box width/height.
    Training never builds this grid; it works on the broadcast parts.
    """
    parts = _feature_parts(image, box, _WorkArrays(np.shape(image)))
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def _forward(model: ToyModel, image: np.ndarray, box: BoundingBox):
    """Work arrays holding the clipped sigmoid (p), and the features.

    The logit has the bits of sum(weight * part): w0 * 1 is added after w1 * I
    (addition commutes) and w2 only on work.inner (elsewhere w2 * 0 could flip
    only a zero's sign, which the sigmoid ignores).
    """
    work = model.work_arrays(np.shape(image))
    parts = _, intensity, _, signed, cx, cy = _feature_parts(image, box, work)
    w0, w1, w2, w3, w4, w5 = model.weights
    z = np.multiply(intensity, w1, out=work.p)
    z += w0
    z[work.inner] += w2
    for weight, part in ((w3, signed), (w4, cx), (w5, cy)):
        z += np.multiply(part, weight, out=work.t[:part.shape[0], :part.shape[1]])
    # Logistic without overflow: 1/(1+e) for z >= 0 and e/(1+e) below, e = exp(-|z|).
    neg = np.less(z, 0.0, out=work.mask_a)
    nonneg = np.logical_not(neg, out=work.mask_b)
    np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    np.add(z, 1.0, out=work.t)
    np.divide(z, work.t, out=z, where=neg)
    np.divide(1.0, work.t, out=z, where=nonneg)
    np.clip(z, loss_mod.CLIP_EPS, 1.0 - loss_mod.CLIP_EPS, out=z)
    return work, parts


def predict(model: ToyModel, image: np.ndarray, box: BoundingBox) -> np.ndarray:
    """Clipped per-pixel foreground probabilities."""
    work, _ = _forward(model, image, box)
    return work.p.copy()


def weight_gradient(model: ToyModel, image: np.ndarray, mask: np.ndarray,
                    box: BoundingBox) -> tuple[np.ndarray, loss_mod.LossReport]:
    """Gradient of the combined loss w.r.t. the weights, plus the loss report."""
    work, (_, intensity, inside, signed, cx, cy) = _forward(model, image, box)
    report = loss_mod.combined_loss_into(work.p, mask, work.t, grad_out=work.u,
                                         var_out=work.v)
    # Chain rule through the logistic: dp/dz = p (1 - p), which the loss
    # left in work.v.  Clipped pixels (p at a clip bound) contribute
    # nothing, and elsewhere p is the unclipped sigmoid.
    p, t = work.p, work.t
    clipped = np.less_equal(p, loss_mod.CLIP_EPS, out=work.mask_a)
    clipped |= np.greater_equal(p, 1.0 - loss_mod.CLIP_EPS, out=work.mask_b)
    np.putmask(work.v, clipped, 0.0)
    resid = np.multiply(work.u, work.v, out=work.u)
    # sum(resid * part); a part that is constant along an axis takes the
    # residual's sums along that axis instead.
    grad_w = np.array([
        resid.sum(axis=(0, 1)),
        np.multiply(resid, intensity, out=t).sum(),
        np.multiply(resid, inside, out=t).sum(),
        np.multiply(resid, signed, out=t).sum(),
        np.multiply(resid.sum(axis=0, keepdims=True), cx, out=t[:1]).sum(),
        np.multiply(resid.sum(axis=1, keepdims=True), cy, out=t[:, :1]).sum(),
    ])
    return grad_w, report


def train_step(model: ToyModel, image: np.ndarray, mask: np.ndarray,
               box: BoundingBox, lam: float, lr: float) -> loss_mod.LossReport:
    """One AdamW-style update (decoupled weight decay); returns the pre-update loss."""
    grad, report = weight_gradient(model, image, mask, box)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("non-finite weight gradient; step aborted")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    model.step += 1
    model.m = beta1 * model.m + (1.0 - beta1) * grad
    model.v = beta2 * model.v + (1.0 - beta2) * grad * grad
    m_hat = model.m / (1.0 - beta1 ** model.step)
    v_hat = model.v / (1.0 - beta2 ** model.step)
    model.weights = (model.weights
                     - lr * m_hat / (np.sqrt(v_hat) + eps)
                     - lr * lam * model.weights)
    return report


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


def _mean_val_loss(model: ToyModel, prompted) -> float:
    """Mean combined loss over (sample, prompt box) pairs."""
    losses = []
    for sample, box in prompted:
        work, _ = _forward(model, sample.image, box)
        losses.append(loss_mod.combined_loss_into(work.p, sample.mask, work.t).combined)
    return float(np.mean(losses))


def train(split, cfg: TrainConfig) -> tuple[ToyModel, list[EpochRecord]]:
    """Train on split.train with per-epoch validation on split.val.

    One image per optimizer step, fresh perturbation draw per image per
    epoch from the stream (seed, epoch, image index), reduce-on-plateau
    schedule on the validation loss.  Fully deterministic for a fixed
    config.  Each training image's GT box and perturbation offsets are
    fixed, so they are computed once per fit.
    """
    if not split.train or not split.val:
        raise EmptyDataset("train and val splits must be nonempty")
    pcfg = cfg.perturb
    train_prompts = []
    for sample in split.train:
        h, w = sample.image.shape
        gt_box = box_from_mask(sample.mask)
        offsets = compute_offsets(pcfg, coefficients_for(gt_box, w, h, pcfg.theta_floor))
        train_prompts.append((gt_box, offsets))
    val_prompted = [(sample, box_from_mask(sample.mask)) for sample in split.val]
    model = ToyModel()
    history: list[EpochRecord] = []
    lr, best_val, stale = cfg.lr, np.inf, 0
    for epoch in range(1, cfg.epochs + 1):
        train_losses = []
        for idx, (sample, (gt_box, offsets)) in enumerate(zip(split.train, train_prompts)):
            h, w = sample.image.shape
            drawn = sample_perturbed_box(gt_box, offsets, w, h, pcfg,
                                         make_rng(cfg.seed, epoch, idx))
            report = train_step(model, sample.image, sample.mask, drawn.box,
                                cfg.lam, lr)
            train_losses.append(report.combined)
        val_loss = _mean_val_loss(model, val_prompted)
        history.append(EpochRecord(epoch=epoch, train_loss=float(np.mean(train_losses)),
                                   val_loss=val_loss, lr=lr))
        if val_loss < best_val:
            best_val, stale = val_loss, 0
        else:
            stale += 1
            if stale >= cfg.scheduler_patience:
                lr = max(lr * cfg.scheduler_factor, cfg.min_lr)
                stale = 0
    return model, history


@dataclass(frozen=True)
class EvalResult:
    dsc_mean: float
    nsd_mean: float
    tau: float
    per_image_dsc: tuple[float, ...]
    per_image_nsd: tuple[float, ...]


def prompt_box_for_mode(gt_box: BoundingBox, mode: str, frac: float,
                        image_w: int, image_h: int) -> BoundingBox:
    """Derive the evaluation prompt box: standard, expanded or shrunk edges."""
    if mode not in ("standard", "expand", "shrink"):
        raise ValueError(f"unknown prompt mode {mode!r}")
    if not (0.0 <= frac <= 0.4):
        raise ValueError(f"frac must be in [0, 0.4], got {frac}")
    if mode == "standard" or frac == 0.0:
        return gt_box
    sign = 1.0 if mode == "expand" else -1.0
    dx, dy = sign * frac * gt_box.width, sign * frac * gt_box.height
    return BoundingBox(max(gt_box.x_min - dx, 0.0), max(gt_box.y_min - dy, 0.0),
                       min(gt_box.x_max + dx, float(image_w)),
                       min(gt_box.y_max + dy, float(image_h)))


def evaluate(model: ToyModel, samples, mode: str = "standard", frac: float = 0.0,
             tau: float = 2.0) -> EvalResult:
    """Macro-averaged DSC/NSD over samples under one prompt regime.

    Predictions are thresholded at p > 0.5 (strict; ties go to
    background).  Raises EmptyDataset when there are no samples.
    """
    from .metrics import dsc as dsc_fn, nsd as nsd_fn

    if not samples:
        raise EmptyDataset("no samples to evaluate")
    dscs, nsds = [], []
    for sample in samples:
        h, w = sample.image.shape
        box = prompt_box_for_mode(box_from_mask(sample.mask), mode, frac, w, h)
        pred = predict(model, sample.image, box) > 0.5
        dscs.append(dsc_fn(sample.mask, pred))
        nsds.append(nsd_fn(sample.mask, pred, tau))
    return EvalResult(dsc_mean=float(np.mean(dscs)), nsd_mean=float(np.mean(nsds)),
                      tau=tau, per_image_dsc=tuple(dscs), per_image_nsd=tuple(nsds))


def save_model(model: ToyModel, path, train_config_echo: dict | None = None):
    """Write the model as JSON; weights round-trip bit-exactly."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "weights": [float(x) for x in model.weights],
        "optimizer_state": {
            "m": [float(x) for x in model.m],
            "v": [float(x) for x in model.v],
            "step": model.step,
        },
        "train_config_echo": train_config_echo or {},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_model(path) -> ToyModel:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema: {doc.get('schema_version')}")
    state = doc["optimizer_state"]
    return ToyModel(weights=np.array(doc["weights"], dtype=np.float64),
                    m=np.array(state["m"], dtype=np.float64),
                    v=np.array(state["v"], dtype=np.float64),
                    step=int(state["step"]))
