"""Score calibration: Platt scaling, isotonic regression, method selection.

Platt scaling fits ``P(y=1|s) = sigmoid(a*s + b)`` by deterministic damped
Newton iterations against the smoothed targets ``(N+ + 1)/(N+ + 2)`` and
``1/(N- + 2)``. If the raw scores are anti-oriented (rank AUC < 0.5) they
are negated before fitting and the flip is recorded, which keeps the fitted
slope non-negative; the resulting map is monotone in the oriented score.

Isotonic regression pre-pools tied scores by averaging, runs weighted
pool-adjacent-violators over the score-sorted targets, and stores the fit
as knots. Evaluation interpolates linearly between knots and clamps to the
first/last knot value outside their range, so the output is always a
non-decreasing probability in [0, 1].

``select_method`` picks between the two by 3-fold cross-fit log-loss with
a deterministic score-sorted round-robin fold assignment; ties and small
samples (< 12 points) fall back to Platt, the lower-variance choice. A
method that cannot fit some fold (one class in its training part, too few
points, constant scores) scores an infinite loss there, so two such
methods also tie. One table maps each fitted method to its fitter, for the
selection and for ``fit_calibrator`` alike.

Scores and labels are checked by ``metrics.check_scores``, the 0/1 label
rule the metrics and the trainers apply too, raising ``CalibrationError``.
A calibrator's ``fit_meta`` is a read-only mapping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import CalibrationError
from .learn.logistic import margin_log_loss, sigmoid
from .metrics import check_scores, log_loss, roc_auc, tie_groups
from .readonly import read_only

_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-10
_MIN_PLATT_POINTS = 4
_MIN_SELECT_POINTS = 12
# Clip for the selection log-loss only: mild enough that isotonic's hard
# 0/1 edge blocks are penalized, not annihilated, when a held-out point
# lands on the wrong side of them.
_SELECT_CLIP = 1e-3
_SELECT_FOLDS = 3


class CalibrationMethod(str, Enum):
    PLATT = "PLATT"
    ISOTONIC = "ISOTONIC"
    IDENTITY = "IDENTITY"


@dataclass(frozen=True)
class Calibrator:
    method: CalibrationMethod
    a: float | None = None
    b: float | None = None
    flipped: bool = False
    knot_scores: np.ndarray | None = None
    knot_values: np.ndarray | None = None
    fit_meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "fit_meta", read_only(self.fit_meta))

    def to_dict(self) -> dict:
        payload: dict = {"method": self.method.value, "fit_meta": dict(self.fit_meta)}
        if self.method is CalibrationMethod.PLATT:
            payload.update(a=float(self.a), b=float(self.b), flipped=self.flipped)
        elif self.method is CalibrationMethod.ISOTONIC:
            payload.update(knot_scores=[float(v) for v in self.knot_scores],
                           knot_values=[float(v) for v in self.knot_values])
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Calibrator":
        method = CalibrationMethod(payload["method"])
        fitted = {}
        if method is CalibrationMethod.PLATT:
            fitted = dict(a=float(payload["a"]), b=float(payload["b"]),
                          flipped=bool(payload["flipped"]))
        elif method is CalibrationMethod.ISOTONIC:
            fitted = dict(knot_scores=np.asarray(payload["knot_scores"], dtype=float),
                          knot_values=np.asarray(payload["knot_values"], dtype=float))
        return cls(method=method, fit_meta=payload.get("fit_meta", {}), **fitted)


def identity_calibrator(reason: str = "") -> Calibrator:
    return Calibrator(method=CalibrationMethod.IDENTITY,
                      fit_meta={"reason": reason} if reason else {})


def platt_targets(n_pos: int, n_neg: int) -> tuple[float, float]:
    """Platt's smoothed regression targets for positives and negatives."""
    return (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0)


def fit_platt(scores, labels) -> Calibrator:
    """Fit sigmoid(a*s + b) against Platt's smoothed targets by Newton."""
    s, y = check_scores(scores, labels, CalibrationError)
    if len(s) < _MIN_PLATT_POINTS:
        raise CalibrationError(f"Platt scaling needs >= {_MIN_PLATT_POINTS} points, got {len(s)}")
    if np.ptp(s) == 0.0:
        raise CalibrationError("all scores are equal; no information to calibrate")

    flipped = roc_auc(s, y) < 0.5
    if flipped:
        s = -s

    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    t_pos, t_neg = platt_targets(n_pos, n_neg)
    t = np.where(y == 1, t_pos, t_neg)

    a = 0.0
    b = float(np.log((n_pos + 1.0) / (n_neg + 1.0)))
    iterations = 0
    for _ in range(_NEWTON_MAX_ITER):
        z = a * s + b
        p = sigmoid(z)
        grad_a = float(np.sum(s * (p - t)))
        grad_b = float(np.sum(p - t))
        if max(abs(grad_a), abs(grad_b)) < _NEWTON_TOL:
            break
        w = p * (1.0 - p)
        h_aa = float(np.sum(s * s * w)) + 1e-12
        h_ab = float(np.sum(s * w))
        h_bb = float(np.sum(w)) + 1e-12
        det = h_aa * h_bb - h_ab * h_ab
        if det <= 0:
            break
        step_a = (h_bb * grad_a - h_ab * grad_b) / det
        step_b = (h_aa * grad_b - h_ab * grad_a) / det
        # Damped update: halve until the cross-entropy does not increase.
        loss = float(np.sum(margin_log_loss(z, t)))
        scale = 1.0
        for _ in range(40):
            a_new, b_new = a - scale * step_a, b - scale * step_b
            z_new = a_new * s + b_new
            if float(np.sum(margin_log_loss(z_new, t))) <= loss + 1e-12:
                break
            scale *= 0.5
        a, b = a - scale * step_a, b - scale * step_b
        iterations += 1

    if a < 0.0:
        # Orientation-normalized data should not yield a negative slope;
        # clamp to the flat maximum-likelihood fit to keep apply monotone.
        a = 0.0
        mean_t = float(np.mean(t))
        b = float(np.log(mean_t / (1.0 - mean_t)))

    meta = {"validation_size": len(y), "n_pos": n_pos, "n_neg": n_neg,
            "targets": [t_pos, t_neg], "iterations": iterations}
    return Calibrator(method=CalibrationMethod.PLATT, a=float(a), b=float(b),
                      flipped=bool(flipped), fit_meta=meta)


def _pool_ties(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = np.argsort(scores, kind="mergesort")
    s, y = scores[order], labels[order]
    starts, sizes = tie_groups(s)
    return s[starts], np.add.reduceat(y, starts) / sizes, sizes.astype(float)


def fit_isotonic(scores, labels) -> Calibrator:
    """Weighted pool-adjacent-violators over score-sorted labels."""
    s, y = check_scores(scores, labels, CalibrationError)
    uniq, targets, weights = _pool_ties(s, y)

    # Blocks as (value, weight) pairs; merge while monotonicity is violated.
    values: list[float] = []
    wsum: list[float] = []
    sizes: list[int] = []
    for v, w in zip(targets, weights):
        values.append(float(v))
        wsum.append(float(w))
        sizes.append(1)
        while len(values) > 1 and values[-2] > values[-1]:
            total = wsum[-2] + wsum[-1]
            merged = (values[-2] * wsum[-2] + values[-1] * wsum[-1]) / total
            values[-2:] = [merged]
            wsum[-2:] = [total]
            sizes[-2:] = [sizes[-2] + sizes[-1]]
    fitted = np.repeat(values, sizes)

    n_pos = int(y.sum())
    meta = {"validation_size": len(y), "n_pos": n_pos, "n_neg": len(y) - n_pos,
            "n_knots": len(uniq)}
    return Calibrator(method=CalibrationMethod.ISOTONIC, knot_scores=uniq,
                      knot_values=np.clip(fitted, 0.0, 1.0), fit_meta=meta)


# The fitted methods, in the order ``select_method`` prefers them on a tie.
_FITTERS = {CalibrationMethod.PLATT: fit_platt, CalibrationMethod.ISOTONIC: fit_isotonic}


def _cross_fit_loss(s: np.ndarray, y: np.ndarray, fit) -> float:
    """Held-out log-loss of ``fit`` per point; inf if it cannot fit a fold."""
    order = np.argsort(s, kind="mergesort")
    folds = [order[k::_SELECT_FOLDS] for k in range(_SELECT_FOLDS)]
    held_out = []
    for k, test_idx in enumerate(folds):
        train_idx = np.concatenate(folds[:k] + folds[k + 1:])
        try:
            cal = fit(s[train_idx], y[train_idx])
        except CalibrationError:
            return float("inf")
        held_out.append(apply(cal, s[test_idx]))
    return log_loss(np.concatenate(held_out), y[np.concatenate(folds)], eps=_SELECT_CLIP)


def select_method(scores, labels) -> CalibrationMethod:
    """Pick PLATT or ISOTONIC by 3-fold cross-fit log-loss (ties: PLATT)."""
    s, y = check_scores(scores, labels, CalibrationError)
    if len(s) < _MIN_SELECT_POINTS:
        return CalibrationMethod.PLATT
    loss_platt, loss_iso = (_cross_fit_loss(s, y, fit) for fit in _FITTERS.values())
    return CalibrationMethod.PLATT if loss_platt <= loss_iso else CalibrationMethod.ISOTONIC


def fit_calibrator(scores, labels, method: CalibrationMethod | None = None) -> Calibrator:
    """Fit the requested (or auto-selected) method, falling back to IDENTITY.

    Degenerate inputs (single class, constant scores) cannot support a
    calibration fit; they produce an IDENTITY calibrator plus a warning
    rather than an error, since raw detector scores are already in [0, 1].
    """
    try:
        if method is None:
            method = select_method(scores, labels)
        if method is CalibrationMethod.IDENTITY:
            return identity_calibrator("requested")
        return _FITTERS[method](scores, labels)
    except CalibrationError as exc:
        warnings.warn(f"calibration fell back to IDENTITY: {exc}", stacklevel=2)
        return identity_calibrator(str(exc))


def apply(calibrator: Calibrator, score):
    """Map raw score(s) through the calibrator; output is always in [0, 1]."""
    arr = np.asarray(score, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if calibrator.method is CalibrationMethod.IDENTITY:
        out = np.clip(arr, 0.0, 1.0)
    elif calibrator.method is CalibrationMethod.PLATT:
        oriented = -arr if calibrator.flipped else arr
        out = sigmoid(calibrator.a * oriented + calibrator.b)
    else:
        out = np.interp(arr, calibrator.knot_scores, calibrator.knot_values)
    return float(out[0]) if scalar else out
