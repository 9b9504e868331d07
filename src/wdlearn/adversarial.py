"""Adversarial training for the empirical Euler-Lagrange saddle point.

A solution network and an adversary network, both cylinder functions
realized as affine-head ReLU networks, play the magnitude ``|num| / den``
of the normalized weak-form residual

    [ <F - y, H> + lam * pce(F, H) ] / |H|,

where the inner products are empirical means over the batch, ``pce`` is
the pre-Cheeger pairing of the two gradient fields, and the norm is
either the discrete Sobolev norm (value plus field energy) or the plain
L2 norm.  The adversary maximizes the magnitude and the solution net
minimizes it: a max network is not closed under negation, so the signed
residual could be negative at the adversary's best and would then be
unbounded below for the solution net.  Both losses are homogeneous of
degree zero in the adversary's output scale.  Gradients are taken
through the denominator as well.

The step functions take both nets' batch terms, the ``(y, cache, S,
field)`` of :func:`cylinder_field_batch`, from their caller.  Per batch,
:func:`run_algorithm1` builds the solution net's terms before the
adversary steps and before each later solution step, and the adversary's
before each adversary step and once more before the solution steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cylinder import field_pairing
from .errors import DegenerateAdversary, Diverged
from .measures import GroundSpace
from .nets import (
    Adam,
    ReluNetwork,
    backward_with_pairing,
    cylinder_field_batch,
    mean_relative_error,
    _splits,
)

_NORM_FLOOR = 1e-8


@dataclass
class SaddleState:
    """Solution net, adversary net, and the saddle-point parameters."""

    f_net: ReluNetwork
    h_net: ReluNetwork
    lam: float = 0.0
    n_xi: int = 1
    n_theta: int = 1
    norm: str = "h12"  # "h12" or "l2"

    def __post_init__(self):
        if self.f_net.input_dim != self.h_net.input_dim:
            raise ValueError("solution and adversary nets must share the input dimension")
        if self.n_xi < 1 or self.n_theta < 1:
            raise ValueError("both inner step counts must be at least 1")
        if self.norm not in ("h12", "l2"):
            raise ValueError(f"unknown norm mode {self.norm!r}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")


def _ratio(state: SaddleState, X, y, F, H):
    """Numerator and denominator of the normalized residual on a batch.

    ``F`` and ``H`` are the solution and adversary nets' terms ``(y, cache,
    S, field)`` from :func:`cylinder_field_batch` on ``X``.
    """
    (yF, _, _, fF), (yH, _, _, fH) = F, H
    B = len(y)
    num_data = float(np.dot(yF - y, yH)) / B
    num_pce = state.lam * float(field_pairing(fF, fH, X).sum()) / B
    q = float(np.dot(yH, yH)) / B
    if state.norm == "h12":
        q += float(field_pairing(fH, fH, X).sum()) / B
    den = float(np.sqrt(q))
    if den < _NORM_FLOOR:
        raise DegenerateAdversary(f"adversary batch norm {den:.3e} below floor {_NORM_FLOOR}")
    return num_data + num_pce, den


def loss_adversary(state: SaddleState, ground: GroundSpace, X, y) -> float:
    """Negated magnitude of the normalized residual (the adversary
    minimizes this)."""
    return -loss_solution(state, ground, X, y)


def loss_solution(state: SaddleState, ground: GroundSpace, X, y) -> float:
    """Magnitude ``|num| / den`` of the normalized residual (the solution
    net minimizes this)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    F = cylinder_field_batch(state.f_net, ground, X)
    H = cylinder_field_batch(state.h_net, ground, X)
    num, den = _ratio(state, X, np.asarray(y, dtype=float), F, H)
    return abs(num) / den


def solution_step_grads(state: SaddleState, ground: GroundSpace, X, y, F, H):
    """Gradient of the solution loss w.r.t. the solution net parameters,
    from both nets' terms on the batch (see :func:`_ratio`).

    The denominator does not depend on the solution net, so this is the
    numerator gradient scaled by ``sign(num) / |H|``.
    """
    (_, cF, SF, _), (yH, _, _, fH) = F, H
    num, den = _ratio(state, X, y, F, H)
    scale = len(y) * den
    value_seeds = np.sign(num) / scale * yH
    other = np.sign(num) * state.lam / scale * fH
    grads = backward_with_pairing(state.f_net, ground, cF, SF, X, value_seeds, other)
    return grads, abs(num) / den


def adversary_step_grads(state: SaddleState, ground: GroundSpace, X, y, F, H):
    """Gradient of the adversary loss w.r.t. the adversary parameters,
    from both nets' terms on the batch (see :func:`_ratio`).

    Differentiates through the denominator: for ``L = -|num| / den`` the
    seeds combine as ``-sign(num) (d num)/den + |num| (d q) / (2 den^3)``.
    """
    (yF, _, _, fF), (yH, cH, SH, fH) = F, H
    num, den = _ratio(state, X, y, F, H)
    B = len(y)
    c_num = -np.sign(num) / den
    c_q = abs(num) / (2.0 * den**3)

    value_seeds = c_num * (yF - y) / B + c_q * 2.0 * yH / B
    # the pairing is linear in the other field, so the numerator's
    # <DF, DH> and the h12 norm's <DH, DH> share one backward pass
    other = c_num * state.lam / B * fF
    if state.norm == "h12":
        other = other + c_q * 2.0 / B * fH
    grads = backward_with_pairing(state.h_net, ground, cH, SH, X, value_seeds, other)
    return grads, -abs(num) / den


@dataclass
class AdversarialConfig:
    """Outer-loop hyperparameters; ``batch_size=None`` means full batch.

    The adversary may run at its own learning rate: the inner supremum
    should track faster than the outer descent moves.
    """

    epochs: int = 100
    lr: float = 1e-3
    lr_xi: Optional[float] = None
    batch_size: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.lr_xi is None:
            self.lr_xi = self.lr
        if self.epochs < 0 or not (0 < self.lr < np.inf and 0 < self.lr_xi < np.inf):
            raise ValueError("epochs and learning rates must be positive and finite")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def run_algorithm1(
    state: SaddleState,
    X: np.ndarray,
    y: np.ndarray,
    ground: GroundSpace,
    config: AdversarialConfig,
    X_test: Optional[np.ndarray] = None,
    y_test: Optional[np.ndarray] = None,
) -> list:
    """Alternating optimization: per batch, ``n_xi`` adversary steps then
    ``n_theta`` solution steps, repeated for the epoch budget.

    Degenerate-adversary batches skip the step and are counted in the
    epoch record.  Returns one record per epoch with both losses, the
    mean relative error of the solution net, and ``epoch_s``, the wall
    time of the epoch's steps (0 for the initial record; the record's own
    evaluation is not counted).  The splits are checked before any step,
    as :func:`wdlearn.nets.train` checks them.
    """
    X, y, X_test, y_test = _splits(X, y, X_test, y_test, names=("X", "y"))
    n = len(y)
    batch = n if config.batch_size is None else min(config.batch_size, n)
    rng = np.random.default_rng(config.seed)
    opt_h = Adam(state.h_net, lr=config.lr_xi)
    opt_f = Adam(state.f_net, lr=config.lr)

    def record(epoch, skipped, epoch_s):
        F = cylinder_field_batch(state.f_net, ground, X)
        H = cylinder_field_batch(state.h_net, ground, X)
        try:
            num, den = _ratio(state, X, y, F, H)
            sol = abs(num) / den
        except DegenerateAdversary:
            sol = float("nan")
        rec = {
            "epoch": epoch,
            "solution_loss": sol,
            "adversary_loss": -sol,
            "train_rel_err": mean_relative_error(F[0], y),
            "skipped_steps": skipped,
        }
        if X_test is not None:
            rec["test_rel_err"] = mean_relative_error(state.f_net.forward(X_test), y_test)
        rec["epoch_s"] = epoch_s
        return rec

    trace = [record(0, 0, 0.0)]
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter_ns()
        order = rng.permutation(n)
        skipped = 0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            Xb, yb = X[idx], y[idx]
            F = cylinder_field_batch(state.f_net, ground, Xb)
            for _ in range(state.n_xi):
                H = cylinder_field_batch(state.h_net, ground, Xb)
                try:
                    grads, loss = adversary_step_grads(state, ground, Xb, yb, F, H)
                except DegenerateAdversary:
                    skipped += 1
                    continue
                if not np.isfinite(loss):
                    raise Diverged(f"adversary loss non-finite at epoch {epoch}")
                opt_h.step(grads)
            H = cylinder_field_batch(state.h_net, ground, Xb)
            for i in range(state.n_theta):
                if i:
                    F = cylinder_field_batch(state.f_net, ground, Xb)
                try:
                    grads, loss = solution_step_grads(state, ground, Xb, yb, F, H)
                except DegenerateAdversary:
                    skipped += 1
                    continue
                if not np.isfinite(loss):
                    raise Diverged(f"solution loss non-finite at epoch {epoch}")
                opt_f.step(grads)
        trace.append(record(epoch, skipped, (time.perf_counter_ns() - t0) * 1e-9))
    return trace
