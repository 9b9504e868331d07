"""Layered affine+ReLU networks with hand-rolled reverse accumulation.

The architecture family is an affine first layer (one row per stored
potential) composed with the fixed ReLU tree that computes the max of
``2^k`` inputs.  Because the first layer is affine in the input measure,
every network here is a cylinder function: its measure-space gradient
field contracts the output's sensitivity to the first-layer
pre-activations against the finite-difference spatial gradients of the
first-layer rows.  The backward pass therefore supports two seed types:
plain output seeds, and seeds against those pre-activation
sensitivities (needed by energy-regularized and weak-form losses, where
the loss itself contains the input-gradient).  At ReLU kinks the
subgradient convention is derivative 0 at exactly 0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cylinder import gradient_operators, grid_gradients
from .errors import Diverged, TooManyRows
from .measures import GroundSpace, relative_errors


@dataclass
class Layer:
    W: np.ndarray
    b: np.ndarray
    activation: str = "relu"  # "relu" or "none"
    train_W: bool = True
    train_b: bool = True

    def __post_init__(self):
        # always copy: layers own their parameters (shared constants such
        # as the max-tree blocks must not be mutated through a network)
        self.W = np.array(self.W, dtype=float)
        self.b = np.array(self.b, dtype=float).reshape(-1)
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.W.shape[0] != self.b.shape[0]:
            raise ValueError("bias length must match the output width")


class ReluNetwork:
    """Ordered affine layers with optional ReLU activations."""

    def __init__(self, layers: Sequence[Layer]):
        layers = list(layers)
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.W.shape[1] != prev.W.shape[0]:
                raise ValueError("adjacent layer dimensions are incompatible")
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].W.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].W.shape[0]

    @property
    def hidden_widths(self) -> list:
        return [lay.W.shape[0] for lay in self.layers[:-1]]

    def forward_cached(self, X: np.ndarray):
        """Forward pass keeping pre-activations for the backward pass."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        a = X
        zs, acts = [], []
        for lay in self.layers:
            z = a @ lay.W.T + lay.b
            a = np.maximum(z, 0.0) if lay.activation == "relu" else z
            zs.append(z)
            acts.append(a)
        return acts[-1][:, 0], {"input": X, "z": zs, "a": acts}

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Batch outputs, shape (B,); the output width must be 1."""
        if self.output_dim != 1:
            raise ValueError("forward() expects a scalar-output network")
        return self.forward_cached(X)[0]

    def trainable(self) -> list:
        out = []
        for i, lay in enumerate(self.layers):
            if lay.train_W:
                out.append((i, "W"))
            if lay.train_b:
                out.append((i, "b"))
        return out

    def set_all_trainable(self, flag: bool = True) -> "ReluNetwork":
        for lay in self.layers:
            lay.train_W = flag
            lay.train_b = flag
        return self

    def scale_output(self, c: float) -> "ReluNetwork":
        """Scale the final layer in place (used by homogeneity checks)."""
        self.layers[-1].W = self.layers[-1].W * c
        self.layers[-1].b = self.layers[-1].b * c
        return self

    def copy(self) -> "ReluNetwork":
        return ReluNetwork(
            [
                Layer(l.W.copy(), l.b.copy(), l.activation, l.train_W, l.train_b)
                for l in self.layers
            ]
        )


def _masks(net: ReluNetwork, cache) -> list:
    out = []
    for lay, z in zip(net.layers, cache["z"]):
        out.append((z > 0.0).astype(float) if lay.activation == "relu" else None)
    return out


def backward(net: ReluNetwork, cache, value_seeds, sgrad_seeds=None, need_sensitivities=False):
    """Parameter gradients for a scalar loss.

    Parameters
    ----------
    cache : dict
        From :meth:`ReluNetwork.forward_cached`.
    value_seeds : (B,) ndarray
        ``dL/dy_j`` per sample.
    sgrad_seeds : (B, n0) ndarray, optional
        ``dL/ds_j`` against the per-sample gradient ``s_j`` of the output
        with respect to the first layer's pre-activation.  These seeds
        flow only into the later layers' weights (the dependence of
        ``s`` on the first layer is through ReLU masks, which carry zero
        derivative almost everywhere).
    need_sensitivities : bool
        Also return the per-sample sensitivities under key ``"S"``
        (implied by ``sgrad_seeds``).

    Returns
    -------
    dict mapping ``(layer_index, "W" | "b")`` to gradient arrays, plus
    ``"S"`` when requested.
    """
    L = len(net.layers)
    masks = _masks(net, cache)
    X = cache["input"]
    acts = cache["a"]
    value_seeds = np.asarray(value_seeds, dtype=float).reshape(-1)

    grads = {}
    for i, lay in enumerate(net.layers):
        grads[(i, "W")] = np.zeros_like(lay.W)
        grads[(i, "b")] = np.zeros_like(lay.b)

    # value-seeded reverse pass
    delta = value_seeds[:, None]
    if masks[-1] is not None:
        delta = delta * masks[-1]
    for i in range(L - 1, -1, -1):
        prev = X if i == 0 else acts[i - 1]
        grads[(i, "W")] += delta.T @ prev
        grads[(i, "b")] += delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.layers[i].W
            if masks[i - 1] is not None:
                delta = delta * masks[i - 1]

    if sgrad_seeds is None and not need_sensitivities:
        return grads

    # unit-seeded deltas give the pre-activation sensitivities S
    hat = [None] * L
    d = np.ones((X.shape[0], 1))
    if masks[-1] is not None:
        d = d * masks[-1]
    hat[L - 1] = d
    for i in range(L - 1, 0, -1):
        d = d @ net.layers[i].W
        if masks[i - 1] is not None:
            d = d * masks[i - 1]
        hat[i - 1] = d

    if sgrad_seeds is not None:
        T = np.asarray(sgrad_seeds, dtype=float)
        if masks[0] is not None:
            T = T * masks[0]
        u = T
        for i in range(1, L):
            grads[(i, "W")] += hat[i].T @ u
            if i < L - 1:
                u = u @ net.layers[i].W.T
                if masks[i] is not None:
                    u = u * masks[i]

    grads["S"] = hat[0]
    return grads


def output_input_sensitivity(net: ReluNetwork, X: np.ndarray) -> np.ndarray:
    """Per-sample gradient of the output w.r.t. the first pre-activation."""
    _, cache = net.forward_cached(X)
    seeds = np.zeros(np.atleast_2d(X).shape[0])
    return backward(net, cache, seeds, need_sensitivities=True)["S"]


# ---------------------------------------------------------------------------
# max-of-2^k tree construction
# ---------------------------------------------------------------------------

_A2 = np.array([[1.0, -1.0], [0.0, 1.0], [0.0, -1.0]])
_A1 = np.array([[1.0, 1.0, -1.0]])


def _block(matrix: np.ndarray, copies: int) -> np.ndarray:
    return np.kron(np.eye(copies), matrix)


def max_tree_matrices(k: int) -> list:
    """Weight matrices of the max network on ``R^(2^k)``, input side first.

    The stack is the pairwise-max block ``B_k``, the merged products
    ``D_l = B_l C_{l+1}`` for ``l = k-1 .. 1``, and the output row; all
    entries are 0 or +-1 and there are no biases.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    mats = [_block(_A2, 2 ** (k - 1))]
    for ell in range(k - 1, 0, -1):
        B = _block(_A2, 2 ** (ell - 1))
        C = _block(_A1, 2**ell)
        mats.append(B @ C)
    mats.append(_A1)
    return mats


def build_max_network(k: int) -> ReluNetwork:
    """Fixed ReLU network computing the exact max of ``2^k`` inputs.

    Hidden layer i has width ``3 * 2^(k-i)``; weights are not trainable.
    """
    mats = max_tree_matrices(k)
    layers = [
        Layer(m, np.zeros(m.shape[0]), "relu", train_W=False, train_b=False)
        for m in mats[:-1]
    ]
    layers.append(
        Layer(mats[-1], np.zeros(1), "none", train_W=False, train_b=False)
    )
    return ReluNetwork(layers)


def init_from_bank(A: np.ndarray, b: np.ndarray, k: int, pad_bias: Optional[float] = None) -> ReluNetwork:
    """Affine first layer from exported bank rows, then the max tree.

    Missing rows (when the bank is smaller than ``2^k``) are padded with
    the zero affine form and bias ``pad_bias``, which must be dominated
    on the data of interest (e.g. ``min G - 1``).

    Raises
    ------
    TooManyRows
        If the bank has more than ``2^k`` rows.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    rows = A.shape[0]
    width = 2**k
    if rows > width:
        raise TooManyRows(f"bank has {rows} rows, max network accepts {width}")
    if rows < width:
        if pad_bias is None:
            raise ValueError("padding required: supply pad_bias (e.g. min G - 1)")
        A = np.vstack([A, np.zeros((width - rows, A.shape[1]))])
        b = np.concatenate([b, np.full(width - rows, float(pad_bias))])
    first = Layer(A, b, "none", train_W=True, train_b=True)
    return ReluNetwork([first] + build_max_network(k).layers)


def random_head_network(d: int, k: int, seed: int) -> ReluNetwork:
    """Random affine first layer (uniform in +-1/sqrt(fan_in)) + max tree."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    W = rng.uniform(-bound, bound, size=(2**k, d))
    b = rng.uniform(-bound, bound, size=2**k)
    first = Layer(W, b, "none", train_W=True, train_b=True)
    return ReluNetwork([first] + build_max_network(k).layers)


# ---------------------------------------------------------------------------
# measure-space gradient field of a network
# ---------------------------------------------------------------------------


def first_layer_row_fields(net: ReluNetwork, ground: GroundSpace) -> np.ndarray:
    """Spatial gradients of the first-layer rows, shape (n0, m, d)."""
    return grid_gradients(ground, net.layers[0].W)


def cylinder_field_batch(net: ReluNetwork, ground: GroundSpace, X: np.ndarray):
    """Outputs, sensitivities, row fields, and gradient fields on a batch.

    Returns ``(y, cache, S, R, field)`` where ``field[j, x, :]`` is the
    network's measure-space gradient at ``(mu_j, x)``; ``X`` rows are the
    measures' weight vectors.
    """
    y, cache = net.forward_cached(X)
    S = backward(net, cache, np.zeros(len(y)), need_sensitivities=True)["S"]
    R = first_layer_row_fields(net, ground)
    field = np.einsum("bi,imd->bmd", S, R)
    return y, cache, S, R, field


def field_pairing(field_a: np.ndarray, field_b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-sample pre-Cheeger pairing ``int <a(mu_j, x), b(mu_j, x)> dmu_j(x)``
    of two batched gradient fields, shape (B,)."""
    return np.einsum("bmd,bmd,bm->b", field_a, field_b, X)


def network_energy(net: ReluNetwork, ground: GroundSpace, X: np.ndarray) -> np.ndarray:
    """Per-sample energies ``int |D NN(mu_j, x)|^2 dmu_j(x)``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _, _, _, _, field = cylinder_field_batch(net, ground, X)
    return field_pairing(field, field, X)


def backward_with_pairing(net, ground, cache, S, R, X, value_seeds, other):
    """Parameter gradients of a loss whose field-dependent part is the
    pairing ``sum_j int <D NN(mu_j, x), other[j, x]> dmu_j(x)``.

    ``cache``, ``S`` and ``R`` come from :func:`cylinder_field_batch` on
    ``X``; ``other`` is held fixed.  The pairing reaches the parameters
    twice: through the sensitivities ``S`` (seeded into :func:`backward`)
    and, when the first layer's weights train, directly through the
    finite-difference row fields ``R``.
    """
    sgrad_seeds = np.einsum("bmd,imd,bm->bi", other, R, X)
    grads = backward(net, cache, value_seeds, sgrad_seeds)
    if net.layers[0].train_W:
        coef = np.einsum("bi,bm,bmd->imd", S, X, other)
        for ax, op in enumerate(gradient_operators(ground)):
            grads[(0, "W")] += coef[:, :, ax] @ op
    return grads


# ---------------------------------------------------------------------------
# optimizer and training loop
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive-moment estimation over a network's trainable arrays."""

    def __init__(self, net: ReluNetwork, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.net = net
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {}
        self.v = {}
        for key in net.trainable():
            shape = getattr(net.layers[key[0]], key[1]).shape
            self.m[key] = np.zeros(shape)
            self.v[key] = np.zeros(shape)

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key in self.m:
            g = grads[key]
            self.m[key] = b1 * self.m[key] + (1 - b1) * g
            self.v[key] = b2 * self.v[key] + (1 - b2) * g * g
            mhat = self.m[key] / (1 - b1**self.t)
            vhat = self.v[key] / (1 - b2**self.t)
            layer = self.net.layers[key[0]]
            updated = getattr(layer, key[1]) - self.lr * mhat / (np.sqrt(vhat) + self.eps)
            setattr(layer, key[1], updated)


@dataclass
class TrainConfig:
    """Training hyperparameters; the seed fixes batching and any init."""

    epochs: int = 100
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    loss: str = "mae"  # "mae" or "regularized"
    reg_lambda: float = 0.0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("epochs, batch size, and learning rate must be positive")
        if self.loss not in ("mae", "regularized"):
            raise ValueError(f"unknown loss {self.loss!r}")

    def hash(self) -> str:
        payload = json.dumps(self.__dict__, sort_keys=True, default=float)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def mean_relative_error(predictions, targets) -> float:
    """``mean |F - NN| / F`` over the entries where it is defined (nonzero
    target), see :func:`wdlearn.measures.relative_errors`."""
    errs = relative_errors(targets, predictions)
    return float(np.mean(errs[~np.isnan(errs)]))


def _mae_loss_and_grads(net, X, y):
    pred, cache = net.forward_cached(X)
    resid = pred - y
    loss = float(np.mean(np.abs(resid)))
    seeds = np.sign(resid) / len(y)
    return loss, backward(net, cache, seeds)


def _regularized_loss_and_grads(net, ground, X, y, lam):
    B = len(y)
    pred, cache, S, R, field = cylinder_field_batch(net, ground, X)
    energies = field_pairing(field, field, X)
    resid = pred - y
    loss = float(np.mean(resid**2 + lam * (pred**2 + energies)))

    value_seeds = (2.0 * resid + 2.0 * lam * pred) / B
    grads = backward_with_pairing(
        net, ground, cache, S, R, X, value_seeds, (2.0 * lam / B) * field
    )
    return loss, grads


def train(
    net: ReluNetwork,
    X_train: np.ndarray,
    y_train: np.ndarray,
    config: TrainConfig,
    ground: Optional[GroundSpace] = None,
    X_test: Optional[np.ndarray] = None,
    y_test: Optional[np.ndarray] = None,
) -> list:
    """Minibatch training; returns one record per epoch plus the initial one.

    Each record carries the epoch index, the mean batch loss, and the
    train/test mean relative errors.  The regularized loss needs
    ``ground`` for the finite-difference row fields.

    Raises
    ------
    Diverged
        If the loss becomes non-finite.
    """
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    y_train = np.asarray(y_train, dtype=float)
    if config.loss == "regularized" and ground is None:
        raise ValueError("regularized loss requires the ground space")

    rng = np.random.default_rng(config.seed)
    opt = Adam(net, config.lr, config.beta1, config.beta2, config.eps)

    def record(epoch, loss):
        rec = {
            "epoch": epoch,
            "loss": loss,
            "train_rel_err": mean_relative_error(net.forward(X_train), y_train),
        }
        if X_test is not None:
            rec["test_rel_err"] = mean_relative_error(net.forward(X_test), y_test)
        return rec

    trace = [record(0, float("nan"))]
    n = len(y_train)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if config.loss == "mae":
                loss, grads = _mae_loss_and_grads(net, X_train[idx], y_train[idx])
            else:
                loss, grads = _regularized_loss_and_grads(
                    net, ground, X_train[idx], y_train[idx], config.reg_lambda
                )
            if not np.isfinite(loss):
                raise Diverged(f"loss became non-finite at epoch {epoch}")
            opt.step(grads)
            losses.append(loss)
        trace.append(record(epoch, float(np.mean(losses))))
    return trace


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------


def save_model(path, net: ReluNetwork, config_hash: str = "") -> None:
    """Binary container with layer shapes, masks, parameters, and the
    config hash."""
    payload = {"n_layers": np.array(len(net.layers)), "config_hash": np.array(config_hash)}
    for i, lay in enumerate(net.layers):
        payload[f"W{i}"] = lay.W
        payload[f"b{i}"] = lay.b
        payload[f"meta{i}"] = np.array(
            [lay.activation == "relu", lay.train_W, lay.train_b], dtype=np.int8
        )
    with open(path, "wb") as fh:  # keep the exact filename, no .npz suffix
        np.savez(fh, **payload)


def load_model(path):
    """Load a model container; returns ``(network, config_hash)``."""
    data = np.load(path, allow_pickle=False)
    n = int(data["n_layers"])
    layers = []
    for i in range(n):
        act, tw, tb = data[f"meta{i}"]
        layers.append(
            Layer(
                data[f"W{i}"],
                data[f"b{i}"],
                "relu" if act else "none",
                train_W=bool(tw),
                train_b=bool(tb),
            )
        )
    return ReluNetwork(layers), str(data["config_hash"])
