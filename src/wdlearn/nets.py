"""Layered affine+ReLU networks with hand-rolled reverse accumulation.

The architecture family is an affine first layer (one row per stored
potential) composed with the fixed ReLU tree that computes the max of
``2^k`` inputs.  Because the first layer is affine in the input measure,
every network here is a cylinder function: its measure-space gradient
field at ``mu_j`` is the finite-difference spatial gradient of the one
potential ``S_j @ W0``, the first-layer rows weighted by the output's
sensitivities to the first-layer pre-activations.  With its ReLU masks
fixed, backprop is linear in the output seed, so one unit-seeded reverse
sweep gives those sensitivities for every layer, and :func:`backward`
scales them by the per-sample output seeds.  It also takes seeds against the sensitivities of the
first pre-activation (needed by energy-regularized and weak-form losses,
where the loss itself contains the input-gradient), and returns
gradients only for the layers that train.  At ReLU kinks the subgradient
convention is derivative 0 at exactly 0.

A frozen layer of the max tree is ``I_n kron A`` for a small block ``A``
(pair, merge or collapse), so it runs as one small-block product per
frozen tree layer: the rows reshaped to the block's width times ``A.T``
forward, times ``A`` in the reverse sweep.  A tree pre-activation rounds
as the dense row summed left to right: the matrix product (gemm) sums in
that order, but a lone row would go to gemv, which does not, so it runs
stacked twice.  The pre-activations in the forward cache keep their dense
shapes.  A tree layer runs as its dense ``kron`` matrix when it trains
(``--trainable-tree``, ``set_all_trainable``) and when its weights or bias
differ from the canonical block, e.g. after training or
:meth:`ReluNetwork.scale_output`; see :meth:`Layer.tree_block`.
"""

from __future__ import annotations

import hashlib
import json
import time
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
    trainable: bool = True  # W and b train together

    def __post_init__(self):
        # always copy: layers own their parameters (shared constants such
        # as the max-tree blocks must not be mutated through a network)
        self.W = np.array(self.W, dtype=float)
        self.b = np.array(self.b, dtype=float).reshape(-1)
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.W.shape[0] != self.b.shape[0]:
            raise ValueError("bias length must match the output width")
        self._tree = None  # (W, b, block): the verdict of tree_block for these arrays

    def tree_block(self):
        """The small block ``A`` with ``W == I_n kron A``, so that the layer
        runs as one product of ``A`` against the rows reshaped to its width,
        or None to run it dense.

        Only a frozen layer whose ``W`` repeats a canonical max-tree block (as
        :func:`max_tree_matrices` builds it) and whose bias is zero runs
        structurally.  The comparison runs once per pair of ``W`` and ``b``
        arrays and its verdict is cached; a recognised layer's arrays become
        read-only, so an in-place edit cannot leave the verdict stale
        (assign a new array instead, as :class:`Adam` does).
        """
        if self.trainable:
            return None
        W, b = self.W, self.b
        if self._tree is None or self._tree[0] is not W or self._tree[1] is not b:
            block = None
            if not b.any():
                block = next((A for A in _TREE_BLOCKS if _repeats(W, A)), None)
            if block is not None:
                W.flags.writeable = b.flags.writeable = False
            self._tree = (W, b, block)
        return self._tree[2]


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
            z = _apply(lay, a)
            if lay.tree_block() is None:  # a tree layer's bias is 0
                z = z + lay.b
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
        return [
            (i, name)
            for i, lay in enumerate(self.layers)
            if lay.trainable
            for name in ("W", "b")
        ]

    def set_all_trainable(self, flag: bool = True) -> "ReluNetwork":
        for lay in self.layers:
            lay.trainable = flag
        return self

    def scale_output(self, c: float) -> "ReluNetwork":
        """Scale the final layer in place (used by homogeneity checks)."""
        self.layers[-1].W = self.layers[-1].W * c
        self.layers[-1].b = self.layers[-1].b * c
        return self

    def copy(self) -> "ReluNetwork":
        # Layer copies its arrays
        return ReluNetwork(
            [Layer(l.W, l.b, l.activation, l.trainable) for l in self.layers]
        )


def _apply(lay: Layer, x: np.ndarray) -> np.ndarray:
    """``x @ lay.W.T``, as one small-block product for a frozen max-tree layer."""
    block = lay.tree_block()
    if block is None:
        return x @ lay.W.T
    v = x.reshape(-1, block.shape[1])
    # a lone row would go to gemv, which does not sum each dot product left
    # to right as gemm does; stacked twice it goes to gemm
    z = (v if len(v) > 1 else np.repeat(v, 2, axis=0)) @ block.T
    return z[: len(v)].reshape(len(x), lay.W.shape[0])


def _apply_T(lay: Layer, g: np.ndarray) -> np.ndarray:
    """``g @ lay.W``, as one small-block product for a frozen max-tree layer."""
    block = lay.tree_block()
    if block is None:
        return g @ lay.W
    return (g.reshape(-1, block.shape[0]) @ block).reshape(len(g), lay.W.shape[1])


def _through_mask(lay: Layer, z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``d`` times the layer's ReLU derivative at pre-activation ``z``."""
    return d * (z > 0.0) if lay.activation == "relu" else d


def _sensitivities(net: ReluNetwork, cache) -> list:
    """Unit-seeded reverse sweep: ``hat[i]``, shape (B, n_i), is the
    per-sample gradient of the output w.r.t. layer i's pre-activation.

    The sweep runs once per forward pass; its result is kept in ``cache``.
    """
    if "hat" not in cache:
        hat = [None] * len(net.layers)
        d = np.ones((cache["input"].shape[0], 1))
        for i in range(len(net.layers) - 1, -1, -1):
            lay = net.layers[i]
            hat[i] = d = _through_mask(lay, cache["z"][i], d)
            if i > 0:
                d = _apply_T(lay, d)
        cache["hat"] = hat
    return cache["hat"]


def backward(net: ReluNetwork, cache, value_seeds, sgrad_seeds=None) -> dict:
    """Parameter gradients for a scalar loss, for the layers that train.

    With the ReLU masks fixed, backprop is linear in the output seed, so
    the value-seeded delta at layer i is ``value_seeds[:, None] * hat[i]``
    with ``hat`` from the one sweep of :func:`_sensitivities`.

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
        derivative almost everywhere): the weight gradient of layer i
        gains ``hat[i].T @ u``, where ``u`` is the seed carried forward
        through layers ``0 .. i-1`` with their masks.

    Returns
    -------
    dict mapping each key of ``net.trainable()``, ``(layer_index, "W" |
    "b")``, to its gradient array.
    """
    hat = _sensitivities(net, cache)
    # the layers past the last one that trains need no work
    top = max((i for i, _ in net.trainable()), default=-1)
    v = np.asarray(value_seeds, dtype=float).reshape(-1, 1)
    u = None
    grads = {}
    for i, lay in enumerate(net.layers[: top + 1]):
        if lay.trainable:
            prev = cache["input"] if i == 0 else cache["a"][i - 1]
            delta = v * hat[i]
            grads[(i, "W")] = delta.T @ prev
            grads[(i, "b")] = delta.sum(axis=0)
            if u is not None:
                grads[(i, "W")] += hat[i].T @ u
        if sgrad_seeds is not None:
            u = np.asarray(sgrad_seeds, dtype=float) if i == 0 else _apply(lay, u)
            u = _through_mask(lay, cache["z"][i], u)
    return grads


def output_input_sensitivity(net: ReluNetwork, X: np.ndarray) -> np.ndarray:
    """Per-sample gradient of the output w.r.t. the first pre-activation."""
    return _sensitivities(net, net.forward_cached(X)[1])[0]


# ---------------------------------------------------------------------------
# max-of-2^k tree construction
# ---------------------------------------------------------------------------


def _block(matrix: np.ndarray, copies: int) -> np.ndarray:
    return np.kron(np.eye(copies), matrix)


_A2 = np.array([[1.0, -1.0], [0.0, 1.0], [0.0, -1.0]])
_A1 = np.array([[1.0, 1.0, -1.0]])
# B_l C_{l+1} repeats A2 (I_2 kron A1): two triples collapsed, then paired
_A3 = _A2 @ _block(_A1, 2)


# the canonical blocks a frozen max-tree layer repeats, ``I_n kron block``
_TREE_BLOCKS = (_A2, _A3, _A1)


def _repeats(W: np.ndarray, block: np.ndarray) -> bool:
    """Whether ``W`` is ``I_n kron block`` for some ``n >= 1``."""
    n = W.shape[1] // block.shape[1]
    return (
        n > 0
        and W.shape == (n * block.shape[0], n * block.shape[1])
        and np.array_equal(W, _block(block, n))
    )


def max_tree_matrices(k: int) -> list:
    """Weight matrices of the max network on ``R^(2^k)``, input side first.

    The stack is the pairwise-max block ``B_k``, the merged products
    ``D_l = B_l C_{l+1}`` for ``l = k-1 .. 1``, and the output row; all
    entries are 0 or +-1 and there are no biases.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    mats = [_block(_A2, 2 ** (k - 1))]
    mats += [_block(_A3, 2 ** (ell - 1)) for ell in range(k - 1, 0, -1)]
    mats.append(_A1)
    return mats


def build_max_network(k: int) -> ReluNetwork:
    """Fixed ReLU network computing the exact max of ``2^k`` inputs.

    Hidden layer i has width ``3 * 2^(k-i)``; weights are not trainable.
    While they stay frozen and unchanged, each layer runs as one
    small-block product and its ReLUs instead of its ``kron`` matrix; made
    trainable or changed in any entry, they run dense (see
    :meth:`Layer.tree_block`).
    """
    mats = max_tree_matrices(k)
    layers = [
        Layer(m, np.zeros(m.shape[0]), "relu", trainable=False) for m in mats[:-1]
    ]
    layers.append(Layer(mats[-1], np.zeros(1), "none", trainable=False))
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
    first = Layer(A, b, "none")
    return ReluNetwork([first] + build_max_network(k).layers)


def random_head_network(d: int, k: int, seed: int) -> ReluNetwork:
    """Random affine first layer (uniform in +-1/sqrt(fan_in)) + max tree."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    W = rng.uniform(-bound, bound, size=(2**k, d))
    b = rng.uniform(-bound, bound, size=2**k)
    first = Layer(W, b, "none")
    return ReluNetwork([first] + build_max_network(k).layers)


# ---------------------------------------------------------------------------
# measure-space gradient field of a network
# ---------------------------------------------------------------------------


def cylinder_field_batch(net: ReluNetwork, ground: GroundSpace, X: np.ndarray):
    """Outputs, sensitivities, and gradient fields on a batch.

    Returns ``(y, cache, S, field)`` where ``S`` holds the sensitivities to
    the first pre-activation and ``field[j, x, :]``, the grid gradient of
    the potential ``S_j @ W0``, is the network's measure-space gradient at
    ``(mu_j, x)``; ``X`` rows are the measures' weight vectors.
    """
    y, cache = net.forward_cached(X)
    S = _sensitivities(net, cache)[0]
    field = grid_gradients(ground, S @ net.layers[0].W)
    return y, cache, S, field


def field_pairing(field_a: np.ndarray, field_b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-sample pre-Cheeger pairing ``int <a(mu_j, x), b(mu_j, x)> dmu_j(x)``
    of two batched gradient fields, shape (B,)."""
    return np.einsum("bmd,bmd,bm->b", field_a, field_b, X)


def network_energy(net: ReluNetwork, ground: GroundSpace, X: np.ndarray) -> np.ndarray:
    """Per-sample energies ``int |D NN(mu_j, x)|^2 dmu_j(x)``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    field = cylinder_field_batch(net, ground, X)[3]
    return field_pairing(field, field, X)


def backward_with_pairing(net, ground, cache, S, X, value_seeds, other):
    """Parameter gradients of a loss whose field-dependent part is the
    pairing ``sum_j int <D NN(mu_j, x), other[j, x]> dmu_j(x)``.

    ``cache`` and ``S`` come from :func:`cylinder_field_batch` on ``X``;
    ``other`` is held fixed.  As the field is ``grad_x (S @ W0)``, the
    pairing is ``sum_j (S @ W0)_j . Q_j`` for the adjoint field ``Q = sum_ax
    (X * other[:, :, ax]) @ G_ax``, shape (B, m), with ``G_ax`` the grid's
    finite-difference operators.  It reaches the parameters through ``S``
    (seeds ``Q @ W0.T`` into :func:`backward`) and, when the first layer
    trains, directly through ``W0`` (``S.T @ Q``).
    """
    weighted = other * X[:, :, None]
    Q = sum(weighted[:, :, ax] @ op for ax, op in enumerate(gradient_operators(ground)))
    grads = backward(net, cache, value_seeds, Q @ net.layers[0].W.T)
    if net.layers[0].trainable:
        grads[(0, "W")] += S.T @ Q
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
        if self.epochs < 0 or self.batch_size < 1 or not 0 < self.lr < np.inf:
            raise ValueError(
                "epochs, batch size, and learning rate must be positive, the rate finite"
            )
        if self.loss not in ("mae", "regularized"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if not 0 <= self.reg_lambda < np.inf:
            raise ValueError(f"reg_lambda must be finite and nonnegative, got {self.reg_lambda}")

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
    pred, cache, S, field = cylinder_field_batch(net, ground, X)
    energies = field_pairing(field, field, X)
    resid = pred - y
    loss = float(np.mean(resid**2 + lam * (pred**2 + energies)))

    value_seeds = (2.0 * resid + 2.0 * lam * pred) / B
    grads = backward_with_pairing(
        net, ground, cache, S, X, value_seeds, (2.0 * lam / B) * field
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

    Each record carries the epoch index, the mean batch loss, the
    train/test mean relative errors, and ``epoch_s``, the wall time of the
    epoch's steps (0 for the initial record; the record's own evaluation
    is not counted).  The regularized loss needs ``ground`` for the
    finite-difference gradient fields.

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

    def record(epoch, loss, epoch_s):
        rec = {
            "epoch": epoch,
            "loss": loss,
            "train_rel_err": mean_relative_error(net.forward(X_train), y_train),
        }
        if X_test is not None:
            rec["test_rel_err"] = mean_relative_error(net.forward(X_test), y_test)
        rec["epoch_s"] = epoch_s
        return rec

    trace = [record(0, float("nan"), 0.0)]
    n = len(y_train)
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter_ns()
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
        epoch_s = (time.perf_counter_ns() - t0) * 1e-9
        trace.append(record(epoch, float(np.mean(losses)), epoch_s))
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
            [lay.activation == "relu", lay.trainable], dtype=np.int8
        )
    with open(path, "wb") as fh:  # keep the exact filename, no .npz suffix
        np.savez(fh, **payload)


def load_model(path):
    """Load a model container; returns ``(network, config_hash)``."""
    data = np.load(path, allow_pickle=False)
    n = int(data["n_layers"])
    layers = []
    for i in range(n):
        meta = data[f"meta{i}"]
        if meta.shape != (2,):
            raise ValueError(
                f"layer {i}: meta must be [relu, trainable], got {meta.tolist()}"
            )
        act, trains = meta
        layers.append(
            Layer(data[f"W{i}"], data[f"b{i}"], "relu" if act else "none", bool(trains))
        )
    return ReluNetwork(layers), str(data["config_hash"])
