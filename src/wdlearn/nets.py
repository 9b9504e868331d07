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

A network that ends in the frozen, canonical max tree after at least one
layer (:meth:`ReluNetwork._tree_start`) runs the tree as a recursion over
its pair levels, in inference and training alike; any other network, the
tree included when it trains or differs from the canonical blocks (see
:meth:`Layer.tree_block`), runs as its dense layer loop.  A pair ``(a, b)``
enters the tree as ``z = (a - b, b, -b)``; one of ``relu(b)`` and
``relu(-b)`` is 0, and adding or subtracting 0 is exact, so the in-order
row sums of the tree's layers reduce to sums of ``R = relu(a - b)`` and
``b`` alone.  With ``D = x[:, 0::2] - x[:, 1::2]`` and ``b = x[:, 1::2]``,
each level maps ``(D, b)`` to ``D' = ((R[:, 0::2] + b[:, 0::2]) - R[:,
1::2]) - b[:, 1::2]`` and ``b' = R[:, 1::2] + b[:, 1::2]``, and the output
is ``relu(D) + b`` at width 1; only the sign of a zero can differ from the
row sums.  As ``relu(a - b) + relu(b) - relu(-b)`` has derivatives
``[R > 0]`` in ``a`` and ``[b != 0] - [R > 0]`` in ``b``, a pair with
``b != 0`` passes its whole sensitivity to its winner (``a`` if ``R > 0``);
where no pair on a row's path of winners carries ``b == 0``, the tree
input's sensitivity is the one-hot of the row's winner, found by one walk
down the levels.  A batch with such a pair (a row of zeros, a tie at 0)
keeps the dense layer loop's cache, as its sensitivity is not one-hot.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cylinder import field_pairing, gradient_operators, grid_gradients
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
        """The small block ``A`` with ``W == I_n kron A``, or None.

        Only a frozen layer whose ``W`` repeats a canonical max-tree block (as
        :func:`max_tree_matrices` builds it) and whose bias is zero is
        recognised; :meth:`ReluNetwork._tree_start` runs a tree of such
        layers as its pair recursion.  The comparison runs once per pair of
        ``W`` and ``b`` arrays and its verdict is cached; a recognised layer's
        arrays become read-only, so an in-place edit cannot leave the verdict
        stale (assign a new array instead, as :class:`Adam` does).
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
    """Ordered affine layers with optional ReLU activations and one output."""

    def __init__(self, layers: Sequence[Layer]):
        layers = list(layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        if layers[-1].W.shape[0] != 1:
            raise ValueError(f"the last layer must have width 1, got {layers[-1].W.shape[0]}")
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
        """Outputs and the cache of the training pass: the ``input`` and each
        layer's pre-activation ``z`` and activation ``a``, up to the frozen
        max tree (:meth:`_tree_start`), and each row's ``winners`` there; a
        batch with a zero carried ``b`` on a winner's path keeps the dense
        layer loop's cache.  A batch whose tree input is not all finite, or
        that overflows or forms an invalid value before, reruns through the
        dense layer loop, which gives its values and ``RuntimeWarning``s."""
        levels = []
        y, cache = _forward(self, X, levels)
        if len(cache["z"]) < len(self.layers):  # the tree ran as its recursion
            cache["winners"] = _winners(levels)
            if cache["winners"] is None:  # a zero b on a winner's path
                cache = _layer_loop(self.layers, cache["input"])
        return y, cache

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Batch outputs, shape (B,): the pass of :meth:`forward_cached`,
        bitwise, without finding the winners."""
        return _forward(self, X)[0]

    def _tree_start(self) -> Optional[int]:
        """Index of the first layer of the frozen, canonical max tree that
        ends the network (``_A2``, any number of ``_A3``, then ``_A1``, as
        :func:`build_max_network` builds it) after at least one layer, or
        None."""
        layers = self.layers

        def runs(i, block, activation):
            return (
                i >= 0 and layers[i].tree_block() is block and layers[i].activation == activation
            )

        i = len(layers) - 1
        if not runs(i, _A1, "none"):
            return None
        i -= 1
        while runs(i, _A3, "relu"):
            i -= 1
        return i if i > 0 and runs(i, _A2, "relu") else None

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


def _forward(net: ReluNetwork, X: np.ndarray, levels: Optional[list] = None):
    """Outputs and cache of ``net`` on ``X``, see :meth:`ReluNetwork.forward_cached`;
    the tree's ``(R, b)`` levels are appended to ``levels`` if given."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    start = net._tree_start()
    if start is not None:
        try:
            with np.errstate(over="raise", invalid="raise"):
                cache = _layer_loop(net.layers[:start], X)
                if np.isfinite(cache["a"][-1]).all():
                    return _max_tree(cache["a"][-1], levels), cache
        except FloatingPointError:
            pass  # the layer loop emits the warnings of this batch
    cache = _layer_loop(net.layers, X)
    return cache["a"][-1][:, 0], cache


def _layer_loop(layers: Sequence[Layer], X: np.ndarray) -> dict:
    """The cache of ``layers`` run in turn on ``X``, each as its matrix."""
    a, zs, acts = X, [], []
    for lay in layers:
        z = a @ lay.W.T + lay.b
        a = np.maximum(z, 0.0) if lay.activation == "relu" else z
        zs.append(z)
        acts.append(a)
    return {"input": X, "z": zs, "a": acts}


def _max_tree(x: np.ndarray, levels: Optional[list] = None) -> np.ndarray:
    """The outputs of the frozen max tree on ``x``, shape (B, 2^k), as its
    pair recursion (see the module docstring); ``D`` and ``b`` hold each
    pair's ``a - b`` and ``b``.  ``(R, b)`` per level, the widest first, is
    appended to ``levels`` if given."""
    D = x[:, 0::2] - x[:, 1::2]
    b = x[:, 1::2]
    while True:
        R = np.maximum(D, 0.0, out=D)
        if levels is not None:
            levels.append((R, b))
        if R.shape[1] == 1:
            return R[:, 0] + b[:, 0]
        c = R + b  # each pair's relu(a - b) + b
        # D' = ((R[:, 0::2] + b[:, 0::2]) - R[:, 1::2]) - b[:, 1::2]
        D = c[:, 0::2] - R[:, 1::2]
        D -= b[:, 1::2]
        b = c[:, 1::2]


def _through_mask(lay: Layer, z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``d`` times the layer's ReLU derivative at pre-activation ``z``."""
    return d * (z > 0.0) if lay.activation == "relu" else d


def _sensitivities(net: ReluNetwork, cache) -> list:
    """Unit-seeded reverse sweep: ``hat[i]``, shape (B, n_i), is the
    per-sample gradient of the output w.r.t. layer i's pre-activation, for
    the layers in ``cache["z"]``; a cache with ``winners`` starts from the
    tree input, whose sensitivity is their one-hot (see the module
    docstring).

    The sweep runs once per forward pass; its result is kept in ``cache``.
    """
    if "hat" not in cache:
        if "winners" in cache:
            d = np.zeros_like(cache["a"][-1])
            d[np.arange(len(d)), cache["winners"]] = 1.0
        else:
            d = np.ones((len(cache["input"]), 1))
        hat = [None] * len(cache["z"])
        for i in range(len(hat) - 1, -1, -1):
            lay = net.layers[i]
            hat[i] = d = _through_mask(lay, cache["z"][i], d)
            if i > 0:
                d = d @ lay.W
        cache["hat"] = hat
    return cache["hat"]


def _winners(levels: list) -> Optional[np.ndarray]:
    """Each row's winner, the index of the tree input its output takes,
    found top down from the ``(R, b)`` levels (``R > 0``: the pair's ``a``),
    or None if a carried ``b`` on some winner's path is 0, where the tree
    input's sensitivity is not their one-hot (see the module docstring)."""
    rows = np.arange(len(levels[0][0]))
    win = np.zeros(len(rows), dtype=np.intp)
    for R, b in reversed(levels):
        if not b[rows, win].all():
            return None
        win = 2 * win + (R[rows, win] <= 0.0)
    return win


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
            u = np.asarray(sgrad_seeds, dtype=float) if i == 0 else u @ lay.W.T
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
    After at least one layer (:func:`init_from_bank`,
    :func:`random_head_network`) and while they stay frozen and unchanged,
    the forward and training passes run the tree as its pair recursion
    instead of its ``kron`` matrices; alone, made trainable or changed in
    any entry, it runs dense (see :meth:`Layer.tree_block`).
    """
    mats = max_tree_matrices(k)
    layers = [
        Layer(m, np.zeros(m.shape[0]), "relu", trainable=False) for m in mats[:-1]
    ]
    layers.append(Layer(mats[-1], np.zeros(1), "none", trainable=False))
    return ReluNetwork(layers)


def init_from_bank(A: np.ndarray, b: np.ndarray, k: int) -> ReluNetwork:
    """Affine first layer from exported bank rows, then the max tree.

    A bank with fewer than ``2^k`` rows is padded with the zero form and
    bias ``L - 1``, ``L = max_i (min_x A[i, x] + b[i])``.  As ``<A_i, mu> >=
    min_x A[i, x]`` for a probability measure ``mu``, no pad row wins: the
    network is ``G(mu) = max_i <A_i, mu> + b_i`` on every probability measure.

    Raises
    ------
    ValueError
        If ``k < 1``, ``A`` is empty, or ``b`` is not one bias per row.
    TooManyRows
        If the bank has more than ``2^k`` rows.
    """
    tree = build_max_network(k).layers
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    rows, width = A.shape[0], 2**k
    if A.size == 0 or b.shape[0] != rows:
        raise ValueError(f"A of shape {A.shape} and b of length {b.shape[0]} do not form a bank")
    if rows > width:
        raise TooManyRows(f"bank has {rows} rows, max network accepts {width}")
    pad = (A.min(axis=1) + b).max() - 1.0
    A = np.vstack([A, np.zeros((width - rows, A.shape[1]))])
    b = np.concatenate([b, np.full(width - rows, pad)])
    return ReluNetwork([Layer(A, b, "none")] + tree)


def random_head_network(d: int, k: int, seed: int) -> ReluNetwork:
    """Random affine first layer (uniform in +-1/sqrt(fan_in)) + max tree."""
    tree = build_max_network(k).layers  # rejects k < 1 before 2**k sizes anything
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    W = rng.uniform(-bound, bound, size=(2**k, d))
    b = rng.uniform(-bound, bound, size=2**k)
    return ReluNetwork([Layer(W, b, "none")] + tree)


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

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, net: ReluNetwork, lr=1e-3):
        self.net, self.lr = net, lr
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
        for key, m in self.m.items():
            g, v = grads[key], self.v[key]
            # in place, the operations and order of b1 * m + (1 - b1) * g,
            # b2 * v + (1 - b2) * g * g and lr * mhat / (sqrt(vhat) + eps)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            step = m / (1 - b1**self.t)
            step *= self.lr
            vhat = v / (1 - b2**self.t)
            np.sqrt(vhat, out=vhat)
            vhat += self.eps
            step /= vhat
            # into a new array: a layer recognised as a frozen tree (and
            # since made trainable) has read-only ones
            layer = self.net.layers[key[0]]
            setattr(layer, key[1], np.subtract(getattr(layer, key[1]), step, out=step))


@dataclass
class TrainConfig:
    """Training hyperparameters; the seed fixes batching and any init."""

    epochs: int = 100
    batch_size: int = 64
    lr: float = 1e-3
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
    target), see :func:`wdlearn.measures.relative_errors`; NaN if there are
    none."""
    errs = relative_errors(targets, predictions)
    errs = errs[~np.isnan(errs)]
    return float(errs.mean()) if errs.size else float("nan")


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
    opt = Adam(net, config.lr)

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
    with np.load(path, allow_pickle=False) as data:
        n = int(data["n_layers"])
        if n < 1:
            raise ValueError(f"n_layers must be at least 1, got {n}")
        layers = []
        for i in range(n):
            for key in (f"W{i}", f"b{i}", f"meta{i}"):
                if key not in data.files:
                    raise ValueError(f"layer {i}: no array {key} (n_layers is {n})")
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
