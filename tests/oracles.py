"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's solver paths: transport costs are
minimized by enumerating basic feasible solutions of the transport
polytope (spanning trees of the bipartite support graph), and covering
quantities by exhaustive search.  The Sinkhorn reference is the solver's
first loop, kept as written so that a faster loop can be held to the
same iterates.  The network gradient-field references are the first
three-operand einsum contractions against the per-row spatial gradients,
kept as written so that the potential-gradient path can be held to them.
A head and a frozen max tree, written as a matrix product, ``np.max``
and the one-hot of ``np.argmax``, is the pass the tree's training must
reproduce bitwise, and Algorithm 1's first schedule, which rebuilt both
nets' terms before every step, the trace its training must.  The Adam
step as first written, on new moment arrays every step, is the rounding
the flat, in-place step must reproduce bitwise, and the gradients over
every row of a batch those its seeded rows must.
"""

import itertools

import numpy as np


def _spanning_tree_flows(m, n, edges, a, b):
    """Solve the flow on a candidate tree; return None if inconsistent."""
    # unknowns: one flow per edge; equations: all row and column sums
    A = np.zeros((m + n, len(edges)))
    for col, (i, j) in enumerate(edges):
        A[i, col] = 1.0
        A[m + j, col] = 1.0
    rhs = np.concatenate([a, b])
    sol, res, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < len(edges):
        return None
    if np.abs(A @ sol - rhs).max() > 1e-10:
        return None
    return sol


def transport_cost_by_vertex_enumeration(cost, a, b):
    """Minimal transport cost over all basic feasible solutions.

    Enumerates all spanning trees of the complete bipartite graph on the
    supports (edge sets of size m + n - 1) and keeps the feasible ones.
    Exact for small instances; intended for up to ~3x3 supports.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = cost.shape
    all_edges = [(i, j) for i in range(m) for j in range(n)]
    best = np.inf
    for edges in itertools.combinations(all_edges, m + n - 1):
        flows = _spanning_tree_flows(m, n, edges, a, b)
        if flows is None or np.any(flows < -1e-12):
            continue
        c = sum(f * cost[i, j] for f, (i, j) in zip(flows, edges))
        best = min(best, c)
    return best


def min_cover_size(closed_form_p, one_minus_delta, k_max=10_000):
    """Smallest k with subcovering probability at least ``one_minus_delta``."""
    for k in range(k_max + 1):
        if closed_form_p(k) >= one_minus_delta:
            return k
    raise RuntimeError("no covering k found below k_max")


def sinkhorn_reference(mu, nu, reg=0.1, tol=1e-9, max_iter=10000):
    """Log-domain Sinkhorn as first written, on ``scipy.special.logsumexp``.

    Every iteration recomputes ``(g - C) / reg`` and the full plan to
    check both marginals.  Returns the embedded plan, its cost and the
    number of ``(f, g)`` updates; raises ``RuntimeError`` if ``max_iter``
    is reached.
    """
    from scipy.special import logsumexp

    cost = mu.ground.cost_matrix()
    ia = np.flatnonzero(mu.weights > 0)
    ib = np.flatnonzero(nu.weights > 0)
    a = mu.weights[ia]
    b = nu.weights[ib]
    C = cost[np.ix_(ia, ib)]
    la, lb = np.log(a), np.log(b)

    f = np.zeros(len(ia))
    g = np.zeros(len(ib))
    for n_updates in range(1, max_iter + 1):
        f = reg * (la - logsumexp((g[None, :] - C) / reg, axis=1))
        g = reg * (lb - logsumexp((f[:, None] - C) / reg, axis=0))
        plan = np.exp((f[:, None] + g[None, :] - C) / reg)
        violation = max(
            np.abs(plan.sum(axis=1) - a).max(), np.abs(plan.sum(axis=0) - b).max()
        )
        if violation < tol:
            break
    else:
        raise RuntimeError(f"sinkhorn stopped after {max_iter} iterations")

    gamma = np.zeros_like(cost)
    gamma[np.ix_(ia, ib)] = plan
    return gamma, float((gamma * cost).sum()), n_updates


def cylinder_field_batch_reference(net, ground, X):
    """Network outputs, sensitivities and gradient fields on a batch, as
    first written: the sensitivities contracted against the spatial
    gradients ``R`` of every first-layer row, shape (n0, m, d).

    Returns ``(y, cache, S, field)``, as ``nets.cylinder_field_batch``.
    """
    from wdlearn.cylinder import grid_gradients
    from wdlearn.nets import _sensitivities

    y, cache = net.forward_cached(X)
    S = _sensitivities(net, cache)[0]
    R = grid_gradients(ground, net.layers[0].W)
    field = np.einsum("bi,imd->bmd", S, R)
    return y, cache, S, field


def backward_with_pairing_reference(net, ground, cache, S, X, value_seeds, other):
    """Parameter gradients of ``sum_j int <D NN(mu_j, x), other[j, x]>
    dmu_j(x)`` plus the value-seeded part, as first written: two
    three-operand einsums against the row fields ``R`` and a loop over the
    grid axes.  Same arguments and result as ``nets.backward_with_pairing``.
    """
    from wdlearn.cylinder import gradient_operators, grid_gradients
    from wdlearn.nets import backward

    R = grid_gradients(ground, net.layers[0].W)
    sgrad_seeds = np.einsum("bmd,imd,bm->bi", other, R, X)
    grads = backward(net, cache, value_seeds, sgrad_seeds)
    if net.layers[0].trainable:
        coef = np.einsum("bi,bm,bmd->imd", S, X, other)
        for ax, op in enumerate(gradient_operators(ground)):
            grads[(0, "W")] += coef[:, :, ax] @ op
    return grads


def algorithm1_reference(state, X, y, ground, config, X_test=None, y_test=None):
    """``adversarial.run_algorithm1`` on the schedule first written: before
    every step both nets' terms are rebuilt and passed to the public step
    function, and each record evaluates ``loss_solution`` and a separate
    ``forward`` pass.  Returns the trace without ``epoch_s``; a non-finite
    loss is not checked for.
    """
    from wdlearn.adversarial import adversary_step_grads, loss_solution, solution_step_grads
    from wdlearn.errors import DegenerateAdversary
    from wdlearn.nets import Adam, cylinder_field_batch, mean_relative_error

    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = len(y)
    batch = n if config.batch_size is None else min(config.batch_size, n)
    rng = np.random.default_rng(config.seed)
    opt = {
        adversary_step_grads: Adam(state.h_net, lr=config.lr_xi),
        solution_step_grads: Adam(state.f_net, lr=config.lr),
    }

    def record(epoch, skipped):
        try:
            sol = loss_solution(state, ground, X, y)
        except DegenerateAdversary:
            sol = float("nan")
        rec = {
            "epoch": epoch,
            "solution_loss": sol,
            "adversary_loss": -sol,
            "train_rel_err": mean_relative_error(state.f_net.forward(X), y),
            "skipped_steps": skipped,
        }
        if X_test is not None:
            rec["test_rel_err"] = mean_relative_error(state.f_net.forward(X_test), y_test)
        return rec

    trace = [record(0, 0)]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        skipped = 0
        for start in range(0, n, batch):
            Xb, yb = X[order[start : start + batch]], y[order[start : start + batch]]
            for step in [adversary_step_grads] * state.n_xi + [solution_step_grads] * state.n_theta:
                F = cylinder_field_batch(state.f_net, ground, Xb)
                H = cylinder_field_batch(state.h_net, ground, Xb)
                try:
                    grads, _ = step(state, ground, Xb, yb, F, H)
                except DegenerateAdversary:
                    skipped += 1
                    continue
                opt[step].step(grads)
        trace.append(record(epoch, skipped))
    return trace


def max_head_forward_cached(net, X):
    """``nets.ReluNetwork.forward_cached`` of an affine first layer without
    ReLU, ``net.layers[0]``, and the frozen max tree after it, written
    plainly: the first layer by matrix product, the output the ``np.max``
    of its rows, and their sensitivity the one-hot of ``np.argmax``, the
    first maximizer, kept in the cache as ``hat``.  Returns ``(y, cache)``."""
    head = net.layers[0]
    X = np.atleast_2d(np.asarray(X, dtype=float))
    z = X @ head.W.T + head.b
    hat = np.zeros_like(z)
    hat[np.arange(len(z)), np.argmax(z, axis=1)] = 1.0
    return np.max(z, axis=1), {"input": X, "z": [z], "a": [z], "hat": [hat]}


def adam_step_reference(opt, grads):
    """``nets.Adam.step`` as first written: new moment and parameter arrays
    every step.  Same arguments as the method, ``opt`` its ``self``."""
    opt.t += 1
    b1, b2 = opt.beta1, opt.beta2
    for key in opt.m:
        g = grads[key]
        opt.m[key] = b1 * opt.m[key] + (1 - b1) * g
        opt.v[key] = b2 * opt.v[key] + (1 - b2) * g * g
        mhat = opt.m[key] / (1 - b1**opt.t)
        vhat = opt.v[key] / (1 - b2**opt.t)
        layer = opt.net.layers[key[0]]
        updated = getattr(layer, key[1]) - opt.lr * mhat / (np.sqrt(vhat) + opt.eps)
        setattr(layer, key[1], updated)


def backward_reference(net, cache, value_seeds, sgrad_seeds=None):
    """``nets.backward`` as first written: the value-seeded gradients of
    every layer that trains are products over all rows of the batch, a
    zero-seeded one included.  Same arguments and result as the function."""
    from wdlearn.nets import _sensitivities

    hat = _sensitivities(net, cache)
    top = max((i for i, _ in net.trainable()), default=-1)
    v = np.asarray(value_seeds, dtype=float).reshape(-1, 1)
    u, grads = None, {}
    for i, lay in enumerate(net.layers[: top + 1]):
        if lay.trainable:
            prev = cache["input"] if i == 0 else cache["a"][i - 1]
            delta = v * hat[i]
            grads[(i, "W")] = delta.T @ prev
            grads[(i, "b")] = delta.sum(axis=0)
            if u is not None:
                grads[(i, "W")] += hat[i].T @ u
        if sgrad_seeds is not None and i < top:
            u = np.asarray(sgrad_seeds, dtype=float) if i == 0 else u @ lay.W.T
            u = u * (cache["z"][i] > 0.0) if lay.activation == "relu" else u
    return grads
