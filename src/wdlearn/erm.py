"""Regularized least squares in finite-dimensional cylinder subspaces.

Subspaces here are spans of affine functionals of a measure,
``l(mu) = <f, mu>`` for feature functions ``f`` (constants are the
feature ``1`` since measures have unit mass).  A subspace is its rows of
features: linear combinations stay in the family, so a change of basis is
a product with the feature matrix and double orthogonalization a finite
generalized eigenproblem.  The basis fields are the grid gradients of the
features (:func:`wdlearn.cylinder.grid_gradients`), constant in the
measure, so the energy Gram pairs them once against the mean sample
measure through :func:`wdlearn.cylinder.field_pairing`, the pairing of the
network and adversarial losses.  Integrals over the sample are quadratures
with one nonnegative weight per measure, ``1/N`` each by default.  A basis
function is one feature row, evaluated on a sample as ``W @ features.T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .cylinder import field_pairing, grid_gradients
from .errors import CertificateViolation, RankDeficient, Singular
from .measures import GroundSpace

_RESIDUAL_TOL = 1e-10
_GRAM_TOL = 1e-8


def as_weight_matrix(sample) -> np.ndarray:
    """Stack a measure list (or pass through a matrix) as (N, m) weights."""
    if isinstance(sample, np.ndarray):
        return sample
    return np.array([mu.weights for mu in sample])


def _quad_weights(n: int, weights) -> np.ndarray:
    """Quadrature weights over ``n`` sample measures; ``1/n`` each when
    ``weights`` is omitted."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != n or not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("quadrature weights must be nonnegative, one per measure")
    return w


def _mean_measure(sample, weights) -> np.ndarray:
    """The quadrature-weighted mean of the sample's weight vectors."""
    W = as_weight_matrix(sample)
    return _quad_weights(W.shape[0], weights) @ W


class CylinderSubspace:
    """Span of affine functionals ``l_i(mu) = <features_i, mu>``.

    Parameters
    ----------
    ground : GroundSpace
    features : (n, m) array_like
        One feature function per basis functional, on the ground points.
    """

    def __init__(self, ground: GroundSpace, features):
        self.ground = ground
        self.features = np.atleast_2d(np.asarray(features, dtype=float))
        if self.features.shape[1] != ground.size:
            raise ValueError("features must be vectors over the ground points")

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    def basis_fields(self) -> np.ndarray:
        """Gradient fields of the basis functions, shape (n, m, d);
        constant in the measure because the functionals are affine."""
        return grid_gradients(self.ground, self.features)

    def evaluate(self, sample) -> np.ndarray:
        """Basis evaluations, shape (N, n)."""
        return as_weight_matrix(sample) @ self.features.T

    def l2_gram(self, sample, weights=None) -> np.ndarray:
        E = self.evaluate(sample)
        qw = _quad_weights(E.shape[0], weights)
        return E.T @ (qw[:, None] * E)

    def energy_gram(self, sample, weights=None) -> np.ndarray:
        """Pre-Cheeger pairings of every two basis functions, shape (n, n)."""
        g = self.basis_fields()
        return field_pairing(g[:, None], g[None, :], _mean_measure(sample, weights))

    def energies(self, sample, weights=None) -> np.ndarray:
        """Per-basis-function quadratic energies on the given data."""
        g = self.basis_fields()
        return field_pairing(g, g, _mean_measure(sample, weights))


def _numerical_rank(gram) -> int:
    """The eigenvalues of a Gram matrix above ``1e-12`` of the largest: the
    singular values of its evaluations above ``1e-6`` of theirs."""
    eigs = np.linalg.eigvalsh(gram)
    return int(np.sum(eigs > eigs.max(initial=0.0) * 1e-12))


def double_orthogonalize(raw: CylinderSubspace, sample, weights=None) -> CylinderSubspace:
    """Basis orthonormal in L2 and orthogonal in energy, simultaneously.

    Solves the generalized symmetric eigenproblem of the energy Gram
    against the L2 Gram; the eigenvector matrix is the change of basis.

    Raises
    ------
    RankDeficient
        If the basis evaluations are numerically dependent on the data.
    """
    A = raw.l2_gram(sample, weights)
    rank = _numerical_rank(A)
    if rank < raw.dim:
        raise RankDeficient(
            f"basis has numerical rank {rank} < {raw.dim} on the sample", rank
        )
    B = raw.energy_gram(sample, weights)
    _, V = sla.eigh(B, A)
    out = CylinderSubspace(raw.ground, V.T @ raw.features)

    new_A = out.l2_gram(sample, weights)
    new_B = out.energy_gram(sample, weights)
    l2_err = np.abs(new_A - np.eye(out.dim)).max()
    energy_err = np.abs(new_B - np.diag(np.diag(new_B))).max()
    if not (l2_err <= _GRAM_TOL and energy_err <= _GRAM_TOL):
        raise CertificateViolation(
            f"double orthogonalization off by {l2_err:.3e} (L2 Gram) and "
            f"{energy_err:.3e} (energy Gram)"
        )
    return out


@dataclass
class GramSystem:
    """Matrices of the regularized least-squares problem.

    ``L[j, i] = l_i(mu_j) / sqrt(N)``, ``D`` the sample energy Gram,
    ``yF[i] = (1/N) sum_j values_j l_i(mu_j)``.
    """

    L: np.ndarray
    D: np.ndarray
    lam: float
    yF: np.ndarray
    values_sq_mean: float = 0.0

    def __post_init__(self):
        if np.abs(self.D - self.D.T).max() > 1e-10:
            raise ValueError("energy Gram must be symmetric")
        if np.linalg.eigvalsh(self.D).min() < -1e-10:
            raise ValueError("energy Gram must be positive semidefinite")

    @property
    def normal_matrix(self) -> np.ndarray:
        return self.L.T @ self.L + self.lam * self.D

    def objective(self, w: np.ndarray) -> float:
        """``(1/N) sum_j (F_j - G_j)^2 + lam w^T D w`` at coefficients w."""
        w = np.asarray(w, float)
        quad = w @ (self.L.T @ self.L) @ w
        return float(
            self.values_sq_mean - 2.0 * w @ self.yF + quad + self.lam * w @ self.D @ w
        )


def assemble(
    subspace: CylinderSubspace,
    sample,
    values,
    lam: float,
) -> GramSystem:
    """Build the Gram system for a fitting sample and target values."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    W = as_weight_matrix(sample)
    values = np.asarray(values, dtype=float)
    N = W.shape[0]
    if values.shape[0] != N:
        raise ValueError("one target value per sample measure is required")
    E = subspace.evaluate(W)
    rank = _numerical_rank(E.T @ E)
    if rank < subspace.dim:
        raise RankDeficient(
            f"basis evaluations have numerical rank {rank} < {subspace.dim}", rank
        )
    L = E / np.sqrt(N)
    D = subspace.energy_gram(W)
    yF = E.T @ values / N
    return GramSystem(
        L=L,
        D=D,
        lam=float(lam),
        yF=yF,
        values_sq_mean=float(np.mean(values**2)),
    )


@dataclass
class FitResult:
    """Solution of the regularized normal equations."""

    coefficients: np.ndarray
    subspace: CylinderSubspace
    system: GramSystem = field(repr=False)
    diagnostics: dict = field(default_factory=dict)

    def predict(self, sample) -> np.ndarray:
        return self.subspace.evaluate(sample) @ self.coefficients


def _probes_do_not_descend(grad, curvature, obj: float) -> bool:
    """Whether no coordinate step ``h = +-1e-4`` lowers the quadratic
    objective by more than ``1e-12 (1 + |obj|)``.

    The objective changes by exactly ``h grad_i + h^2 curvature_i`` along
    ``h e_i``, with ``grad = 2 (M w - yF)`` and ``curvature = diag(M)``;
    this avoids re-evaluating the objective at each of the 2n probes.
    """
    tol = -1e-12 * (1.0 + abs(obj))
    return all(bool(np.all(h * grad + h * h * curvature >= tol)) for h in (1e-4, -1e-4))


def solve_regularized(subspace: CylinderSubspace, system: GramSystem) -> FitResult:
    """Solve ``(L^T L + lam D) w = yF`` by SPD factorization.

    A diagonal jitter of ``1e-12 * trace / n`` is added once if the
    factorization fails; the jitter is reported in the diagnostics.

    Raises
    ------
    Singular
        If the jittered system still fails to factor.
    """
    M = system.normal_matrix
    n = M.shape[0]
    jitter = 0.0
    try:
        c, low = sla.cho_factor(M)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(M) / n
        try:
            c, low = sla.cho_factor(M + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise Singular("normal equations singular even after jitter") from exc
    w = sla.cho_solve((c, low), system.yF)

    r = M @ w - system.yF
    residual = float(np.linalg.norm(r))
    if residual > _RESIDUAL_TOL * (1.0 + np.linalg.norm(system.yF)):
        raise Singular(f"linear-system residual {residual:.3e} exceeds tolerance")

    obj = system.objective(w)
    diag = {
        "residual": residual,
        "objective": obj,
        "jitter": jitter,
        "local_optimum": _probes_do_not_descend(2.0 * r, np.diag(M), obj),
    }
    return FitResult(coefficients=w, subspace=subspace, system=system, diagnostics=diag)


def truncate_values(values, M: float) -> np.ndarray:
    """The truncation ``T_M`` of the ERM bounds, ``values`` clamped to
    ``[-M, M]``; raises ``ValueError`` unless ``M > 0``."""
    if not M > 0:
        raise ValueError(f"truncation level must be positive, got {M!r}")
    return np.clip(np.asarray(values, dtype=float), -M, M)


def add_noise(values, sigma: float, seed: int) -> np.ndarray:
    """Seeded i.i.d. Gaussian perturbations of variance ``sigma^2``."""
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    values = np.asarray(values, dtype=float)
    if sigma == 0.0:
        return values.copy()
    rng = np.random.default_rng(seed)
    return values + rng.normal(0.0, sigma, size=values.shape)


def c_delta(delta: float) -> float:
    """Chernoff exponent constant ``(1 + d) log(1 + d) - d``."""
    return (1.0 + delta) * np.log1p(delta) - delta


@dataclass(frozen=True)
class ConditionReport:
    """Sampling condition diagnostics for a basis and sample size."""

    n: int
    N: int
    r: float
    lam: float
    K: float
    sigma_min: float
    sigma_max: float
    c_value: float
    required: float
    actual: float
    satisfied: bool
    K_at_least_n: bool


def condition_check(
    subspace: CylinderSubspace,
    sample,
    lam: float,
    r: float,
    gamma: Optional[np.ndarray] = None,
    weights=None,
) -> ConditionReport:
    """Check ``N / log N >= (1 + r) K / (sigma_min c_{1/(2 sigma_max)})``.

    ``K`` is the max over the sample of
    ``sum_i (l_i(mu)^2 + lam int |D l_i|^2 dmu)``; ``gamma`` defaults to
    the per-function energies on the same sample.  Raises ``ValueError``
    unless ``0 < r < inf``, the range in which the bound's ``N^{-r}`` term
    decays.
    """
    if not 0 < r < np.inf:
        raise ValueError(f"r must be finite and positive, got {r}")
    W = as_weight_matrix(sample)
    N = W.shape[0]
    E = subspace.evaluate(W)
    g = subspace.basis_fields()
    energy = field_pairing(g, g, W[:, None, :]).sum(axis=1)
    per_sample = (E**2).sum(axis=1) + lam * energy
    K = float(per_sample.max())
    if gamma is None:
        gamma = subspace.energies(W, weights)
    sigma_min = 1.0 + lam * float(np.min(gamma))
    sigma_max = 1.0 + lam * float(np.max(gamma))
    c_value = c_delta(1.0 / (2.0 * sigma_max))
    required = (1.0 + r) * K / (sigma_min * c_value)
    actual = N / np.log(N) if N >= 2 else 0.0
    return ConditionReport(
        n=subspace.dim,
        N=N,
        r=r,
        lam=lam,
        K=K,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        c_value=c_value,
        required=required,
        actual=actual,
        satisfied=bool(N >= 2 and actual >= required),
        K_at_least_n=bool(K >= subspace.dim - 1e-9),
    )


def bound_rhs(
    e: float,
    lam: float,
    gamma,
    sigma: float,
    M: float,
    N: int,
    n: int,
    r: float,
    proj_energy: float = 0.0,
) -> float:
    """Noisy-data generalization bound.

    ``2 e (1 + c_{1/2} / (log N (1+r) (1/2 + lam mu_min)^2))
    + 8 lam proj_energy + 4 sigma^2 n / ((1 + lam mu_min)^2 N)
    + 2 M^2 N^{-r}``, with ``mu_min = min(gamma)``.  ``proj_energy`` is
    the energy of the subspace projection of the target; with a
    double-orthogonal basis it is ``sum_i z_i^2 gamma_i`` for projection
    coefficients ``z``.  Raises ``ValueError`` unless ``0 < r < inf``, as
    :func:`condition_check` does.
    """
    if not 0 < r < np.inf:
        raise ValueError(f"r must be finite and positive, got {r}")
    mu_min = float(np.min(np.asarray(gamma, dtype=float)))
    t1 = 2.0 * e * (1.0 + c_delta(0.5) / (np.log(N) * (1.0 + r) * (0.5 + lam * mu_min) ** 2))
    t2 = 8.0 * lam * proj_energy
    t3 = 4.0 * sigma**2 * n / ((1.0 + lam * mu_min) ** 2 * N)
    t4 = 2.0 * M**2 * N ** (-r)
    return float(t1 + t2 + t3 + t4)


def chernoff_deviation_bound(n: int, N: int, K: float, delta: float = 0.5) -> float:
    """``2 n exp(-N c_delta / K)`` bound on ``P(||L^T L - I|| > delta)``."""
    return float(2.0 * n * np.exp(-N * c_delta(delta) / K))
