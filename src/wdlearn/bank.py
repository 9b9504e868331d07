"""Banks of Kantorovich potentials against a reference measure.

A bank stores, for selected training measures ``mu_k``, the potential
``phi_k`` (paired with the ``mu`` side) and the scalar
``psi_bar_k = <psi_k, theta>``.  The bank evaluates the lower
approximant ``G(mu) = max_k <phi_k, mu> + psi_bar_k`` of the transport
cost to the reference, exact at the anchor measures by duality.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CertificateViolation, EmptyBank
from .measures import DiscreteMeasure, LineReader, MeasureDataset, ensure_same_ground
from .ot import exact_ot, wasserstein

_DUALITY_TOL = 1e-8


@dataclass(frozen=True)
class BankEntry:
    source_index: int
    phi: np.ndarray
    psi_bar: float
    wpp: float

    def check_duality(self, mu: DiscreteMeasure, tol: float = _DUALITY_TOL):
        """Verify ``<phi, mu> + psi_bar = wpp`` for the anchor ``mu``."""
        gap = abs(float(self.phi @ mu.weights) + self.psi_bar - self.wpp)
        if not gap <= tol:
            raise CertificateViolation(
                f"bank entry {self.source_index} violates duality by {gap:.3e}"
            )


class PotentialBank:
    """Reference measure plus a list of dual-potential entries."""

    def __init__(self, theta: DiscreteMeasure, entries: Sequence[BankEntry]):
        self.theta = theta
        self.ground = theta.ground
        self.entries = list(entries)
        # an empty bank has a (0, m) matrix and no biases
        self._A = np.array([e.phi for e in self.entries], dtype=float).reshape(-1, self.ground.size)
        self._b = np.array([e.psi_bar for e in self.entries], dtype=float)

    def __len__(self):
        return len(self.entries)

    @property
    def indices(self) -> list:
        return [e.source_index for e in self.entries]

    def subset(self, positions: Sequence[int]) -> "PotentialBank":
        """Bank restricted to the given entry positions."""
        return PotentialBank(self.theta, [self.entries[i] for i in positions])

    def check_duality(self, dataset: MeasureDataset, tol: float = _DUALITY_TOL):
        """Verify ``<phi_k, mu_k> + psi_bar_k = wpp_k`` for every entry;
        raises ``CertificateViolation`` naming the first entry off by
        more than ``tol``."""
        for e in self.entries:
            e.check_duality(dataset.train[e.source_index], tol)


def build_bank(dataset: MeasureDataset, theta: DiscreteMeasure, indices: Sequence[int]) -> PotentialBank:
    """Solve one exact transport problem per index and store the duals."""
    ensure_same_ground(dataset.ground, theta.ground)
    entries = []
    for k in indices:
        mu_k = dataset.train[int(k)]
        _, pot, wpp = exact_ot(theta, mu_k)
        psi_bar = float(pot.psi @ theta.weights)
        entry = BankEntry(source_index=int(k), phi=pot.phi, psi_bar=psi_bar, wpp=wpp)
        entry.check_duality(mu_k)
        entries.append(entry)
    return PotentialBank(theta, entries)


def eval_G_many(bank: PotentialBank, weight_matrix: np.ndarray) -> np.ndarray:
    """``G(mu) = max_k <phi_k, mu> + psi_bar_k`` for each row ``mu`` of (N, m) weights."""
    if not bank.entries:
        raise EmptyBank("bank has no entries")
    return (weight_matrix @ bank._A.T + bank._b[None, :]).max(axis=1)


def select_cover_indices(
    dataset: MeasureDataset,
    theta: DiscreteMeasure,
    delta: float,
    distance_matrix: Optional[np.ndarray] = None,
) -> list:
    """Greedy subset of train indices whose delta-balls cover the train set.

    The first uncovered measure, in index order, becomes the next
    center, so the pass is deterministic; the result is near-minimal but
    not globally minimal.  Distances are exact W_p; pass a precomputed
    train-by-train matrix to avoid repeated solves.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")

    def distance(i, c):
        if distance_matrix is not None:
            return distance_matrix[i, c]
        return wasserstein(dataset.train[i], dataset.train[c])

    centers: list = []
    for i in range(len(dataset.train)):
        if not any(distance(i, c) <= delta for c in centers):
            centers.append(i)
    return centers


def random_indices(n_train: int, j: int, seed: int) -> list:
    """``j`` distinct train indices drawn with a seeded RNG; raises
    ``ValueError`` unless ``1 <= j <= n_train``."""
    if j < 1:
        raise ValueError(f"a random index set needs j >= 1, got j={j}")
    if j > n_train:
        raise ValueError(f"a random index set of j={j} exceeds the {n_train} train measures")
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n_train, size=j, replace=False).tolist())


def nested_random_schedule(n_train: int, sizes: Sequence[int], seed: int) -> dict:
    """Random index sets ``I_j`` with the hierarchical property.

    A single seeded permutation is truncated at each size, so
    ``I_j subset I_j'`` whenever ``j <= j'``.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_train)
    out = {}
    for j in sizes:
        if j > n_train:
            raise ValueError(f"schedule size {j} exceeds the train set")
        out[int(j)] = sorted(order[:j].tolist())
    return out


def export_affine(bank: PotentialBank):
    """Weight matrix and bias vector realizing ``G`` as a max of
    affine forms: row i is ``phi_{k_i}`` along the ground ordering and
    ``b_i = psi_bar_{k_i}``."""
    if not bank.entries:
        raise EmptyBank("bank has no entries")
    return bank._A.copy(), bank._b.copy()


def reference_hash(theta: DiscreteMeasure) -> str:
    """Hash of the reference's weights, its ground's points and ``p``."""
    h = hashlib.sha256(np.ascontiguousarray(theta.weights).tobytes())
    h.update(np.ascontiguousarray(theta.ground.points).tobytes())
    h.update(np.float64(theta.ground.p).tobytes())
    return h.hexdigest()[:12]


def write_bank(path, bank: PotentialBank) -> None:
    """Text bank file: header ``|I| d p ref_hash``, then per entry a
    ``k wpp psi_bar`` line followed by the phi vector line.  ``ref_hash``
    is :func:`reference_hash` of the bank's reference, so it covers the
    ground's points as well as the reference weights."""
    lines = [
        f"{len(bank)} {bank.ground.size} {bank.ground.p!r} {reference_hash(bank.theta)}"
    ]
    for e in bank.entries:
        lines.append(f"{e.source_index} {e.wpp!r} {e.psi_bar!r}")
        lines.append(" ".join(repr(float(v)) for v in e.phi))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_bank(path, theta: DiscreteMeasure) -> PotentialBank:
    """Read a bank file; ``theta`` must have the stored ground size and
    ``p``, and its weights and ground points must hash to the stored value.

    Raises
    ------
    ValueError
        If the file belongs to another ground space or reference (the
        same weights on other points count as another reference), and,
        naming the line, when the file ends before the header's count of
        entries or without a final newline, when a line has the wrong
        number of fields (a ``phi`` line needs ``d``), when a source index
        is negative or a ``wpp``, ``psi_bar`` or ``phi`` value is not
        finite, and when non-blank data follows the last entry.
    """
    lines = LineReader(path, "bank")
    count, d, p, ref_hash = lines.fields(
        "the header '|I| d p ref_hash'", (int, int, float, str)
    )
    if d != theta.ground.size or p != theta.ground.p:
        raise ValueError("bank file does not match the ground space")
    if ref_hash != reference_hash(theta):
        raise ValueError("bank file was built against a different reference or ground points")
    if count < 0:
        raise lines.error(f"negative entry count {count}")
    entries = []
    for i in range(count):
        entry = f"entry {i + 1} of {count}"
        k, wpp, psi_bar = lines.fields(f"{entry}: 'k wpp psi_bar'", (int, float, float))
        if k < 0:
            raise lines.error(f"{entry}: negative source index {k}")
        if not np.isfinite([wpp, psi_bar]).all():
            raise lines.error(f"{entry}: wpp and psi_bar must be finite, got {wpp} and {psi_bar}")
        phi = np.array(lines.fields(f"{entry}: phi", [float] * d))
        if not np.isfinite(phi).all():
            raise lines.error(f"{entry}: phi must be finite")
        entries.append(BankEntry(source_index=k, phi=phi, psi_bar=psi_bar, wpp=wpp))
    lines.finish()
    return PotentialBank(theta, entries)
