"""The README's library sketch, kept runnable."""

import numpy as np

from wdlearn import (
    DiscreteMeasure,
    build_bank,
    eval_G_many,
    exact_ot,
    export_affine,
    init_from_bank,
)
from wdlearn.experiments import make_synthetic_dataset


def test_readme_sketch():
    ds = make_synthetic_dataset(6, 6, n_train=16, n_test=4, seed=0)
    theta = DiscreteMeasure(ds.ground, np.full(36, 1 / 36))

    plan, potentials, wpp = exact_ot(theta, ds.train[0])
    assert wpp >= 0.0
    assert potentials.psi[0] == 0.0

    bank = build_bank(ds, theta, range(8))
    g = eval_G_many(bank, ds.test_matrix)
    assert g[0] <= exact_ot(theta, ds.test[0])[2] + 1e-8

    A, b = export_affine(bank)
    net = init_from_bank(A, b, k=3)
    np.testing.assert_allclose(
        net.forward(ds.test_matrix),
        (ds.test_matrix @ A.T + b).max(axis=1),
        atol=1e-12,
    )
