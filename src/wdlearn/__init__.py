"""wdlearn: learning Wasserstein distances and smooth functions of measures.

Subpackages cover exact and entropic optimal transport on finite ground
spaces, potential banks with max-of-potentials evaluation, the gradient
fields of cylinder functions and their pre-Cheeger pairing, regularized
least squares in cylinder subspaces, subcovering diagnostics, ReLU max
networks with hand-rolled training, and the adversarial weak-form
solver.
"""

__version__ = "0.1.0"

import logging

# silent unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

from . import errors  # noqa: F401
from .measures import (  # noqa: F401
    DiscreteMeasure,
    GroundSpace,
    MeasureDataset,
    normalize_to_measure,
    read_dataset,
    write_dataset,
)
from .ot import (  # noqa: F401
    PotentialPair,
    TransportPlan,
    c_transform,
    exact_ot,
    pairwise_wasserstein,
    sinkhorn,
    wasserstein,
)
from .bank import PotentialBank, build_bank, eval_G_many, export_affine  # noqa: F401
from .erm import CylinderSubspace, double_orthogonalize, solve_regularized  # noqa: F401
from .nets import ReluNetwork, build_max_network, init_from_bank  # noqa: F401
from .subcover import MetricSample, p_eps_k_closed  # noqa: F401
