"""Exception types raised by wdlearn operations."""


class WdlearnError(Exception):
    """Base class for all wdlearn errors."""


class AllZero(WdlearnError, ValueError):
    """Raw weight vector sums to zero and cannot be normalized."""


class NegativeEntry(WdlearnError, ValueError):
    """Weight vector contains a negative entry."""


class CertificateViolation(WdlearnError, AssertionError):
    """A mathematical guarantee the code relies on failed its check.

    Raised instead of ``assert``, so ``python -O`` does not strip the
    check; it subclasses ``AssertionError`` so that callers catching the
    assertion it replaces keep working.
    """


class SolverFailure(WdlearnError, RuntimeError):
    """The exact transport LP did not converge; treat as a bug signal."""


class NotConverged(WdlearnError, RuntimeError):
    """Iterative solver stopped before reaching tolerance.

    Attributes
    ----------
    violation : float
        Final marginal violation when the iteration stopped.
    """

    def __init__(self, message, violation):
        super().__init__(message)
        self.violation = float(violation)


class NoSpatialGradient(WdlearnError, ValueError):
    """Ground space lacks grid structure, so spatial gradients are undefined."""


class EmptyBank(WdlearnError, ValueError):
    """Potential bank has no entries."""


class RankDeficient(WdlearnError, ValueError):
    """Basis evaluations are numerically rank deficient.

    Attributes
    ----------
    rank : int
        Numerical rank that was detected.
    """

    def __init__(self, message, rank):
        super().__init__(message)
        self.rank = int(rank)


class Singular(WdlearnError, RuntimeError):
    """Regularized normal equations remain singular after jitter."""


class EmptyCover(WdlearnError, ValueError):
    """No sample point lies in any of the covering balls."""


class TooManyRows(WdlearnError, ValueError):
    """Bank has more rows than the max network accepts."""


class Diverged(WdlearnError, RuntimeError):
    """Training loss became non-finite."""


class DegenerateAdversary(WdlearnError, RuntimeError):
    """Adversary norm on the batch fell below the safety floor."""
