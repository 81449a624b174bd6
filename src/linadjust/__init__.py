"""Regression-adjusted average treatment effect estimation for randomized experiments.

A single restricted least-squares family covers the usual estimators
(difference in means, main-effect adjustment, interacted adjustment,
gain scores, lagged-outcome adjustment): each coefficient on a
covariate or its treatment interaction is either free or pinned to a
constant, and the coefficient on the treatment column is the effect
estimate. The package provides the sample-level fits with
design-based standard errors, the exact population-level variance
calculus for comparing specifications, dominance checks with
counterexample constructors, and a seeded Monte Carlo harness.
"""

from . import dominance, estimate, model, population, sim
from .dominance import *  # noqa: F403
from .estimate import *  # noqa: F403
from .model import *  # noqa: F403
from .population import *  # noqa: F403
from .sim import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *estimate.__all__,
    *population.__all__,
    *dominance.__all__,
    *sim.__all__,
    "__version__",
]
