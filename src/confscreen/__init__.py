"""Confounder screening by difference and ratio confounding scores.

Per-covariate (and per-group) scores are estimated by naive plug-ins, a
one-step doubly robust correction, or targeted maximum likelihood, with
influence-curve standard errors, confidence intervals, and Wald tests, plus
a simulation harness with ground-truth oracles for the synthetic designs.

The public names are those of each module's ``__all__``, re-exported here.
"""

__version__ = "1.0.0"

from . import _stats, data, estimators, influence, nuisance, ranking, simulation
from ._stats import *  # noqa: F401,F403
from .data import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .influence import *  # noqa: F401,F403
from .nuisance import *  # noqa: F401,F403
from .ranking import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *_stats.__all__,
    *data.__all__,
    *nuisance.__all__,
    *estimators.__all__,
    *influence.__all__,
    *ranking.__all__,
    *simulation.__all__,
]
