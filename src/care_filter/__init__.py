"""Constrained attack-resilient estimation.

Joint input/state estimation for linear time-varying systems under
actuator attacks, with the estimates projected onto known inequality
constraints, a chi-square/CUSUM attack detector, and a seeded simulation
harness for the vehicle case study. `care_step` is the core per-step
entry point; `simulate`, `monte_carlo` and `run_ensemble` drive whole
scenarios.

The namespace is the union of the modules' `__all__`: a public name is
declared once, in its module.
"""

from . import config, detector, ensemble, estimator, harness, model, projection, vehicle
from .config import *  # noqa: F401,F403
from .detector import *  # noqa: F401,F403
from .ensemble import *  # noqa: F401,F403
from .estimator import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .projection import *  # noqa: F401,F403
from .vehicle import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = (config.__all__ + detector.__all__ + ensemble.__all__ + estimator.__all__
           + harness.__all__ + model.__all__ + projection.__all__ + vehicle.__all__)
