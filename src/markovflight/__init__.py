"""Symmetric Markov random flight in R^3 at finite speed.

A particle starts at the origin, moves at constant speed c, and picks a fresh
direction uniformly on the unit sphere at each event of a Poisson process of
intensity lam.  The package evaluates the closed-form objects attached to the
distribution of the position X(t) -- conditional characteristic functions,
the small-time transition density, subball probabilities and the interior
mass functions -- and ships a Monte Carlo engine plus a quadrature-backed
cross-check suite that ties every formula to an independent oracle.
"""
from . import arctan_series, charfun, density, errors, model, montecarlo, specfun, validate
from .arctan_series import *  # noqa: F401,F403
from .charfun import *  # noqa: F401,F403
from .density import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .validate import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
_modules = (arctan_series, charfun, density, errors, model, montecarlo, specfun, validate)
__all__ = [name for module in _modules for name in module.__all__] + ["__version__"]
