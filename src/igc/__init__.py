"""Desk-scale information geometry on finite sample spaces and 1-D quadrature grids.

Exponential and mixture charts with their cumulant machinery, Orlicz-norm
tools, isometric transports on the square-root sphere and its pulled-back
Hilbert bundle, chart-based differential-equation flows, and the
deformed-exponential generalization.
"""

__version__ = "0.1.0"

from .measures import *
from .orlicz import *
from .manifold import *
from .bundle import *
from .flows import *
from .deformed import *

# each module's __all__ is its public API; the package re-exports all of them
__all__ = [*measures.__all__, *orlicz.__all__, *manifold.__all__, *bundle.__all__, *flows.__all__, *deformed.__all__]
