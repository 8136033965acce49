"""Infinitesimal rigidity of planar rod configurations.

A rod configuration realizes a rank-two incidence geometry as straight rigid
segments pinned together at shared points.  This package decides whether such
a configuration is infinitesimally rigid two ways: combinatorially, by
playing the (2,3)-pebble game on a cone graph of the geometry, and
algebraically, by computing the exact rank of the concurrence matrix of a
randomly sampled exact realization.  The two verdicts certify each other.
"""

from .geometry import *
from .cone import *
from .pebble import *
from .oracle import *
from .analysis import *

__all__ = geometry.__all__ + cone.__all__ + pebble.__all__ + oracle.__all__ + analysis.__all__

__version__ = "0.1.0"
