"""Partition-constrained allocation with agency metrics.

A platform ranks a fixed catalog subject to a partition constraint: blocks
of objects may be reordered, but each block's internal order is fixed. The
platform optimizes a weighted blend of the agent's and the advocate's
expected value under a positional discount curve. This package provides
exact and heuristic solvers for that problem, pull/push agency metrics and
their frontier across the blend weight, seeded scenario generators, and
stable file formats for instances, logs, and reports.
"""

from . import core, inference, metrics, scenarios, solver
from .core import *
from .inference import *
from .metrics import *
from .scenarios import *
from .solver import *

__version__ = "0.1.0"

# Each module's __all__ is the list of record; the package re-exports it.
__all__ = ["__version__"]
__all__ += core.__all__
__all__ += inference.__all__
__all__ += metrics.__all__
__all__ += scenarios.__all__
__all__ += solver.__all__
