"""Approximate range search and self-similarity join for polygonal curves
under the continuous Frechet distance.

Candidate generation snaps curves to randomly shifted grids and hashes the
resulting cell sequences; candidates are then confirmed by a layered
verification cascade with an exact free-space decision as the last resort.
"""

from . import curves, frechet, lsh, engine, experiments
from .curves import *
from .frechet import *
from .lsh import *
from .engine import *
from .experiments import *

__version__ = "0.1.0"

__all__ = curves.__all__ + frechet.__all__ + lsh.__all__ + engine.__all__ + experiments.__all__
