"""Minimax optimization on Riemannian manifolds.

Adaptive gradient descent ascent for problems of the form
min over x in M, max over y in N of f(x, y), where M and N are
Riemannian manifolds (spheres, Stiefel, symmetric positive definite
matrices, Euclidean space, and products of these). Stepsizes are set
from accumulated squared gradient norms, so no curvature or smoothness
constants need to be known in advance.
"""
from . import manifolds, problems, solvers, verification
from .manifolds import *
from .problems import *
from .solvers import *
from .verification import *

__version__ = "0.18.0"

__all__ = manifolds.__all__ + problems.__all__ + solvers.__all__ + verification.__all__
