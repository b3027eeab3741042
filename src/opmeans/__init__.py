"""Operator-means laboratory on the positive-definite cone.

Computes the Heron-type, Kubo-Ando geometric, and Wasserstein means of
Hermitian positive-definite matrices, measures the residuals of the
identity chain that links equality of the first and last of these means
to commutativity, and drives the gap-minimization experiment that probes
that linkage numerically.

The package re-exports the `__all__` of linalg, means, verify, randgen
and sweep, which is the only list of public names; cli and matio are
reached through their modules.
"""

from .linalg import *
from .means import *
from .verify import *
from .randgen import *
from .sweep import *

__version__ = "0.1.0"
