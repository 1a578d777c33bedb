"""High-order difference operators for Riemann-Liouville space-fractional
derivatives, with stable Crank-Nicolson/ADI diffusion solvers, a spectral
stability certifier and a convergence-study harness.

The package republishes each numerical module's ``__all__``, which is the one
list of its public names; ``wsld.cli`` is left out, so importing the library
does not build the command line.
"""

from .coefficients import *
from .operators import *
from .spectral import *
from .solvers import *
from .verification import *

__version__ = "0.1.0"
