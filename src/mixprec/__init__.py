"""Mixed-precision quantization toolkit.

Measures cross-layer quantization sensitivities with forward-only loss
evaluations, projects the assembled matrix to the nearest PSD matrix,
and solves the bit-width assignment problem exactly under a model-size
budget.
"""

from . import oracles, quantizer, sensitivity, solver, spectra
from .oracles import *
from .quantizer import *
from .sensitivity import *
from .solver import *
from .spectra import *

__version__ = "0.1.0"

__all__ = [*quantizer.__all__, *spectra.__all__, *sensitivity.__all__,
           *oracles.__all__, *solver.__all__, "__version__"]
