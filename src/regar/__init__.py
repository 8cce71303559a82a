"""Regularized autoregressive modeling for audio signal reconstruction.

The core objective couples an AR residual-energy term with optional
regularizers on the coefficients (l1 sparsity) and on the time-domain signal
(distance to an observation-consistency set).  Alternating convex search
with Douglas-Rachford inner solvers fits both, covering audio declipping,
dequantization and inpainting; Janssen's method and generalized linear
prediction are available as strategies of the same outer loop.

The package root holds what a script needs to degrade, restore and score a
signal; every other name is imported from its own module.
"""

from .armodel import random_stable_ar, simulate_ar
from .audio_io import AudioBuffer, read_wav, write_wav
from .degrade import hard_clip, uniform_quantize
from .metrics import sdr
from .pipeline import DegradationModel, reconstruct_channel
from .prox import ConsistencySpec
from .solver import SolverConfig, acs_run
from .cli import run_cli

__version__ = "0.1.0"
