"""Regularized autoregressive modeling for audio signal reconstruction.

The core objective couples an AR residual-energy term with optional
regularizers on the coefficients (l1 sparsity) and on the time-domain signal
(distance to an observation-consistency set).  Alternating convex search
with Douglas-Rachford inner solvers fits both, covering audio declipping,
dequantization and inpainting; Janssen's method and generalized linear
prediction are available as strategies of the same outer loop.
"""

from .armodel import (ArCoefficients, ObjectiveValue, levinson_durbin,
                      objective, random_stable_ar, residual, simulate_ar)
from .audio_io import AudioBuffer, read_wav, write_wav
from .degrade import (ClipObservation, QuantObservation, drop_samples,
                      hard_clip, uniform_quantize)
from .fastops import (CirculantOperator, circulant_embed_filter,
                      prox_regularizer_extended)
from .framing import FrameLayout, frame_layout, overlap_add, segment, sine_window
from .metrics import (FrameRecord, ReconstructionReport, consistency_distance,
                      sdr)
from .pipeline import DegradationModel, reconstruct_channel, resolve_workers
from .prox import ConsistencySpec, project_consistency, prox_signal_penalty
from .solver import (AcsStep, AcsTrace, CoefficientGrowthError,
                     DouglasRachfordDivergence, SolverConfig, acs_run,
                     douglas_rachford, extrapolate, glp_rectify,
                     janssen_signal_update, line_search, progressive_schedule,
                     update_coefficients, update_signal)
from .cli import run_cli, write_report

__version__ = "0.1.0"
