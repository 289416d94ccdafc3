"""Online Bayesian identification of a Duffing oscillator by variational
message passing on a factor graph."""

from .beliefs import (
    GammaBelief,
    GaussianBelief,
    ImproperBeliefError,
    gaussian_moments,
)
from .duffing import (
    ArCoefficients,
    PhysicalParams,
    TimeSeries,
    UnstableSimulationError,
    ar_to_phys,
    phys_to_ar,
    simulate,
)
from .engine import (
    BeliefSet,
    InferenceError,
    PriorConfig,
    StepReport,
    evaluate_mse,
    identify,
    identify_stream,
    initial_beliefs,
    posterior_coefficients,
    predict_onestep,
    simulate_rollout,
    step_update,
)

__version__ = "0.1.0"
