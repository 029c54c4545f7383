"""Fluid-antenna over-the-air federated learning toolkit.

Channel models with port-correlated fading, closed-form laws for the
aggregation error and user participation, a zero-forcing over-the-air
aggregation model, a small federated training simulator, and Monte Carlo
experiments that check the closed forms against simulation.
"""

__version__ = "0.1.0"

from .channel import (  # noqa: F401
    Clayton,
    DependenceSpec,
    GaussianJakes,
    Independent,
    PerfectDependence,
    PortGainMatrix,
    SamplingError,
    first_qualifying_port,
    jakes_correlation_matrix,
    sample_best_gains,
    sample_port_gains,
    select_ports,
)
from .analytics import (  # noqa: F401
    ConvergenceConstants,
    GainDistribution,
    channel_gain_cdf,
    normalized_mse_cdf,
    participation_pmf_vector,
    qualify_probability,
)
from .ota import (  # noqa: F401
    NoParticipantsError,
    OtaConfig,
    SelectionOutcome,
    dbm_to_linear,
    gain_threshold,
    ota_aggregate,
    select_users,
    zf_power_control,
)
