"""Fluid-antenna over-the-air federated learning toolkit.

Channel models with port-correlated fading, closed-form laws for the
aggregation error and user participation, a zero-forcing over-the-air
aggregation model, a small federated training simulator, and Monte Carlo
experiments that check the closed forms against simulation.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys


def _load_numpy_single_threaded() -> None:
    """Import numpy with its BLAS and OpenMP pools at one thread each.

    Both size their pools once, as numpy loads them.  The forked workers
    of ``train`` and ``copula-check`` would multiply any more, and
    ``train``'s small matmuls run faster on one thread than on several.
    A caller's own settings, and a numpy loaded before this package, are
    left as they are; the environment is restored afterwards, so child
    processes see the caller's.
    """
    if "numpy" in _sys.modules:
        return
    added = [name for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
             if name not in _os.environ]
    for name in added:
        _os.environ[name] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        for name in added:
            del _os.environ[name]


_load_numpy_single_threaded()

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
    gain_threshold,
    ota_aggregate,
    select_users,
    zf_power_control,
)
