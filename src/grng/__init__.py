"""LFSR-driven Gaussian random number generation and testing toolkit.

Subpackages map one-to-one onto the generator's stages: `urng` is the
maximal-length LFSR uniform source, `transforms` holds the Box-Muller,
polar and central-limit algorithms, `fp_pipeline` emulates the binary32
hardware datapath core by core, `stats` is the chi-square /
Anderson-Darling / Kolmogorov-Smirnov acceptance battery, `qkdmod` maps
Gaussian streams to coherent-state quadrature pairs, and `cli` wires it
all into the `grng` command.
"""

from .fp_pipeline import (
    CoreResult,
    PipelineTrace,
    core_add,
    core_cos,
    core_div,
    core_log,
    core_mul,
    core_sin,
    core_sincos,
    core_sqrt,
    expected_core_counts,
    run_graph,
)
from .qkdmod import ModulationConfig, quadrature_stream
from .stats import (
    Histogram,
    Moments,
    TestReport,
    anderson_darling,
    build_histogram,
    chi_square_gof,
    kolmogorov_smirnov,
    moments,
    normal_cdf,
    normal_ppf,
)
from .transforms import (
    ALGORITHMS,
    CltConfig,
    GaussianPair,
    PolarDraw,
    StreamResult,
    box_muller,
    central_limit,
    polar,
    polar_draw,
    stream,
)
from .urng import (
    LfsrConfig,
    LfsrState,
    UniformSample,
    derive_seeds,
    lfsr_period,
    new_lfsr,
    parse_polynomial,
    polynomial_str,
    splitmix64,
    verify_primitive,
)

__version__ = "0.1.0"
