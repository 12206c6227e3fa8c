"""Signatures of geodesics on compact Lie groups and what their Haar
averages know about the geometry.

The pipeline: truncated tensor algebra (``tensor``), concrete group models
(``groups``), exact and chordal path signatures (``paths``), Haar averages
(``average``), rescaled trace spectra (``spectra``), and recovery of
diameter, ball volumes, dimension, volume, and scalar curvature from the
spectrum (``recovery``).  ``liesig.cli`` exposes the same pipeline as a
command line tool.
"""

from .tensor import (
    TruncatedTensorSeries,
    BudgetError,
    exp_tensor,
    concat_product,
    hilbert_distance,
    trace_level,
)
from .groups import (
    CircleGroup,
    SU2Group,
    ProductGroup,
    CutLocusError,
    parse_group,
    stream,
)
from .paths import (
    SampledPath,
    MeshError,
    path_signature_numeric,
    sample_curve,
)
from .average import (
    AverageSignatureResult,
    average_closed_form,
    average_quadrature,
    average_monte_carlo,
    product_average_shuffle,
)
from .spectra import (
    TraceSpectrum,
    rtr_spectrum,
    spectrum_closed_form,
    spectrum_quadrature,
    spectrum_monte_carlo,
)
from .recovery import (
    AmbiguousDimension,
    FitFailure,
    DiameterEstimate,
    SmallBallFit,
    RecoveryReport,
    lk_norm,
    diameter_estimate,
    unit_ball_volume,
    ball_volume_from_moments,
    RadialCdfEstimator,
    small_ball_recovery,
    recover,
)

__version__ = "0.1.0"
