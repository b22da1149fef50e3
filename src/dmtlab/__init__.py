"""Diversity-multiplexing tradeoff toolkit for selective-fading MIMO channels.

Submodules: ``channel`` (covariance models and correlated sampling),
``tradeoff`` (mutual information, outage Monte Carlo, diversity curves),
``codes`` (codebooks and design criteria), ``precoder`` (shift-based inner
codes), ``sim`` (pairwise error bounds and ML error simulation), ``cli``.
"""

from ._util import Estimate
from .channel import (
    BlockFading,
    ChannelDims,
    CovarianceMatrix,
    CyclicIsi,
    Fast,
    Flat,
    ScatteringSpec,
    TimeFrequency,
    build_covariance,
    circulant_covariance,
    sample_channel_batch,
)
from .codes import (
    Codebook,
    EffectiveDifference,
    QamFamily,
    effective_difference,
    pairwise_min_products,
    permutation_codebook,
    qam_family,
    search_permutations,
    verify_dmt_criterion,
    verify_rank_r0,
    xi_metric,
)
from .precoder import (
    Precoder,
    apply_precoder,
    classic_precoder,
    design_tf_shift_precoder,
    verify_composed_design,
    verify_precoder_rank,
)
from .sim import (
    error_curve,
    worst_pep,
)
from .tradeoff import (
    DmtCurve,
    FixedRate,
    ScalingRate,
    SnrPoint,
    fit_diversity_slope,
    jensen_dmt_curve,
    outage_curve,
)

__version__ = "0.1.0"
