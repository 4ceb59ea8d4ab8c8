"""Cache-aided interference network toolkit.

Placement, ZF/IA/IC delivery planning with signal-dimension accounting,
numeric zero-forcing verification, and exact sum-DoF / delivery-time
evaluation for networks with caches at both transmitters and receivers.
"""

from .delivery import (
    DeliveryPlan,
    Run,
    ScheduledSubfile,
    SubspaceLedger,
    account_block,
    build_centralized_plan,
    build_decentralized_plan,
    build_tier_plan,
    parse_plans,
    plan_sdof,
    serialize_plan,
    verify_completeness,
)
from .metrics import (
    mc_ndt,
    memory_share,
    ndt_centralized,
    ndt_closed_form,
    ndt_oracle,
    ndt_report,
    sdof_achievable,
    sdof_baseline,
    sdof_report,
    sweep_figure,
)
from .model import (
    ConfigurationError,
    DemandVector,
    NetworkConfig,
    SubfileId,
    binomial,
    subsets,
)
from .phy import (
    ChannelMatrix,
    GenericityError,
    PrecodingVector,
    equivalent_gains,
    minor,
    sample_channel,
    verify_plan_phy,
    zf_weights,
)
from .placement import (
    CentralizedPlacement,
    DecentralizedPlacement,
    expected_fraction,
    place_centralized,
    place_decentralized,
    subfile_class_count,
    subset_profile,
)

__version__ = "0.1.0"
