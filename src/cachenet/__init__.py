"""Cache-aided interference network toolkit.

Placement, ZF/IA/IC delivery planning with signal-dimension accounting,
numeric zero-forcing verification, and exact sum-DoF / delivery-time
evaluation for networks with caches at both transmitters and receivers.

The `phy` names load on first access (PEP 562), so importing the package
does not import numpy, which only sampling and verifying need.
"""

from .delivery import (
    DeliveryPlan,
    Run,
    SubspaceLedger,
    account_block,
    build_centralized_plan,
    build_decentralized_plan,
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
from .placement import (
    CentralizedPlacement,
    DecentralizedPlacement,
    place_centralized,
    place_decentralized,
    subset_profile,
)

__version__ = "0.1.0"

_PHY_NAMES = {"GenericityError", "verify_plan_phy"}


def __getattr__(name: str):
    if name not in _PHY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import phy

    return getattr(phy, name)
