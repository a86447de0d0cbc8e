"""Gossip-based geographic neighbor discovery with spectrum coordination hints."""

from .geometry import GeoPoint
from .wire import (
    FRAME_LEN,
    DiscoveryItem,
    FieldRangeError,
    FrameLengthError,
    decode,
    encode,
)
from .sampling import EmptyViewError, PeerDescriptor, RandomView
from .overlay import RankedView, candidate_list
from .scenario import (
    ChurnEvent,
    InvalidRegionError,
    NodeSpec,
    Params,
    Scenario,
    add_random_churn,
    four_node_demo,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .simulate import (
    MetricsRow,
    MetricsSeries,
    Simulation,
    UnknownNodeError,
    convergence_round,
)
from .spectrum import HintState, InterferenceGraph, build_graph, greedy_assign, qoe_step
from .gateway import NoEligibleDelegateError, select_delegate

__version__ = "0.1.0"
