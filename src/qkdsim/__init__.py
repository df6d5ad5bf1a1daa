"""Desk-scale simulator of an SDN-controlled QKD network under attack.

A parametric channel model maps injected attacker power to secret key
rate and error rate; emulated circuit switches, an SDN controller, QKD
units, and a monitoring application close the detect/switch/re-init
mitigation loop under a deterministic simulated clock.
"""

from .clock import Scheduler, SimClock, WallClock
from .controller import (
    InProcessSwitchLink,
    LocalControllerClient,
    Northbound,
    ReconfigReport,
    ReconfigRequest,
    SdnController,
    SwitchDisconnected,
)
from .physics import (
    ATTACK_OFF,
    CalibrationAnchors,
    CalibrationError,
    ChannelParams,
    abort_qber,
    binary_entropy,
    calibrate,
    noise_rate,
    qber,
    sample,
    skr,
)
from .qkd_unit import KeyBlock, MonitorAgent, QkdUnitPair
from .qpm import (
    MitigationEvent,
    Qpm,
    QpmConfig,
    detect_failure,
    select_next_path,
)
from .scenario import (
    Scenario,
    ScenarioError,
    ScenarioEvent,
    load_scenario,
    run_scenario,
    sweep_attack_power,
)
from .switch import OpticalSwitch, SwitchAgent
from .topology import (
    CrossConnect,
    LinkSpec,
    PathSpec,
    Topology,
    TopologyError,
    load_topology,
    resolve_active_path,
)

__version__ = "0.1.0"
