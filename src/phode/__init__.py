"""Port-Hamiltonian ODE toolkit.

Build, validate, couple, decouple and simulate networks of
port-Hamiltonian ODE systems with structure-preserving integrators.
"""

from .core import (
    CallbackPHSystem,
    DimensionError,
    LinearPHSystem,
    SingularFlowError,
    StructureReport,
    eval_dynamics,
    port_power,
    power_balance_residual,
    validate_structure,
)
from .coupling import (
    CoupledNetwork,
    CouplingSpec,
    LinearPortRelation,
    StructureFailure,
    build_phdae,
    condense_general,
    condense_skew,
    eliminate_ports,
)
from .decoupling import (
    LinearTransform,
    Partition,
    VerificationFailure,
    apply_transform,
    decouple_auto,
    decouple_with_ports,
)
from .integrate import (
    EnergyReport,
    StepCountError,
    Trajectory,
    dynamic_iteration,
    energy_report,
    implicit_midpoint,
    strang_split,
)
from . import models

__all__ = [
    "CallbackPHSystem",
    "CoupledNetwork",
    "CouplingSpec",
    "DimensionError",
    "EnergyReport",
    "LinearPHSystem",
    "LinearPortRelation",
    "LinearTransform",
    "Partition",
    "SingularFlowError",
    "StepCountError",
    "StructureFailure",
    "StructureReport",
    "Trajectory",
    "VerificationFailure",
    "apply_transform",
    "build_phdae",
    "condense_general",
    "condense_skew",
    "decouple_auto",
    "decouple_with_ports",
    "dynamic_iteration",
    "eliminate_ports",
    "energy_report",
    "eval_dynamics",
    "implicit_midpoint",
    "models",
    "port_power",
    "power_balance_residual",
    "strang_split",
    "validate_structure",
]
