"""Multi-program QPU scheduling and qubit-allocation simulator.

Pipeline: policy-ordered job queue -> duration-based program merging ->
connected-region qubit allocation with inter-group buffers -> deterministic
discrete-event execution with shot-boundary preemption -> metrics.
"""

from .allocator import (
    AllocationError,
    AllocationOutcome,
    Occupancy,
    Region,
    RegionStats,
    allocate,
    grow_region,
    qubit_error,
    region_ratio,
    resolve_conflict,
)
from .chip import (
    Chip,
    ChipError,
    CouplingGraph,
    DistanceMatrix,
    QubitSpec,
    backend_name,
    dump_chip,
    generate_grid,
    load_chip,
)
from .engine import MergeConfig, SimConfig, SimulationError, Trace, run
from .merger import Group, group_by_exec_time, group_service_demand, select_prefix
from .metrics import (
    EmptyTraceError,
    MetricsReport,
    compute_report,
    mean_region_ratio,
    pst_estimate,
    throughput,
    weighted_turnaround,
)
from .scheduler import (
    Policy,
    SchedulerState,
    eta,
    order_queue,
    preemption_decision,
    priority_key,
    q_response_ratio,
    response_ratio,
)
from .workload import (
    Distribution,
    Job,
    Workload,
    WorkloadError,
    WorkloadSpec,
    default_spec,
    dump_workload,
    generate_poisson_workload,
    load_workload,
    service_demand,
)

__version__ = "0.1.0"
