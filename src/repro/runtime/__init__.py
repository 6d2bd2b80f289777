"""Simulated fork-join runtime: atomics, work-span accounting, machine model."""

from repro.runtime.atomics import test_and_set, write_min, write_min_2d
from repro.runtime.parallel import PartitionedRelaxer
from repro.runtime.machine import DEFAULT_PROFILE, CostProfile, MachineModel
from repro.runtime.scheduler import brent_bound, greedy_makespan, lpt_makespan
from repro.runtime.workspan import RunStats, StepRecord

__all__ = [
    "DEFAULT_PROFILE",
    "CostProfile",
    "MachineModel",
    "PartitionedRelaxer",
    "RunStats",
    "StepRecord",
    "brent_bound",
    "greedy_makespan",
    "lpt_makespan",
    "test_and_set",
    "write_min",
    "write_min_2d",
]
