"""Whole-experiment proof that the indexed allocators change nothing.

The unit properties (``tests/pbs/test_scheduler_index.py``) compare
placements on synthetic tables; these variants of the determinism
harness close the loop at system level.  Every simulation experiment
reruns with one placement swapped back to its reference scan, and every
trace export must match the shipping
:class:`~repro.sched.index.NodeIndex` baseline byte for byte:

* ``SchedulerCore._place``, the placement of PBS and SLURM, patched to
  the reference ``allocate_fifo``;
* ``WinHpcScheduler._place`` patched to the reference packing scan
  ``allocate_packed`` for ``Core``-unit jobs and to a sort of the idle
  nodes for ``Node``-unit jobs, without the index's idle count.
"""

import pytest

from repro.sched.core import SchedulerCore
from repro.sched.index import allocate_fifo, allocate_packed
from repro.winhpc.job import WinJobUnit
from repro.winhpc.scheduler import WinHpcScheduler
from tests.trace.test_determinism import (
    SIMULATION_EXPERIMENTS,
    assert_variant_matches_baseline,
)


@pytest.mark.parametrize("experiment_id", SIMULATION_EXPERIMENTS)
def test_reference_allocator_gives_identical_traces(
    experiment_id, monkeypatch
):
    assert_variant_matches_baseline(
        experiment_id, "the reference allocator",
        lambda: monkeypatch.setattr(
            SchedulerCore, "_place",
            lambda self, job: allocate_fifo(job, self.nodes),
        ),
    )


def _reference_winhpc_place(self, job):
    if job.unit is WinJobUnit.CORE:
        return allocate_packed(job.amount, self.nodes)
    idle = sorted(
        (r for r in self.nodes.values() if r.idle),
        key=lambda r: r.hostname, reverse=True,
    )
    if len(idle) < job.amount:
        return None
    return [(record, record.cores) for record in idle[: job.amount]]


@pytest.mark.parametrize("experiment_id", SIMULATION_EXPERIMENTS)
def test_reference_winhpc_packing_gives_identical_traces(
    experiment_id, monkeypatch
):
    assert_variant_matches_baseline(
        experiment_id, "the reference WinHPC packing",
        lambda: monkeypatch.setattr(
            WinHpcScheduler, "_place", _reference_winhpc_place,
        ),
    )
