"""Whole-experiment proof that the indexed allocator changes nothing.

The unit properties (``tests/pbs/test_scheduler_index.py``) compare
placements on synthetic tables; this variant of the determinism
harness closes the loop at system level: every simulation experiment
reruns with ``SchedulerCore._place`` monkeypatched to the reference
``allocate_fifo`` scan — the placement of PBS and SLURM (WinHPC packs
cores with its own ``_place``) — and every trace export must match the
shipping :class:`~repro.sched.index.NodeIndex` baseline byte for byte.
"""

import pytest

from repro.sched.core import SchedulerCore
from repro.sched.index import allocate_fifo
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
