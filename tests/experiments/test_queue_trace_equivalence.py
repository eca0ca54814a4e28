"""Whole-experiment proof that the calendar queue changes nothing.

The unit properties (``tests/simkernel/test_queue_equivalence.py``)
compare the queues on synthetic programs; this variant of the
determinism harness closes the loop at system level: every simulation
experiment reruns with :data:`repro.simkernel.kernel.DEFAULT_QUEUE`
monkeypatched to the reference binary heap, and every trace export must
match the shipping :class:`~repro.simkernel.calqueue.CalendarQueue`
baseline byte for byte.  If the calendar's bucket boundaries ever
reordered a single tie on a *real* workload, this is the test that
would catch it.
"""

import pytest

import repro.simkernel.kernel as kernel
from tests.trace.test_determinism import (
    SIMULATION_EXPERIMENTS,
    assert_variant_matches_baseline,
)


def test_calendar_is_the_shipping_default():
    assert kernel.DEFAULT_QUEUE == "calendar"


@pytest.mark.parametrize("experiment_id", SIMULATION_EXPERIMENTS)
def test_heap_and_calendar_give_byte_identical_traces(
    experiment_id, monkeypatch
):
    assert_variant_matches_baseline(
        experiment_id, "the heap event queue",
        lambda: monkeypatch.setattr(kernel, "DEFAULT_QUEUE", "heap"),
    )
