"""Determinism regression battery and the variant-equivalence harness.

The whole reproduction rests on the claim that a (seed, scenario) pair
pins the simulation completely.  Aggregate-metric equality (what E9's
own ``deterministic`` headline checks) can mask compensating
differences; byte-identical *event traces* cannot.

The harness runs each simulation experiment once as a **baseline** (the
shipping configuration, quick mode, fixed seed), checks every attached
trace against the invariants and for a non-empty export, and keeps the
exports' digests for the session.  A **variant** reruns the experiment
with one thing changed and must export byte-identical traces:

* a same-seed rerun (this module);
* the reference binary-heap event queue
  (``tests/experiments/test_queue_trace_equivalence.py``);
* the reference ``allocate_fifo`` scan patched over
  ``SchedulerCore._place`` (``tests/experiments/test_index_equivalence.py``).

So each experiment costs four runs however many variants check it.
"""

import hashlib
import importlib
import re
from typing import Callable, Dict, Optional

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.trace import check_events

SEED = 3

# the simulation experiments (e1..e11, e14, e15); the figure/table
# reproductions in the registry are pure artefact generators and attach
# no traces
SIMULATION_EXPERIMENTS = sorted(
    k for k in ALL_EXPERIMENTS if re.fullmatch(r"e\d+", k)
)


def _run(experiment_id):
    module = importlib.import_module(ALL_EXPERIMENTS[experiment_id])
    return module.run(seed=SEED, quick=True)


def _digests(output) -> Dict[str, str]:
    return {
        label: hashlib.sha256(export.encode()).hexdigest()
        for label, export in output.trace_exports().items()
    }


#: experiment id -> {trace label: sha256 of its export}, per session
_BASELINES: Dict[str, Dict[str, str]] = {}


def baseline_digests(experiment_id: str) -> Dict[str, str]:
    """Run the shipping configuration once per session and vet it."""
    digests = _BASELINES.get(experiment_id)
    if digests is not None:
        return digests
    output = _run(experiment_id)
    assert output.traces, f"{experiment_id} attached no traces"
    for label, export in output.trace_exports().items():
        assert export, f"{experiment_id} trace {label!r} is empty"
    for label, tracer in output.traces.items():
        violations = check_events(tracer.events)
        assert violations == [], (
            f"{experiment_id} trace {label!r} violates invariants: "
            + "; ".join(str(v) for v in violations)
        )
    digests = _BASELINES[experiment_id] = _digests(output)
    return digests


def assert_variant_matches_baseline(
    experiment_id: str, variant: str,
    apply: Optional[Callable[[], None]] = None,
) -> None:
    """Rerun *experiment_id* after *apply* changes one thing; every
    trace export must equal the baseline's byte for byte."""
    baseline = baseline_digests(experiment_id)  # before the change
    if apply is not None:
        apply()
    digests = _digests(_run(experiment_id))
    assert digests.keys() == baseline.keys()
    for label, digest in digests.items():
        assert digest == baseline[label], (
            f"{experiment_id} trace {label!r} differs under {variant}"
        )


def test_battery_covers_all_simulation_experiments():
    assert SIMULATION_EXPERIMENTS == sorted(
        [f"e{i}" for i in range(1, 12)] + ["e14", "e15"]
    )


# -- trace_mode cross-checks -------------------------------------------------
#
# The pay-as-you-go tracer ("counts"/"off" modes) must be a pure
# observer: turning recording down or off cannot perturb the simulation.
# Proof: the identical (seed, scenario) pair is driven through the full
# middleware stack once per mode and every scheduler-visible outcome
# (the whole ScenarioResult) must be equal — and a "full" run *after*
# the cheap-mode runs must export byte-for-byte what a fresh "full" run
# exports.


def _cross_mode_run(trace_mode):
    from repro.compare import HybridSystem, run_scenario
    from repro.core.config import MiddlewareConfig, TraceConfig
    from repro.simkernel import HOUR, MINUTE
    from repro.workloads import MixedWorkload

    horizon = 4 * HOUR
    system = HybridSystem(
        num_nodes=8, seed=SEED, version=2,
        config=MiddlewareConfig(
            version=2, check_cycle_s=10 * MINUTE,
            trace=TraceConfig(mode=trace_mode),
        ),
    )
    jobs = MixedWorkload(
        seed=SEED, rate_per_hour=6.0, windows_fraction=0.5,
        horizon_s=horizon, max_cores=16, runtime_scale=0.25,
    ).generate()
    result = run_scenario(system, jobs, horizon)
    return system.middleware.tracer, result


def test_trace_mode_does_not_perturb_the_simulation():
    full_tracer, full_result = _cross_mode_run("full")
    counts_tracer, counts_result = _cross_mode_run("counts")
    off_tracer, off_result = _cross_mode_run("off")

    # identical scheduler-visible outcomes in every mode
    assert counts_result == full_result
    assert off_result == full_result

    # "counts" keeps the exact per-kind tallies of a full run, minus events
    assert counts_tracer.mode == "counts"
    assert dict(counts_tracer.counts) == dict(full_tracer.counts)
    assert counts_tracer.events == []
    assert counts_tracer.export_jsonl() == ""

    # "off" records nothing at all
    assert off_tracer.events == []
    assert dict(off_tracer.counts) == {}

    # and a full-mode re-run after the cheap modes replays byte-identically
    replay_tracer, replay_result = _cross_mode_run("full")
    assert replay_result == full_result
    assert replay_tracer.export_jsonl() == full_tracer.export_jsonl()
    assert replay_tracer.export_jsonl()  # non-empty: the proof has teeth


@pytest.mark.parametrize("experiment_id", SIMULATION_EXPERIMENTS)
def test_same_seed_twice_gives_byte_identical_traces(experiment_id):
    assert_variant_matches_baseline(experiment_id, "a same-seed rerun")
