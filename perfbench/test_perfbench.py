"""Self-tests of the benchmark's own code: span arithmetic, attribution of
kernel work to its owning module, and the generator wrapper's fidelity."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.simkernel import Interrupt, ProcessKilled, Simulator, Timeout
from spans import (
    DetectorProbe,
    LAYERS,
    SpanRecorder,
    instrument_detector,
    instrument_kernel,
    layer_of_module,
)

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """Returns the queued readings in order."""

    def __init__(self, *readings: float) -> None:
        self.readings = list(readings)

    def __call__(self) -> float:
        return self.readings.pop(0)


def module_function(module: str, source: str, **names):
    """Define ``source``'s function as if it lived in *module*."""
    namespace = {"__name__": module, **names}
    exec(source, namespace)
    return next(v for k, v in namespace.items()
                if callable(v) and k not in names and not k.startswith("__"))


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # a[0..10] holds b[1..4] (which holds c[2..3]) and d[6..7]
    rec = SpanRecorder(clock=FakeClock(0, 1, 2, 3, 4, 6, 7, 10))
    rec.open("a")
    rec.open("b")
    rec.open("c")
    rec.close()
    rec.close()
    rec.open("d")
    rec.close()
    rec.close()
    assert rec.self_times() == {
        "a": (1, 10 - 3 - 1), "b": (1, 3 - 1), "c": (1, 1), "d": (1, 1),
    }
    assert sum(s for _, s in rec.self_times().values()) == 10


def test_self_times_after_a_mark_ignore_earlier_spans():
    rec = SpanRecorder(clock=FakeClock(0, 5, 10, 11, 13, 20))
    rec.open("setup")
    rec.close()
    first = len(rec)
    rec.open("a")
    rec.open("a")
    rec.close()
    rec.close()
    assert rec.self_times(first) == {"a": (2, (20 - 10 - 2) + 2)}
    assert rec.durations("setup", 0, first) == 5
    # nested spans of one layer count once in the inclusive duration
    assert rec.durations("a", first) == 10


def test_wrap_records_one_span_and_passes_results_and_errors():
    rec = SpanRecorder()
    add = rec.wrap("pbs", lambda a, b=0: a + b)
    assert add(2, b=3) == 5

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("pbs", boom)()
    assert rec.depth == 0
    assert rec.self_times()["pbs"][0] == 2


# -- attribution --------------------------------------------------------------


def test_layer_names_follow_modules():
    assert layer_of_module("repro.pbs.server") == "pbs"
    assert layer_of_module("repro.core.detector") == "core.detector"
    assert layer_of_module("repro.core.wire") == "other"
    assert layer_of_module("repro.simkernel.process") == "simkernel"
    assert layer_of_module("some.other.module") == "other"
    assert layer_of_module(None) == "other"


def test_scheduled_callback_is_attributed_to_its_module():
    sim = Simulator()
    rec = SpanRecorder()
    instrument_kernel(sim, rec)
    hits = []
    callback = module_function(
        "repro.pbs.server", "def on_timer(x):\n    hits.append(x)\n",
        hits=hits,
    )
    sim.schedule(5.0, callback, 7)
    sim.run()
    assert hits == [7]
    by_layer = rec.self_times()
    assert by_layer["pbs"][0] == 1
    # the callback ran inside the kernel's run span
    pbs = rec.layers.index("pbs")
    assert rec.layers[rec.parents[pbs]] == "simkernel"


def test_process_step_is_attributed_to_the_generator_module():
    sim = Simulator()
    rec = SpanRecorder()
    instrument_kernel(sim, rec)
    proc_fn = module_function(
        "repro.health.monitor",
        "def beat():\n"
        "    yield Timeout(1)\n"
        "    yield Timeout(1)\n"
        "    return 'done'\n",
        Timeout=Timeout,
    )
    proc = sim.spawn(proc_fn())
    sim.run()
    assert proc.result == "done"
    assert proc.name == "beat"
    # three steps: start, after each timeout
    assert rec.self_times()["health"][0] == 3
    for i, layer in enumerate(rec.layers):
        if layer == "health":
            # step spans nest in the dispatch of Process._resume
            assert rec.layers[rec.parents[i]] == "simkernel"


# -- generator wrapper fidelity -----------------------------------------------


def _observe(traced: bool, scenario):
    """Run *scenario* on a plain or an instrumented kernel; return its log."""
    sim = Simulator()
    if traced:
        instrument_kernel(sim, SpanRecorder())
    log = []
    scenario(sim, log)
    sim.run()
    return log


def _returns(sim, log):
    def child():
        got = yield Timeout(2, value="tick")
        log.append(("child got", got, sim.now))
        return 42

    def parent():
        value = yield sim.spawn(child())
        log.append(("joined", value, sim.now))

    sim.spawn(parent())


def _interrupt_caught(sim, log):
    def sleeper():
        try:
            yield Timeout(100)
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, sim.now))
            yield Timeout(1)
            return "recovered"

    proc = sim.spawn(sleeper())

    def waiter():
        log.append(("result", (yield proc), sim.now))

    sim.spawn(waiter())
    sim.schedule(5, proc.interrupt, "power")


def _interrupt_uncaught(sim, log):
    def sleeper():
        yield Timeout(100)

    proc = sim.spawn(sleeper())

    def waiter():
        try:
            yield proc
        except Interrupt as exc:
            log.append(("waiter saw", type(exc).__name__, exc.cause, sim.now))

    sim.spawn(waiter())
    sim.schedule(3, proc.interrupt, "crash")


def _killed(sim, log):
    def victim():
        try:
            while True:
                yield Timeout(1)
                log.append(("step", sim.now))
        finally:
            log.append(("finally", sim.now))

    proc = sim.spawn(victim())

    def waiter():
        try:
            yield proc
        except ProcessKilled:
            log.append(("killed", sim.now, proc.alive))

    sim.spawn(waiter())
    sim.schedule(3.5, proc.kill)


@pytest.mark.parametrize(
    "scenario", [_returns, _interrupt_caught, _interrupt_uncaught, _killed],
)
def test_generator_wrapper_keeps_process_semantics(scenario):
    plain = _observe(False, scenario)
    assert plain
    assert _observe(True, scenario) == plain


# -- detector probe -------------------------------------------------------------


class _Personality:
    mutation_epoch = 0


class _Detector:
    def check(self):
        return "report"


def test_cold_checks_count_epoch_moves_per_detector():
    personality, detector, probe = _Personality(), _Detector(), DetectorProbe()
    rec = SpanRecorder()
    instrument_detector(detector, personality, rec, probe)
    for epoch in (1, 1, 1, 2, 3, 3):
        personality.mutation_epoch = epoch
        assert detector.check() == "report"
    assert (probe.checks, probe.cold) == (6, 3)
    assert rec.self_times()["core.detector"][0] == 6


# -- the benchmark's declared metrics -------------------------------------------


def test_benchmark_json_declares_every_metric_and_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expectations = json.loads(
        (ROOT / "perfbench" / "expectations.json").read_text()
    )
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert "setup_s" in end_to_end
    for name in end_to_end | per_layer | workloads:
        assert name_ok.match(name), name
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= per_layer
    assert set(expectations["moves"]) == per_layer
    for targets in expectations["moves"].values():
        for metric, workload in targets:
            assert metric in end_to_end and workload in workloads
    assert set(expectations["seeds"]) == workloads
