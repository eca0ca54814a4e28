"""The repository benchmark: the hybrid cluster's control loop at scale.

Run from the repository root::

    python3 perfbench/run.py --workload e10-1024 --seed 0 --seconds 20 --trace 0

``--seed`` derives a few scenario seeds (see ``workloads.py``); each feeds
one job stream and its cluster.  A *repeat* runs one scenario end to end
through ``HybridSystem`` / ``run_scenario``: build, ``deploy()``, feed,
24 h horizon, drain, ``finalize()``.  A *round* is one repeat of every
scenario.  The run makes rounds until ``--seconds`` have passed and
reports medians over rounds of each round's per-scenario mean, so one
run's figures average over several job streams.  Everything runs in one
process and one thread.

Host times are normalised seconds: each repeat's wall times are rescaled
by how fast a fixed reference loop ran next to it (see ``reference.py``).
The wall times are printed too.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs traced rounds, with spans around every layer boundary
(see ``spans.py``), and reports the per-layer metrics.

After the timed rounds, one more untraced repeat of each scenario is
checked: every registered trace invariant holds; every workload job is
completed or failed (rejected at submit, failed terminally, or unfinished
at the drain deadline); every repeat of the scenario agreed with it; and a
traced repeat exported the byte-identical trace.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` and ``metrics``.  ``attempted`` and ``failed`` count the
workload jobs of the checked repeats, one per scenario; every timed repeat
must agree with its checked repeat, so both counts depend on the seed
alone, not on how many rounds fit in ``--seconds``.  A run whose check
fails counts every job as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from statistics import mean, median
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Rounds a run always makes, however long they take.
MIN_ROUNDS = {0: 3, 1: 2}
#: Layer self times must cover this share of the traced simulate time.
MIN_ATTRIBUTED_SHARE = 0.95
#: Per-layer counts: metric name -> key in ``Repeat.counts``.
COUNT_METRICS = {
    "simkernel.events": "events",
    "simkernel.compactions": "compactions",
    "core.detector.checks": "detector_checks",
    "core.communicator.orders_issued": "orders_issued",
    "core.communicator.retries": "retries",
    "core.elasticity.suspends": "suspends",
    "core.elasticity.resumes": "resumes",
    "core.elasticity.provisions": "provisions",
    "health.fences": "fences",
    "health.recoveries": "recoveries",
    "hardware.boots": "boots",
    "trace.emits": "emits",
}


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and directions."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and check that the
    package imported is the one in this checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


class Repeat:
    """What one scenario run left behind once its system is dropped."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.simulate_s = 0.0
        #: normalised seconds per wall second (see ``reference.py``)
        self.scale = 1.0
        self.sim_hours = 0.0
        self.energy_kwh = 0.0
        self.result: Any = None
        self.system: Any = None
        self.sha: Optional[str] = None
        self.fingerprint: Tuple[Any, ...] = ()
        self.counts: Dict[str, int] = {}
        self.layers: Dict[str, Tuple[int, float]] = {}
        self.setup_parts: Dict[str, float] = {}


def _counters(system: Any) -> Dict[str, int]:
    """Program-side counters, read before and after the simulate phase."""
    middleware = system.middleware
    counts = middleware.tracer.counts
    daemons = middleware.daemons
    elasticity, health = middleware.elasticity, middleware.health
    return {
        "events": system.sim.events_executed,
        "compactions": system.sim.compactions,
        "boots": sum(len(n.boot_records)
                     for n in middleware.cluster.compute_nodes),
        "emits": sum(counts.values()),
        "orders_issued": counts["order.issued"],
        "orders_confirmed": counts["order.confirmed"],
        "retries": sum(getattr(c, "retries", 0)
                       for c in (daemons.linux, daemons.windows)),
        "suspends": elasticity.suspends if elasticity else 0,
        "resumes": elasticity.resumes if elasticity else 0,
        "provisions": elasticity.provisions if elasticity else 0,
        "fences": health.fences if health else 0,
        "recoveries": health.recoveries if health else 0,
    }


def trace_sha256(system: Any) -> str:
    return hashlib.sha256(
        system.middleware.tracer.export_jsonl().encode("ascii")
    ).hexdigest()


def run_repeat(workload: Any, seed: int, jobs: List[Any], traced: bool,
               keep: bool = False, want_sha: bool = False) -> Repeat:
    """Build, deploy and run one scenario; time setup and simulate.

    The system is dropped on return unless *keep* is set.
    """
    from repro.compare import run_scenario
    from spans import (
        DetectorProbe, SETUP_PARTS, SpanRecorder, instrument_running,
        instrument_setup, patched_boot_chain,
    )
    from workloads import DRAIN_S, HORIZON_S

    rep = Repeat()
    recorder = SpanRecorder() if traced else None
    probe = DetectorProbe()
    marks: Dict[str, Any] = {}

    gc.collect()
    t_build = time.perf_counter()
    system = workload.build(seed)
    if recorder is not None:
        instrument_setup(system, recorder)
    real_deploy, real_finalize = system.deploy, system.finalize

    def deploy() -> None:
        real_deploy()
        marks["setup_end"] = time.perf_counter()
        workload.arm_faults(system)
        marks["before"] = _counters(system)
        if recorder is not None:
            instrument_running(system, recorder, probe)
            marks["first_span"] = len(recorder)
            recorder.open("compare")
        marks["sim_start"] = time.perf_counter()

    def finalize() -> None:
        real_finalize()
        if recorder is not None:
            recorder.close()
        marks["sim_end"] = time.perf_counter()

    system.deploy, system.finalize = deploy, finalize
    boot_patch = (patched_boot_chain(recorder) if recorder is not None
                  else contextlib.nullcontext())
    with boot_patch:
        result = run_scenario(system, jobs, HORIZON_S, drain_limit_s=DRAIN_S)

    rep.setup_s = marks["setup_end"] - t_build
    rep.simulate_s = marks["sim_end"] - marks["sim_start"]
    rep.result = result
    rep.sim_hours = result.horizon_s / 3600.0
    meter = system.middleware.energy
    rep.energy_kwh = meter.total_joules() / 3.6e6 if meter is not None else 0.0
    after = _counters(system)
    rep.counts = {k: after[k] - marks["before"][k] for k in after}
    rep.fingerprint = (
        system.sim.events_executed, result.switches, result.completed,
        result.rejected, tuple(sorted(system.middleware.tracer.counts.items())),
    )
    if recorder is not None:
        if recorder.depth:
            raise RuntimeError("perfbench: spans left open after the run")
        first = marks["first_span"]
        rep.layers = recorder.self_times(first)
        rep.setup_parts = {
            part: recorder.durations(f"setup.{part}", 0, first)
            for part in SETUP_PARTS
        }
        rep.counts["detector_checks"] = probe.checks
        rep.counts["detector_cold"] = probe.cold
    if want_sha:
        rep.sha = trace_sha256(system)
    if keep:
        rep.system = system
    return rep


def account_jobs(system: Any, result: Any, jobs: List[Any]) -> Dict[str, int]:
    """Classify every workload job: completed, rejected at submit, failed
    terminally, or unfinished at the drain deadline."""
    middleware = system.middleware
    names = {job.name for job in jobs}
    by_kind = {p.kind: p for p in middleware.schedulers.values()}
    terminal = set()
    for event in middleware.tracer.events_of("job.failed"):
        personality = by_kind.get(event.fields.get("scheduler"))
        job = (personality.get_job(str(event.fields.get("jobid")))
               if personality is not None else None)
        if job is not None and job.name in names:
            terminal.add(job.name)
    records = {r.name: r for r in system.recorder.workload_jobs()}
    ended = sum(1 for r in records.values() if r.completed)
    failed_terminal = sum(1 for n in terminal
                          if n in records and records[n].completed)
    return {
        "submitted": len(jobs),
        "distinct_names": len(names),
        "completed": ended - failed_terminal,
        "rejected": len(names - records.keys()),
        "rejected_by_system": system.rejected,
        "failed_terminal": failed_terminal,
        "unfinished": sum(1 for r in records.values() if not r.completed),
        "completed_by_runner": result.completed,
    }


def verify(rep: Repeat, jobs: List[Any]) -> Tuple[List[str], Dict[str, int], str]:
    """Check one kept repeat; returns (problems, job accounting, sha256)."""
    from repro.trace import check_events

    system = rep.system
    problems = [
        f"invariant {v.invariant}: {v.message}"
        for v in check_events(system.middleware.tracer.events)
    ]
    acct = account_jobs(system, rep.result, jobs)
    acct["failed"] = acct["rejected"] + acct["failed_terminal"] + acct["unfinished"]
    if acct["distinct_names"] != acct["submitted"]:
        problems.append("workload job names are not unique")
    if acct["completed"] + acct["failed"] != acct["submitted"]:
        problems.append(f"jobs unaccounted for: {acct}")
    if acct["rejected"] != acct["rejected_by_system"]:
        problems.append(f"rejections disagree: {acct}")
    if acct["completed"] + acct["failed_terminal"] != acct["completed_by_runner"]:
        problems.append(f"completions disagree with run_scenario: {acct}")
    return problems, acct, trace_sha256(system)


def _per_round(rounds: List[List[Repeat]], value) -> float:
    """Median over rounds of a per-round figure."""
    return median(value(round_) for round_ in rounds)


def _scaled(round_: List[Repeat], field: str) -> float:
    return sum(getattr(r, field) * r.scale for r in round_)


def end_to_end(rounds: List[List[Repeat]], peak_rss_mb: float) -> Dict[str, float]:
    """Host times are normalised seconds; see ``reference.py``."""
    k = len(rounds[0])
    return {
        "setup_s": _per_round(rounds, lambda rd: _scaled(rd, "setup_s") / k),
        "simulate_s": _per_round(
            rounds, lambda rd: _scaled(rd, "simulate_s") / k),
        "wall_ms_per_sim_hour": _per_round(
            rounds, lambda rd: 1e3 * _scaled(rd, "simulate_s")
            / sum(r.sim_hours for r in rd)),
        "us_per_event": _per_round(
            rounds, lambda rd: 1e6 * _scaled(rd, "simulate_s")
            / sum(r.counts["events"] for r in rd)),
        "peak_rss_mb": peak_rss_mb,
        "energy_kwh": mean(r.energy_kwh for r in rounds[0]),
    }


def per_layer(rounds: List[List[Repeat]],
              untraced: List[Repeat]) -> Dict[str, float]:
    """Per-scenario means: counts from the first round, times as medians
    over rounds."""
    from spans import LAYERS, SETUP_PARTS

    first = rounds[0]
    k = len(first)

    def total(key: str) -> int:
        return sum(r.counts[key] for r in first)

    def ratio(part: str, whole: str) -> float:
        return total(part) / total(whole) if total(whole) else 0.0

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(
            r.layers.get(layer, (0, 0.0))[0] for r in first) / k
        out[f"{layer}.self_s"] = _per_round(rounds, lambda rd: sum(
            r.layers.get(layer, (0, 0.0))[1] * r.scale for r in rd) / k)
    for name, key in COUNT_METRICS.items():
        out[name] = total(key) / k
    out["core.detector.cold_ratio"] = ratio("detector_cold", "detector_checks")
    out["core.communicator.orders_confirmed_ratio"] = ratio(
        "orders_confirmed", "orders_issued")
    for part in SETUP_PARTS:
        out[f"setup.{part}_s"] = _per_round(rounds, lambda rd: sum(
            r.setup_parts[part] * r.scale for r in rd) / k)
    traced_s = _per_round(rounds, lambda rd: _scaled(rd, "simulate_s") / k)
    untraced_s = _scaled(untraced, "simulate_s") / k
    out.update({
        "traced_simulate_s": traced_s,
        "untraced_simulate_s": untraced_s,
        "trace_overhead_s": traced_s - untraced_s,
        "attributed_share": _per_round(rounds, lambda rd: sum(
            s for r in rd for _, s in r.layers.values())
            / sum(r.simulate_s for r in rd)),
    })
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    import_program()
    from reference import NOMINAL_S, ReferenceLoop
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    scenarios = [(s, workload.jobs(s)) for s in workload.scenario_seeds(args.seed)]
    traced = args.trace == 1
    reference = ReferenceLoop()
    last_reference = [reference.seconds()]

    def repeat(seed: int, jobs: List[Any], **options: Any) -> Repeat:
        """One repeat, scaled by the reference loop timed around it."""
        rep = run_repeat(workload, seed, jobs, **options)
        now = reference.seconds()
        rep.scale = NOMINAL_S / ((last_reference[0] + now) / 2)
        last_reference[0] = now
        return rep

    rounds: List[List[Repeat]] = []
    start = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS[args.trace]
           or time.perf_counter() - start < args.seconds):
        rounds.append([
            repeat(seed, jobs, traced=traced, want_sha=traced and not rounds)
            for seed, jobs in scenarios
        ])
    peak_mb = peak_rss_mb()

    problems: List[str] = []
    checked: List[Repeat] = []
    failed_jobs = 0
    lines: List[str] = []
    for index, (seed, jobs) in enumerate(scenarios):
        rep = repeat(seed, jobs, traced=False, keep=True)
        found, acct, sha = verify(rep, jobs)
        rep.system = None
        checked.append(rep)
        failed_jobs += acct["failed"]
        problems.extend(f"scenario {seed}: {p}" for p in found)
        if any(rd[index].fingerprint != rep.fingerprint for rd in rounds):
            problems.append(f"scenario {seed}: repeats disagree")
        if traced and rounds[0][index].sha != sha:
            problems.append(f"scenario {seed}: tracing changed the trace")
        result = rep.result
        lines += [
            f"scenario seed {seed}: trace sha256 {sha} events "
            f"{rep.fingerprint[0]} switches {result.switches}",
            f"  jobs {acct['submitted']}: completed {acct['completed']}, "
            f"rejected {acct['rejected']}, failed terminally "
            f"{acct['failed_terminal']}, unfinished {acct['unfinished']}",
            f"  wait p90 linux {result.wait_linux.p90:.1f} s over "
            f"{result.wait_linux.count} started, windows "
            f"{result.wait_windows.p90:.1f} s over "
            f"{result.wait_windows.count}; useful utilization "
            f"{result.useful_utilization:.4f}",
        ]

    if traced:
        metrics = per_layer(rounds, checked)
        if metrics["attributed_share"] < MIN_ATTRIBUTED_SHARE:
            problems.append(
                f"layer self times cover only {metrics['attributed_share']:.3f}"
                " of the traced simulate time"
            )
    else:
        metrics = end_to_end(rounds, peak_mb)

    attempted = sum(len(jobs) for _, jobs in scenarios)
    correct = not problems
    failed = failed_jobs if correct else attempted
    timed = [r for rd in rounds for r in rd]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds of {len(scenarios)} scenarios")
    print("\n".join(lines))
    print(f"host: median wall setup {median(r.setup_s for r in timed):.4f} s,"
          f" simulate {median(r.simulate_s for r in timed):.4f} s; "
          f"normalised / wall {median(r.scale for r in timed):.4f}")
    section = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '?')}")
    print("correct" if correct else "INCORRECT: " + "; ".join(problems))
    if set(units) != set(metrics):
        raise SystemExit(
            f"perfbench: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(units))}"
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
