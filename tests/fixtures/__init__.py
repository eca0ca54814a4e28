"""Shared test fixtures: verbatim paper wires and golden traces.

The two Figure-6 wire strings are the paper's own examples of the
Figure-5 message format — tests across the suite (wire codec, detector,
property tests) must agree on them byte-for-byte, so they live here once.

``golden_trace_*.jsonl`` are checked-in canonical trace exports of one
tiny v1 and one tiny v2 scenario (the v2 one also with SLURM as the
Windows-side scheduler); ``tests/trace/test_golden_traces.py``
compares fresh runs against them and regenerates them when
``REPRO_REGEN_GOLDEN=1`` is set.
"""

from __future__ import annotations

from pathlib import Path

FIXTURES_DIR = Path(__file__).resolve().parent

#: Figure 6, first debug dump: idle queue ("00000" CPU fields + "none").
FIGURE6_IDLE_WIRE = "00000none"

#: Figure 6, second dump: stuck queue needing 4 CPUs for job 41191.
FIGURE6_STUCK_WIRE = "100041191.eridani.qgg.hud.ac.uk"

#: Both verbatim Figure-6 wires, for round-trip parametrisation.
FIGURE6_WIRES = (FIGURE6_IDLE_WIRE, FIGURE6_STUCK_WIRE)


def golden_trace_path(version: int, windows_scheduler: str = "winhpc") -> Path:
    """Path of the checked-in golden trace for middleware v1 or v2.

    The default PBS<->WinHPC pairing keeps the historical unsuffixed
    name; other Windows-side schedulers add ``_<kind>``.
    """
    suffix = "" if windows_scheduler == "winhpc" else f"_{windows_scheduler}"
    return FIXTURES_DIR / f"golden_trace_v{version}{suffix}.jsonl"


def load_golden_trace(version: int, windows_scheduler: str = "winhpc") -> str:
    """The checked-in golden JSONL export (raw text)."""
    return golden_trace_path(version, windows_scheduler).read_text(
        encoding="ascii"
    )
