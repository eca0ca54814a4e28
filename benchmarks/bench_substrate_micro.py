"""Substrate micro-benchmarks (real multi-round timings).

The reproduction experiments run thousands of simulated hours in seconds;
these micro-benchmarks keep the hot paths honest (per the hpc-parallel
optimisation workflow: measure, don't guess):

* raw event throughput of the DES kernel,
* full boot-chain resolution (PXE → GRUB4DOS → local disk),
* detector text-parse over a 16-node ``qstat -f`` listing,
* cold vs epoch-cached detector checks over a busy 1024-node cluster,
* one SLURM scheduling pass (head placement, shadow time and the EASY
  backfill scan) over a busy 128-node cluster with a deep backlog,
* utilisation integration over a large job-record set (NumPy path).
"""

import time

import numpy as np

from repro.boot import Firmware, resolve_boot
from repro.boot.chain import BootEnvironment
from repro.boot.grub4dos import GRUB4DOS_ROM, default_menu_path
from repro.core.detector import PbsDetector, parse_qstat_full
from repro.metrics.recorder import JobRecord
from repro.metrics.utilization import utilization_timeline
from repro.netsvc import DhcpServer, TftpServer
from repro.pbs import JobSpec, PbsCommands, PbsServer
from repro.simkernel import Simulator
from repro.slurm import SlurmController, SlurmJobSpec
from repro.storage import Filesystem, FsType
from tests.conftest import CONTROLMENU_FIG3, make_v1_disk


def test_bench_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        sink = []
        for i in range(10_000):
            sim.schedule(float(i % 100), sink.append, i)
        sim.run()
        return len(sink)

    assert benchmark(run_10k_events) == 10_000


def test_bench_boot_chain_resolution(benchmark):
    disk = make_v1_disk()
    fs = Filesystem(FsType.EXT3)
    fs.write("/tftpboot/grldr", GRUB4DOS_ROM)
    tftp = TftpServer(fs)
    tftp.put(default_menu_path(), CONTROLMENU_FIG3)
    env = BootEnvironment(
        dhcp=DhcpServer(default_bootfile="/grldr"), tftp=tftp
    )
    firmware = Firmware.pxe_first()

    outcome = benchmark(
        resolve_boot, disk, firmware, "02:00:5e:00:00:01", env
    )
    assert outcome.os_name == "linux"


def test_bench_detector_parse(benchmark):
    sim = Simulator()
    server = PbsServer(sim)
    for i in range(1, 17):
        server.create_node(f"enode{i:02d}", np=4)
        server.node_up(f"enode{i:02d}")
    for i in range(16):
        server.qsub(JobSpec(name=f"job{i}", ppn=4, runtime_s=1000.0))
    text = PbsCommands(server).qstat_f()

    jobs = benchmark(parse_qstat_full, text)
    assert len(jobs) == 16


def _busy_pbs_cluster(num_nodes=1024, queued=512):
    """A full 1024-node cluster with a deep backlog: every node runs a
    4-core job and *queued* more wait behind them — the worst realistic
    input for one detector check."""
    sim = Simulator()
    server = PbsServer(sim)
    for i in range(1, num_nodes + 1):
        server.create_node(f"enode{i:04d}", np=4)
        server.node_up(f"enode{i:04d}")
    for i in range(num_nodes + queued):
        server.qsub(JobSpec(name=f"job{i}", ppn=4, runtime_s=100_000.0))
    commands = PbsCommands(server)
    return server, commands, PbsDetector(commands)


def test_bench_detector_check_cold_1024(benchmark):
    _, commands, detector = _busy_pbs_cluster()

    def cold_check():
        # drop both cache layers so every round renders + parses anew
        detector.invalidate()
        commands.invalidate_cache()
        return detector.check()

    report = benchmark(cold_check)
    assert report.running == 1024
    assert report.queued == 512


def test_bench_detector_check_cached_1024(benchmark):
    _, _, detector = _busy_pbs_cluster()
    detector.check()  # warm the epoch cache

    report = benchmark(detector.check)
    assert report.running == 1024
    assert report.queued == 512


def test_cached_detector_speedup_floor():
    """The acceptance gate: an epoch-cache hit must be at least 5x faster
    than a cold render+parse at 1024 nodes (in practice it is orders of
    magnitude faster; 5x keeps the gate robust on noisy CI hosts)."""
    _, commands, detector = _busy_pbs_cluster()

    cold_rounds, warm_rounds = 5, 500
    start = time.perf_counter()  # reprolint: disable=DET001 -- benchmark gate; wall time never enters a simulation
    for _ in range(cold_rounds):
        detector.invalidate()
        commands.invalidate_cache()
        detector.check()
    cold_s = (time.perf_counter() - start) / cold_rounds  # reprolint: disable=DET001 -- benchmark gate; wall time never enters a simulation

    detector.check()  # warm
    start = time.perf_counter()  # reprolint: disable=DET001 -- benchmark gate; wall time never enters a simulation
    for _ in range(warm_rounds):
        detector.check()
    warm_s = (time.perf_counter() - start) / warm_rounds  # reprolint: disable=DET001 -- benchmark gate; wall time never enters a simulation

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert speedup >= 5.0, (
        f"epoch cache hit only {speedup:.1f}x faster than cold "
        f"(cold {cold_s * 1e6:.0f}us, warm {warm_s * 1e6:.0f}us)"
    )


#: (nodes, ppn) shapes of the backfill bench's backlog, cycled
_BACKLOG_SHAPES = [(1, 16), (1, 4), (2, 8), (4, 16), (8, 4)]


def _busy_slurm_cluster(num_nodes=128, backlog=500):
    """Every node runs a 14-of-16-core job and *backlog* jobs of mixed
    shapes wait: the 2 cores left per node fit none of them, so each
    scheduling pass fails the head, computes its shadow time and tries
    every backfill candidate."""
    controller = SlurmController(Simulator())
    for i in range(1, num_nodes + 1):
        controller.add_node(f"sn{i:03d}", cores=16)
        controller.node_online(f"sn{i:03d}")
    for i in range(num_nodes):
        controller.submit(SlurmJobSpec(
            name=f"run{i}", nodes=1, ppn=14,
            runtime_s=50_000.0 + 60.0 * i, time_limit_s=100_000.0,
        ))
    for i in range(backlog):
        nodes, ppn = _BACKLOG_SHAPES[i % len(_BACKLOG_SHAPES)]
        controller.submit(SlurmJobSpec(
            name=f"wait{i}", nodes=nodes, ppn=ppn,
            runtime_s=600.0, time_limit_s=3_600.0 * (1 + i % 3),
        ))
    return controller


def test_bench_backfill_pass(benchmark):
    controller = _busy_slurm_cluster()
    assert controller.free_cores() == 2 * 128

    benchmark(controller._try_schedule)
    assert len(controller.running_jobs()) == 128
    assert len(controller.queue_order) == 500


def test_bench_utilization_timeline(benchmark):
    rng = np.random.default_rng(0)
    starts = rng.uniform(0, 30_000, size=2_000)
    records = [
        JobRecord(
            name=f"j{i}", scheduler="pbs", cores=4,
            submit_time=float(s), start_time=float(s),
            end_time=float(s + rng.uniform(60, 3600)),
        )
        for i, s in enumerate(starts)
    ]

    timeline = benchmark(utilization_timeline, records, 36_000.0, 60.0)
    assert timeline.shape == (600,)
    assert timeline.max() > 0
