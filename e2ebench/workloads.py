"""The three workloads, run in-process against the public API.

Each workload runs its schemes one after another and returns a
``WorkloadResult``: host timings of the setup and run phases, the work
done, one ``Op`` per scheme run (its output digest and any broken
invariant), the accuracy figures, and the raw counters the layers
expose.  Nothing here goes through ``ResultCache`` or ``parallel_map``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

from repro.cluster import EC2_FAILURE_PATTERN, ec2_config
from repro.cluster.degraded import DegradedReadConfig
from repro.cluster.readservice import ReadSchedule, ReadServiceEngine
from repro.experiments import runner
from repro.experiments.degraded import DEGRADED_SCHEME_CODES
from repro.experiments.ec2 import (
    EC2_FILE_SIZE,
    EC2_SCHEME_CODES,
    EC2ExperimentResult,
    fig6_slopes,
)

SECONDS_PER_DAY = 86400.0
DEGRADED_DAYS = 30
DEGRADED_READS = 5_000_000

#: Default ``DegradedReadConfig`` (50 nodes, 200 stripes) with 5M reads
#: over 30 simulated days, Zipf 1.1 popularity, diurnal amplitude 0.5
#: and a 5-rack correlated outage process.
DEGRADED_CONFIG = DegradedReadConfig(
    duration=DEGRADED_DAYS * SECONDS_PER_DAY,
    read_rate=DEGRADED_READS / (DEGRADED_DAYS * SECONDS_PER_DAY),
    zipf_exponent=1.1,
    diurnal_amplitude=0.5,
    num_racks=5,
)

#: Which degraded-read scheme stands in for which paper system when the
#: read path's reconstruction cost is set against the Fig 6 references.
DEGRADED_PAPER_SCHEME = {"RS(10,4)": "HDFS-RS", "LRC(10,6,5)": "HDFS-Xorbas"}


def _fmt(value: float) -> str:
    """Ten significant digits: far above the ~1e-15 relative wobble that
    FlowTable's documented float re-association of accumulators can
    cause, so the digest cannot flip on it."""
    return f"{value:.10g}"


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One scheme run: the unit that is attempted and may fail."""

    scheme: str
    digest: str = ""
    problems: list[str] = field(default_factory=list)


@dataclass
class WorkloadResult:
    wall_s: float = 0.0
    setup_s: float = 0.0
    #: Simulated events (ec2: event-loop callbacks; degraded: the reads
    #: and outage windows the event-driven spec would process).
    events: int = 0
    #: Block reads served (ec2: HDFS blocks read by repair; degraded:
    #: client reads replayed).
    reads: int = 0
    ops: list[Op] = field(default_factory=list)
    #: paper system -> blocks read per lost block, measured.
    accuracy: dict[str, float] = field(default_factory=dict)
    #: False where the paper gives no reference for what was measured.
    accuracy_validated: bool = True
    counters: dict[str, float] = field(default_factory=dict)
    #: Top-level span seconds inside the run phase (traced runs only).
    run_span_s: float = 0.0

    @property
    def run_s(self) -> float:
        return self.wall_s - self.setup_s


def _add(counters: dict, values: dict) -> None:
    for key, value in values.items():
        counters[key] = counters.get(key, 0) + value


def _codec_counters(counters: dict, code) -> None:
    planner = code.planner.cache
    _add(
        counters,
        {
            "planner.hits": planner.hits,
            "planner.misses": planner.misses,
            "planner.evictions": planner.evictions,
        },
    )
    engine = getattr(code, "engine", None)
    if engine is None:
        return
    stats = engine.stats()
    _add(
        counters,
        {
            "codec.reconstruct_calls": stats.reconstruct_calls,
            "codec.stripes_encoded": stats.stripes_encoded,
            "codec.decoder_hits": stats.cache_hits,
            "codec.decoder_misses": stats.cache_misses,
            "codec.schedule_hits": stats.schedule_hits,
            "codec.schedule_misses": stats.schedule_misses,
            "codec.xor_plane_calls": stats.xor_plane_calls,
        },
    )


# -- the EC2 failure schedule ------------------------------------------------


def _ec2_problems(run) -> list[str]:
    """Invariants every seed must satisfy, reference or held out."""
    cluster, fixer = run.cluster, run.fixer
    problems = []
    fsck = cluster.fsck()
    if fsck["missing_blocks"] > len(cluster.data_loss_events):
        problems.append(
            f"fsck: {fsck['missing_blocks']} missing blocks beyond "
            f"{len(cluster.data_loss_events)} recorded lost"
        )
    jobs_done = all(job.is_finished for job in cluster.jobtracker.jobs)
    if cluster.namenode.detection_pending() or not fixer.idle or not jobs_done:
        problems.append("the quiescence wait did not complete")
    return problems


def _ec2_digest(run) -> str:
    cluster = run.cluster
    return digest(
        {
            "events": [
                [
                    e.blocks_lost,
                    _fmt(e.hdfs_bytes_read),
                    _fmt(e.network_out_bytes),
                    _fmt(e.repair_duration),
                    e.light_repairs,
                    e.heavy_repairs,
                ]
                for e in run.events
            ],
            "fsck": cluster.fsck(),
            "data_loss": len(cluster.data_loss_events),
        }
    )


def run_ec2(num_files: int, payload_bytes: int, seed: int, tracer=None) -> WorkloadResult:
    """The Fig 4 schedule, HDFS-RS then HDFS-Xorbas, on 50 slaves."""
    config = ec2_config(num_nodes=50).scaled(payload_bytes=payload_bytes)
    sizes = [EC2_FILE_SIZE] * num_files
    result = WorkloadResult()
    counters = result.counters
    build = runner.build_loaded_cluster
    marks: dict[str, float] = {}

    def timed_build(*args, **kwargs):
        start = perf_counter()
        cluster = build(*args, **kwargs)
        marks["setup"] = perf_counter() - start
        marks["spans"] = tracer.top_level_s if tracer else 0.0
        return cluster

    runs = []
    runner.build_loaded_cluster = timed_build
    try:
        for scheme, make_code in EC2_SCHEME_CODES.items():
            op = Op(scheme)
            result.ops.append(op)
            code = make_code()
            start = perf_counter()
            try:
                run = runner.run_failure_schedule(
                    scheme, code, config, sizes, EC2_FAILURE_PATTERN, seed=seed
                )
            except Exception as exc:  # a raising scheme run is a failed op
                op.problems.append(f"raised {type(exc).__name__}: {exc}")
                continue
            result.wall_s += perf_counter() - start
            result.setup_s += marks["setup"]
            if tracer:
                result.run_span_s += tracer.top_level_s - marks["spans"]
            runs.append(run)
            op.digest = _ec2_digest(run)
            op.problems += _ec2_problems(run)
            cluster = run.cluster
            network = cluster.network
            result.events += cluster.sim.events_processed
            result.reads += round(cluster.metrics.hdfs_bytes_read / config.block_size)
            _add(
                counters,
                {
                    "sim.events": cluster.sim.events_processed,
                    "sim.heap_rebuilds": cluster.sim.heap_rebuilds,
                    "flownet.reallocations": network.reallocations,
                    "flownet.admissions": network.admissions,
                    "flownet.admissions_coalesced": network.admissions_coalesced,
                    "flownet.settles": network.settles,
                    "blockfixer.jobs": run.fixer.jobs_dispatched,
                    "blockfixer.light_repairs": sum(e.light_repairs for e in run.events),
                    "blockfixer.heavy_repairs": sum(e.heavy_repairs for e in run.events),
                    "blockfixer.batch_groups": run.fixer.payload_batch_groups,
                    "blockfixer.batch_stripes": run.fixer.payload_batch_stripes,
                    "mapreduce.failed_attempts": sum(
                        job.failed_attempts for job in cluster.jobtracker.jobs
                    ),
                },
            )
            _codec_counters(counters, code)
    finally:
        runner.build_loaded_cluster = build
    if len(runs) == 2:
        pair = EC2ExperimentResult(num_files=num_files, rs=runs[0], xorbas=runs[1])
        slopes = fig6_slopes([pair])
        result.accuracy = {s: v["blocks_read_per_lost"] for s, v in slopes.items()}
        if not result.accuracy["HDFS-Xorbas"] < result.accuracy["HDFS-RS"]:
            result.ops[1].problems.append(
                "Xorbas blocks-read-per-lost slope is not below the RS slope"
            )
    return result


# -- degraded reads through the vectorized read service ---------------------


def _degraded_digest(stats) -> str:
    return digest(
        {
            "reads": stats.total_reads,
            "failed": stats.failed_reads,
            "degraded_fraction": _fmt(stats.degraded_fraction),
            "availability": _fmt(stats.availability),
        }
    )


def run_degraded(seed: int, tracer=None) -> WorkloadResult:
    """3-replication, RS(10,4) and LRC(10,6,5) on the skewed read mix."""
    config = DEGRADED_CONFIG
    # The Fig 6 references are repair reads; set against the read path's
    # reconstruction cost they are an analog, not a validation.
    result = WorkloadResult(accuracy_validated=False)
    counters = result.counters
    availability = {}
    total_reads = set()
    for scheme, make_code in DEGRADED_SCHEME_CODES.items():
        op = Op(scheme)
        result.ops.append(op)
        code = make_code()
        start = perf_counter()
        try:
            schedule = ReadSchedule.draw(config, code, seed)
            engine = ReadServiceEngine(code, config=config, seed=seed, schedule=schedule)
            built = perf_counter()
            spans = tracer.top_level_s if tracer else 0.0
            stats = engine.run()
        except Exception as exc:  # a raising scheme run is a failed op
            op.problems.append(f"raised {type(exc).__name__}: {exc}")
            continue
        end = perf_counter()
        result.wall_s += end - start
        result.setup_s += built - start
        if tracer:
            result.run_span_s += tracer.top_level_s - spans
        availability[scheme] = stats.availability
        total_reads.add(stats.total_reads)
        op.digest = _degraded_digest(stats)
        if not stats.total_reads or not 0.0 < stats.availability <= 1.0:
            op.problems.append(f"availability {stats.availability} outside (0, 1]")
        result.events += schedule.num_reads + schedule.num_outages
        result.reads += stats.total_reads
        _add(
            counters,
            {
                "readservice.distinct_patterns": engine.distinct_patterns,
                "readservice.degraded_reads": stats.degraded_reads,
            },
        )
        _codec_counters(counters, code)
        if scheme in DEGRADED_PAPER_SCHEME and stats.degraded_latencies:
            # A degraded read's latency is blocks fetched * block_size /
            # node_bandwidth, so this is blocks fetched per degraded read.
            result.accuracy[DEGRADED_PAPER_SCHEME[scheme]] = (
                stats.mean_degraded_latency * config.node_bandwidth / config.block_size
            )
    if len(availability) == len(DEGRADED_SCHEME_CODES):
        if len(total_reads) != 1:
            result.ops[-1].problems.append(
                f"schemes saw different read counts {sorted(total_reads)}"
            )
        if not availability["LRC(10,6,5)"] > availability["RS(10,4)"]:
            result.ops[-1].problems.append("LRC availability is not above RS")
    return result


#: name -> (runner, keyword arguments).
WORKLOADS = {
    "ec2_fig4": (run_ec2, {"num_files": 200, "payload_bytes": 64}),
    "ec2_fullbytes": (run_ec2, {"num_files": 100, "payload_bytes": 65536}),
    "degraded_skewed": (run_degraded, {}),
}
