"""The eleven spec/engine pairs, declared in one place.

Importing :mod:`repro.difftest` registers every pair, so
:func:`~repro.difftest.registry.engine_matrix` is the single source of
truth for reprolint's conformance rules and the CI bench-regression
baseline's gated-metric list.

Registrations are metadata only (dotted names and CI gate); nothing
dispatches on them.  The cluster simulator constructs its engines
directly, and its specs run only in differential tests and gated
benches.
"""

from __future__ import annotations

from .registry import register_engine_pair

register_engine_pair(
    "montecarlo",
    spec="repro.reliability.montecarlo.simulate_time_to_absorption",
    engine="repro.reliability.montecarlo.simulate_times_to_absorption",
    gate="montecarlo_batched_speedup",
)

register_engine_pair(
    "codec",
    spec="repro.codes.base.ErasureCode.decode",
    engine="repro.codes.engine.CodecEngine",
    gate="codec_engine_speedup",
)

register_engine_pair(
    "xorplane",
    spec="repro.codes.cauchy.xor_encode",
    engine="repro.codes.xorplane.XorSchedule",
    gate="xor_plane_speedup",
)

register_engine_pair(
    "blockindex",
    spec="repro.cluster.namenode.DictNameNode",
    engine="repro.cluster.namenode.NameNode",
    gate="blockindex_speedup",
)

register_engine_pair(
    "network",
    spec="repro.cluster.network.Network",
    engine="repro.cluster.flownet.FlowTable",
    gate="network_speedup",
)

register_engine_pair(
    "readservice",
    spec="repro.cluster.degraded.DegradedReadSimulation",
    engine="repro.cluster.readservice.ReadServiceEngine",
    gate="readservice_speedup",
)

register_engine_pair(
    "scrubber",
    spec="repro.cluster.integrity.Scrubber",
    engine="repro.cluster.scrubengine.ScrubEngine",
    gate="scrubber_speedup",
)

register_engine_pair(
    "decommission",
    spec="repro.cluster.decommission.plan_recreates_seed",
    engine="repro.cluster.decommission.plan_recreates_vectorized",
    gate="decommission_speedup",
)

register_engine_pair(
    "mapreduce",
    spec="repro.cluster.fairscheduler.plan_pass_seed",
    engine="repro.cluster.fairscheduler.plan_pass_vectorized",
    gate="fairscheduler_speedup",
)

register_engine_pair(
    "recovery",
    spec="repro.recovery.equivalence.run_uninterrupted",
    engine="repro.recovery.equivalence.run_with_kill_resume",
    gate="recovery_resume_speedup",
)

register_engine_pair(
    "raidnode",
    spec="repro.cluster.raidscan.scan_candidates_seed",
    engine="repro.cluster.raidscan.RaidScanIndex",
    gate="raidnode_speedup",
)
