"""Degraded-read service under transient node outages.

Section 1.1 lists degraded reads first among the reasons efficient
repair matters: "transient errors with no permanent data loss
correspond to 90% of data center failure events", and while a node is
transiently down, reads of its blocks must reconstruct the data in
memory — a repair whose output is never written to disk.  Section 4
closes by noting LRCs "will have higher availability due to these
faster degraded reads" and leaves the full study as future work; this
module is that study, at simulation scale.

The model: nodes suffer transient outages (Poisson arrivals, exponential
durations); clients issue Poisson reads over uniformly random blocks.
A read of an available block costs one block fetch.  A read of an
unavailable block triggers an in-memory reconstruction: the client
fetches the light-decoder read set in parallel — or ``k`` blocks when
the light decoder cannot run — and XOR/solves locally, so its latency
is the transfer of ``reads`` blocks over the client NIC.  Reads that
exceed the timeout count as unavailability, which is how the paper's
availability discussion connects to the Ford et al. [9] metric.

This event-driven implementation is the *executable specification*;
``repro.cluster.readservice`` is its vectorized twin for million-read
horizons, held element-identical by differential tests on shared
:class:`~repro.cluster.readservice.ReadSchedule` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..codes.base import ErasureCode
from .metrics import percentile
from .sim import Simulation

__all__ = [
    "DegradedReadConfig",
    "ReadServiceStats",
    "DegradedReadSimulation",
    "compare_degraded_reads",
    "draw_placement",
]

MB = 1e6


def draw_placement(
    config: DegradedReadConfig, code: ErasureCode, rng: np.random.Generator
) -> np.ndarray:
    """``placement[stripe, position] = node``, all-distinct per stripe.

    Shared by the event-driven spec and the vectorized engine so both
    see identical layouts for the same placement stream.
    """
    placement = np.zeros((config.num_stripes, code.n), dtype=np.int64)
    # One choice() per stripe is the draw-sequence contract: vectorizing
    # would consume the stream differently and break layout equality
    # between spec and engine for an existing seed.
    for stripe in range(config.num_stripes):  # reprolint: disable=RL002
        placement[stripe] = rng.choice(
            config.num_nodes, size=code.n, replace=False
        )
    return placement


@dataclass(frozen=True)
class DegradedReadConfig:
    """Tunables of the degraded-read experiment.

    The scenario knobs below the timeout widen the workload beyond the
    stationary/uniform seed model: a Zipf hot/cold stripe popularity
    skew, a diurnal (24 h sinusoid) modulation of the read rate, and
    correlated rack-level outages that take a whole rack's nodes down
    together.  They are schedule-level features — non-default values are
    drawn by the vectorized :class:`~repro.cluster.readservice.ReadSchedule`
    generator, which both the event-driven spec and the vectorized
    engine consume.
    """

    num_nodes: int = 50
    num_stripes: int = 200
    block_size: float = 64 * MB
    node_bandwidth: float = 12 * MB  # client NIC, bytes/second
    read_rate: float = 2.0  # client reads per second, cluster-wide
    outage_rate_per_node: float = 1.0 / (12 * 3600.0)  # ~2 outages/node/day
    outage_duration_mean: float = 900.0  # 15-minute transient events
    # Between the LRC light reconstruction (r blocks) and the RS heavy
    # one (k blocks) at the default NIC speed, so the timeout separates
    # the schemes the way Ford et al.'s availability metric would.
    read_timeout: float = 45.0
    duration: float = 6 * 3600.0  # simulated seconds
    # -- scenario knobs ----------------------------------------------------
    zipf_exponent: float = 0.0  # 0 = uniform stripe popularity
    diurnal_amplitude: float = 0.0  # 0 = stationary read rate, < 1
    num_racks: int = 0  # 0 = no rack-level outage process
    rack_outage_rate: float = 1.0 / (24 * 3600.0)  # per rack
    rack_outage_duration_mean: float = 600.0

    def validate(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.num_stripes < 1:
            raise ValueError("need at least one stripe")
        if min(self.block_size, self.node_bandwidth, self.read_rate) <= 0:
            raise ValueError("sizes, bandwidth and rates must be positive")
        if min(self.outage_rate_per_node, self.outage_duration_mean) <= 0:
            raise ValueError("outage rate and mean duration must be positive")
        if self.read_timeout <= 0:
            raise ValueError("read timeout must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.zipf_exponent < 0:
            raise ValueError("Zipf exponent must be non-negative")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1)")
        if self.num_racks < 0 or self.num_racks > self.num_nodes:
            raise ValueError("num_racks must be in [0, num_nodes]")
        if self.num_racks and (
            min(self.rack_outage_rate, self.rack_outage_duration_mean) <= 0
        ):
            raise ValueError("rack outage rate and mean duration must be positive")

    @property
    def uses_scenarios(self) -> bool:
        """True when any scenario knob departs from the seed model."""
        return (
            self.zipf_exponent > 0
            or self.diurnal_amplitude > 0
            or self.num_racks > 0
        )


@dataclass
class ReadServiceStats:
    """Aggregated read-path metrics for one scheme."""

    scheme: str = ""
    total_reads: int = 0
    degraded_reads: int = 0
    failed_reads: int = 0
    timed_out_reads: int = 0
    latencies: list[float] = field(default_factory=list)
    degraded_latencies: list[float] = field(default_factory=list)

    @property
    def degraded_fraction(self) -> float:
        """NaN for an empty window: a fraction of no reads is not 0."""
        if not self.total_reads:
            return math.nan
        return self.degraded_reads / self.total_reads

    @property
    def availability(self) -> float:
        """Fraction of reads served within the timeout; NaN when no
        reads arrived (an empty window is not a perfectly available
        one — the PR 3 empty-window convention)."""
        if not self.total_reads:
            return math.nan
        bad = self.timed_out_reads + self.failed_reads
        return 1.0 - bad / self.total_reads

    @property
    def mean_latency(self) -> float:
        """Mean read latency; NaN for an empty window (no reads is not
        the same observation as instant reads)."""
        return float(np.mean(self.latencies)) if self.latencies else math.nan

    @property
    def mean_degraded_latency(self) -> float:
        if not self.degraded_latencies:
            return math.nan
        return float(np.mean(self.degraded_latencies))

    def percentile_latency(self, q: float) -> float:
        return percentile(self.latencies, q)

    @classmethod
    def from_arrays(
        cls,
        scheme: str,
        latencies: np.ndarray,
        degraded: np.ndarray,
        failed_reads: int,
        read_timeout: float,
    ) -> "ReadServiceStats":
        """Batched accounting: build the stats from served-read arrays.

        ``latencies`` holds every *served* read in arrival order and
        ``degraded`` marks which of those took the reconstruction path;
        counters and the timeout census are single vectorized passes.
        """
        lat = np.asarray(latencies, dtype=np.float64)
        deg = np.asarray(degraded, dtype=bool)
        if lat.shape != deg.shape:
            raise ValueError("latency and degraded arrays must align")
        return cls(
            scheme=scheme,
            total_reads=int(lat.size) + int(failed_reads),
            degraded_reads=int(deg.sum()),
            failed_reads=int(failed_reads),
            timed_out_reads=int((lat > read_timeout).sum()),
            latencies=lat.tolist(),
            degraded_latencies=lat[deg].tolist(),
        )


class DegradedReadSimulation:
    """Event-driven degraded-read experiment for one erasure code.

    Stripes are placed round-robin with all blocks of a stripe on
    distinct nodes (the paper's placement policy).  The simulation is
    fully deterministic given the seed.
    """

    def __init__(
        self,
        code: ErasureCode,
        config: DegradedReadConfig | None = None,
        seed: int = 0,
        schedule: "ReadSchedule | None" = None,
    ):
        self.config = config or DegradedReadConfig()
        self.config.validate()
        if code.n > self.config.num_nodes:
            raise ValueError(
                f"stripes of {code.n} blocks need at least that many nodes"
            )
        self.code = code
        # Independent streams per concern, so two simulations with the
        # same seed see identical outage windows and read arrival times
        # even when their codes have different n (and thus consume a
        # different number of placement draws).
        placement_seed, outage_seed, read_seed = np.random.SeedSequence(
            seed
        ).spawn(3)
        self.placement_rng = np.random.default_rng(placement_seed)
        self.outage_rng = np.random.default_rng(outage_seed)
        self.read_rng = np.random.default_rng(read_seed)
        self.sim = Simulation()
        self.stats = ReadServiceStats(scheme=getattr(code, "name", repr(code)))
        self.node_down_until = np.zeros(self.config.num_nodes)
        # placement[stripe, position] = node hosting that block.
        self.placement = draw_placement(self.config, code, self.placement_rng)
        if schedule is None and self.config.uses_scenarios:
            # Scenario knobs (Zipf/diurnal/rack outages) are drawn by
            # the vectorized generator; both engines consume the result.
            from .readservice import ReadSchedule

            schedule = ReadSchedule.draw(self.config, code, seed)
        if schedule is not None:
            schedule.check(self.config, code)
        #: The outage windows and read arrivals this run will replay.
        #: ``None`` until drawn — the seed's legacy interleaved draw
        #: happens at :meth:`run` time, exactly as the seed consumed it.
        self.schedule = schedule

    # -- event generators ---------------------------------------------------

    def _draw_legacy_schedule(self) -> "ReadSchedule":
        """The seed's interleaved RNG consumption, captured as arrays.

        Draw order is bit-for-bit the seed implementation's — per node:
        gap, duration, gap, ... until the horizon; then per read: gap,
        stripe, position — so seeded results are unchanged, while the
        drawn schedule becomes inspectable and replayable.
        """
        from .readservice import ReadSchedule

        cfg = self.config
        outage_nodes: list[int] = []
        outage_starts: list[float] = []
        outage_durations: list[float] = []
        for node in range(cfg.num_nodes):
            t = 0.0
            while True:
                t += self.outage_rng.exponential(1.0 / cfg.outage_rate_per_node)
                if t >= cfg.duration:
                    break
                duration = self.outage_rng.exponential(cfg.outage_duration_mean)
                outage_nodes.append(node)
                outage_starts.append(t)
                outage_durations.append(duration)
        read_times: list[float] = []
        read_stripes: list[int] = []
        read_positions: list[int] = []
        t = 0.0
        while True:
            t += self.read_rng.exponential(1.0 / cfg.read_rate)
            if t >= cfg.duration:
                break
            stripe = int(self.read_rng.integers(cfg.num_stripes))
            position = (
                int(self.read_rng.integers(self.code.k)) if self.code.k > 1 else 0
            )
            read_times.append(t)
            read_stripes.append(stripe)
            read_positions.append(position)
        return ReadSchedule(
            outage_node=np.asarray(outage_nodes, dtype=np.int64),
            outage_start=np.asarray(outage_starts, dtype=np.float64),
            outage_duration=np.asarray(outage_durations, dtype=np.float64),
            read_time=np.asarray(read_times, dtype=np.float64),
            read_stripe=np.asarray(read_stripes, dtype=np.int64),
            read_position=np.asarray(read_positions, dtype=np.int64),
        )

    def _schedule_outages(self, schedule: "ReadSchedule") -> None:
        """Queue each node's outage windows over the horizon."""
        for node, start, duration in zip(
            schedule.outage_node.tolist(),
            schedule.outage_start.tolist(),
            schedule.outage_duration.tolist(),
        ):
            self.sim.schedule_at(start, self._make_outage(node, duration))

    def _make_outage(self, node: int, duration: float):
        def begin() -> None:
            until = self.sim.now + duration
            if until > self.node_down_until[node]:
                self.node_down_until[node] = until

        return begin

    def _schedule_reads(self, schedule: "ReadSchedule") -> None:
        for t, stripe, position in zip(
            schedule.read_time.tolist(),
            schedule.read_stripe.tolist(),
            schedule.read_position.tolist(),
        ):
            self.sim.schedule_at(t, self._make_read(stripe, position))

    # -- the read path --------------------------------------------------------

    def _is_up(self, node: int) -> bool:
        return self.node_down_until[node] <= self.sim.now

    def _make_read(self, stripe: int, position: int):
        def serve() -> None:
            self._serve_read(stripe, position)

        return serve

    def _serve_read(self, stripe: int, position: int) -> None:
        cfg = self.config
        base_latency = cfg.block_size / cfg.node_bandwidth
        self.stats.total_reads += 1
        if self._is_up(int(self.placement[stripe, position])):
            self._record(base_latency, degraded=False)
            return
        # Degraded path: reconstruct from available stripe members.  The
        # code's RepairPlanner makes the light-vs-heavy call (and memoises
        # it per outage pattern); the in-memory client reads k blocks when
        # forced onto the heavy decoder.
        available = [
            pos
            for pos in range(self.code.n)
            if pos != position and self._is_up(int(self.placement[stripe, pos]))
        ]
        decision = self.code.planner.plan_block(position, available)
        if decision.light:
            reads = decision.num_reads
        elif decision.feasible:
            reads = self.code.k
        else:
            self.stats.failed_reads += 1
            return
        latency = reads * cfg.block_size / cfg.node_bandwidth
        self._record(latency, degraded=True)

    def _record(self, latency: float, degraded: bool) -> None:
        self.stats.latencies.append(latency)
        if degraded:
            self.stats.degraded_reads += 1
            self.stats.degraded_latencies.append(latency)
        if latency > self.config.read_timeout:
            self.stats.timed_out_reads += 1

    # -- driver -----------------------------------------------------------------

    def run(self) -> ReadServiceStats:
        if self.schedule is None:
            self.schedule = self._draw_legacy_schedule()
        self._schedule_outages(self.schedule)
        self._schedule_reads(self.schedule)
        self.sim.run()
        return self.stats


def compare_degraded_reads(
    codes: list[ErasureCode],
    config: DegradedReadConfig | None = None,
    seed: int = 0,
    engine: str = "event",
) -> list[ReadServiceStats]:
    """Run the same outage/read schedule against several schemes.

    Identical seeds give identical outage windows and read arrivals, so
    differences between rows are attributable to the codes alone — the
    same controlled-comparison discipline as the paper's paired EC2
    clusters.  ``engine`` selects the implementation: ``"event"`` is the
    seed's event-driven spec, ``"vectorized"`` the batched
    :class:`~repro.cluster.readservice.ReadServiceEngine` (the one that
    makes million-read horizons practical).  Both uphold the contract —
    every code sees the same outage windows and read arrival times.
    """
    if engine not in ("event", "vectorized"):
        raise ValueError(f"unknown engine {engine!r} (event or vectorized)")
    if engine == "vectorized":
        from .readservice import ReadServiceEngine

        return [
            ReadServiceEngine(code, config=config, seed=seed).run()
            for code in codes
        ]
    return [
        DegradedReadSimulation(code, config=config, seed=seed).run()
        for code in codes
    ]
