"""Per-layer attribution, measured from outside the simulator.

``Tracer.install`` wraps, at runtime, the public entry points of each
layer named after its module (``flownet``, ``blockfixer``, ``namenode``,
``hdfs``, ``mapreduce``, ``codec``, ``planner``, ``readservice``) plus
every callback handed to ``Simulation.schedule_at``.  Nothing under
``src/`` changes: the wrappers are installed on the classes of the
imported modules and removed by ``Tracer.uninstall``.

Every wrapped call is a span.  A span's *self* time is its duration
minus the time covered by spans it caused (callbacks run synchronously
inside it), so the self times of all spans plus the time outside every
span add up to the traced wall time exactly once.

Callbacks are grouped by the class that owns them: a bound method's
class, or the outermost class of a closure's qualified name
(``LightRepairTask.execute.<locals>.after_read`` belongs to
``LightRepairTask``).  Callbacks passed *through* a layer (the
``on_complete`` of a flow, the ``finish`` of a repair task) are wrapped
too, so a FlowTable completion that runs a repair task's continuation
charges that continuation to the blockfixer, not to the fabric.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

#: Owner class of a callback -> layer (module) it belongs to.
LAYER_OF_OWNER = {
    "FlowTable": "flownet",
    "BlockFixer": "blockfixer",
    "PayloadRepairBatch": "blockfixer",
    "LightRepairTask": "blockfixer.task",
    "StripeRepairTask": "blockfixer.task",
    "JobTracker": "mapreduce",
    "MapReduceJob": "mapreduce",
    "HadoopCluster": "hdfs",
    "NameNode": "namenode",
}

LAYERS = (
    "flownet",
    "blockfixer",
    "namenode",
    "hdfs",
    "mapreduce",
    "codec",
    "planner",
    "readservice",
    "other",
)


def owner_of(callback) -> str:
    """Class name owning ``callback`` (bound method or closure)."""
    bound = getattr(callback, "__self__", None)
    if bound is not None:
        return type(bound).__name__
    qualname = getattr(callback, "__qualname__", "")
    return qualname.split(".", 1)[0] if "." in qualname else "module"


def layer_of(key: str) -> str:
    """Layer that a span key (``layer.what``) is charged to."""
    head = key.split(".", 1)[0]
    return head if head in LAYERS else "other"


class Tracer:
    """Span accounting with self time, plus the counters layers expose."""

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.own: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Self seconds of each FlowTable-owned event callback.
        self.flow_callback_s: list[float] = []
        #: Calls of each event callback, by qualified name.
        self.callback_calls: Counter[str] = Counter()
        self.peak_flows = 0
        self.peak_backlog = 0
        self.tasks_launched = 0
        self.encode_bytes = 0
        # Child-time accumulators: [0] collects top-level span time.
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def span(self, key: str, fn, *args, **kwargs):
        stack = self._stack
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            child = stack.pop()
            stack[-1] += elapsed
            self.total[key] += elapsed
            self.own[key] += elapsed - child
            self.calls[key] += 1

    @property
    def top_level_s(self) -> float:
        """Seconds covered by top-level spans so far."""
        return self._stack[0]

    def traced_callback(self, callback):
        """``callback`` wrapped in a span charged to its owner's layer."""
        if callback is None or getattr(callback, "_traced", False):
            return callback
        owner = owner_of(callback)
        key = LAYER_OF_OWNER.get(owner, "other") + ".callback"
        name = getattr(callback, "__qualname__", owner)
        flow = owner == "FlowTable"

        def run(*args, **kwargs):
            self.callback_calls[name] += 1
            if not flow:
                return self.span(key, callback, *args, **kwargs)
            before = self.own[key]
            try:
                return self.span(key, callback, *args, **kwargs)
            finally:
                self.flow_callback_s.append(self.own[key] - before)

        run._traced = True
        return run

    # -- installation ----------------------------------------------------

    def _patch(self, cls, name: str, key, callbacks=(), after=None) -> None:
        """Wrap ``cls.name`` in a span (none if ``key`` is None) and wrap
        the callable arguments named in ``callbacks``."""
        original = cls.__dict__[name]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self
        positions = {
            arg: index
            for index, arg in enumerate(func.__code__.co_varnames[: func.__code__.co_argcount])
            if arg in callbacks
        }

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if positions:
                args = list(args)
                for arg, index in positions.items():
                    if arg in kwargs:
                        kwargs[arg] = tracer.traced_callback(kwargs[arg])
                    elif index < len(args):
                        args[index] = tracer.traced_callback(args[index])
            if key is None:
                return func(*args, **kwargs)
            result = tracer.span(key, func, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(cls, name, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((cls, name, original))

    def install(self) -> None:
        from repro.cluster.blockfixer import (
            BlockFixer,
            LightRepairTask,
            PayloadRepairBatch,
            StripeRepairTask,
        )
        from repro.cluster.flownet import FlowTable
        from repro.cluster.hdfs import HadoopCluster
        from repro.cluster.mapreduce import JobTracker, MapReduceJob
        from repro.cluster.namenode import NameNode
        from repro.cluster.readservice import (
            OutageWindows,
            ReadSchedule,
            ReadServiceEngine,
        )
        from repro.cluster.sim import Simulation
        from repro.codes.engine import CodecEngine, RepairPlanner

        def note_flows(args, _):
            self.peak_flows = max(self.peak_flows, args[0].active_flow_count)

        def note_backlog(args, _):
            self.peak_backlog = max(self.peak_backlog, len(args[0].in_repair))

        def note_launch(_, task):
            self.tasks_launched += task is not None

        def note_encode(args, _):
            self.encode_bytes += args[1].nbytes

        p = self._patch
        p(Simulation, "schedule_at", None, callbacks=("callback",))
        p(FlowTable, "start_transfer", "flownet.start_transfer",
          callbacks=("on_complete", "on_fail"), after=note_flows)
        p(FlowTable, "abort_node", "flownet.abort_node")
        p(HadoopCluster, "create_file", "hdfs.create_file")
        p(HadoopCluster, "raid_all_instant", "hdfs.raid")
        p(HadoopCluster, "fail_node", "hdfs.fail_node")
        p(HadoopCluster, "read_blocks", "hdfs.read_blocks",
          callbacks=("on_done", "on_fail"))
        p(HadoopCluster, "write_block", "hdfs.write_block",
          callbacks=("on_done", "on_fail"))
        p(NameNode, "repair_queue", "namenode.repair_queue")
        p(NameNode, "kill_node", "namenode.kill_node")
        p(NameNode, "detect_failures", "namenode.detect_failures")
        p(BlockFixer, "scan", "blockfixer.scan", after=note_backlog)
        p(PayloadRepairBatch, "schedule", "blockfixer.batch")
        p(LightRepairTask, "execute", "blockfixer.task.execute", callbacks=("finish",))
        p(StripeRepairTask, "execute", "blockfixer.task.execute", callbacks=("finish",))
        p(JobTracker, "submit", "mapreduce.submit")
        p(MapReduceJob, "take_task", "mapreduce.take_task", after=note_launch)
        p(CodecEngine, "encode_stripes", "codec.encode", after=note_encode)
        p(CodecEngine, "reconstruct", "codec.reconstruct")
        p(CodecEngine, "repair_stripes", "codec.repair_stripes")
        p(RepairPlanner, "plan_block", "planner.plan_block")
        p(RepairPlanner, "plan_stripe", "planner.plan_stripe")
        p(ReadSchedule, "draw", "readservice.draw")
        p(ReadServiceEngine, "__init__", "readservice.build")
        p(ReadServiceEngine, "run", "readservice.run")
        p(OutageWindows, "is_up", "readservice.is_up")

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._patches):
            setattr(cls, name, original)
        self._patches.clear()

    # -- read-out ----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer; ``blockfixer`` includes its tasks."""
        out = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.own.items():
            out[layer_of(key)] += seconds
        return out

    def prefix_own_s(self, prefix: str) -> float:
        return sum(s for key, s in self.own.items() if key.startswith(prefix))


def _rate(hits: float, misses: float) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def _percentile_us(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q / 100.0 * len(ordered)) - 1))
    return ordered[index] * 1e6


def per_layer(tracer: Tracer, result) -> dict[str, float]:
    """Every per-layer metric of one traced workload run.

    ``<layer>.<method>_s`` is the inclusive time of that method;
    ``<layer>.self_s`` is the layer's self time.  Rates and shares come
    with their bases (hit and miss counts, run seconds).
    """
    c = Counter(result.counters)  # a counter a workload lacks reads 0
    own = tracer.own
    total = tracer.total
    layer = tracer.layer_self_s()
    run_s = result.run_s
    flownet_s = layer["flownet"]
    encode_mb = tracer.encode_bytes / 1e6
    encode_s = total["codec.encode"]
    return {
        "sim.events": c["sim.events"],
        "sim.heap_rebuilds": c["sim.heap_rebuilds"],
        "sim.self_s": run_s - result.run_span_s,
        "sim.run_s": run_s,
        "flownet.reallocations": c["flownet.reallocations"],
        "flownet.admissions": c["flownet.admissions"],
        "flownet.admissions_coalesced": c["flownet.admissions_coalesced"],
        "flownet.settles": c["flownet.settles"],
        "flownet.self_s": flownet_s,
        "flownet.share": flownet_s / run_s if run_s > 0 else 0.0,
        "flownet.callbacks": len(tracer.flow_callback_s),
        "flownet.callback_us_p50": _percentile_us(tracer.flow_callback_s, 50),
        "flownet.callback_us_p99": _percentile_us(tracer.flow_callback_s, 99),
        "flownet.peak_flows": tracer.peak_flows,
        "blockfixer.scans": tracer.calls["blockfixer.scan"],
        "blockfixer.jobs": c["blockfixer.jobs"],
        "blockfixer.light_repairs": c["blockfixer.light_repairs"],
        "blockfixer.heavy_repairs": c["blockfixer.heavy_repairs"],
        "blockfixer.peak_backlog": tracer.peak_backlog,
        "blockfixer.self_s": layer["blockfixer"],
        "blockfixer.batch_s": own["blockfixer.batch"],
        "blockfixer.task_s": tracer.prefix_own_s("blockfixer.task"),
        "blockfixer.stripes_per_group": (
            c["blockfixer.batch_stripes"] / c["blockfixer.batch_groups"]
            if c["blockfixer.batch_groups"]
            else 0.0
        ),
        "blockfixer.batch_stripes": c["blockfixer.batch_stripes"],
        "blockfixer.batch_groups": c["blockfixer.batch_groups"],
        "namenode.self_s": layer["namenode"],
        "namenode.repair_queue_s": total["namenode.repair_queue"],
        "namenode.repair_queue_calls": tracer.calls["namenode.repair_queue"],
        "namenode.kill_node_s": total["namenode.kill_node"],
        "namenode.detect_failures_s": total["namenode.detect_failures"],
        "hdfs.self_s": layer["hdfs"],
        "hdfs.create_file_s": total["hdfs.create_file"],
        "hdfs.raid_s": total["hdfs.raid"],
        "hdfs.read_blocks_s": total["hdfs.read_blocks"],
        "hdfs.write_block_s": total["hdfs.write_block"],
        "mapreduce.self_s": layer["mapreduce"],
        "mapreduce.take_task_s": total["mapreduce.take_task"],
        "mapreduce.passes": tracer.callback_calls["JobTracker._assignment_pass"],
        "mapreduce.tasks_launched": tracer.tasks_launched,
        "mapreduce.failed_attempts": c["mapreduce.failed_attempts"],
        "codec.self_s": layer["codec"],
        "codec.encode_s": encode_s,
        "codec.encode_mb": encode_mb,
        "codec.encode_mb_per_s": encode_mb / encode_s if encode_s > 0 else 0.0,
        "codec.reconstruct_s": total["codec.reconstruct"],
        "codec.reconstruct_calls": c["codec.reconstruct_calls"],
        "codec.repair_stripes_s": total["codec.repair_stripes"],
        "codec.decoder_hit_rate": _rate(c["codec.decoder_hits"], c["codec.decoder_misses"]),
        "codec.decoder_hits": c["codec.decoder_hits"],
        "codec.decoder_misses": c["codec.decoder_misses"],
        "codec.schedule_hit_rate": _rate(c["codec.schedule_hits"], c["codec.schedule_misses"]),
        "codec.schedule_hits": c["codec.schedule_hits"],
        "codec.schedule_misses": c["codec.schedule_misses"],
        "codec.xor_plane_calls": c["codec.xor_plane_calls"],
        "planner.self_s": layer["planner"],
        "planner.plan_block_calls": tracer.calls["planner.plan_block"],
        "planner.plan_block_s": total["planner.plan_block"],
        "planner.hit_rate": _rate(c["planner.hits"], c["planner.misses"]),
        "planner.hits": c["planner.hits"],
        "planner.misses": c["planner.misses"],
        "planner.evictions": c["planner.evictions"],
        "readservice.self_s": layer["readservice"],
        "readservice.draw_s": total["readservice.draw"],
        "readservice.is_up_s": total["readservice.is_up"],
        "readservice.run_s": total["readservice.run"],
        "readservice.distinct_patterns": c["readservice.distinct_patterns"],
        "readservice.degraded_reads": c["readservice.degraded_reads"],
        "other.self_s": layer["other"],
    }
