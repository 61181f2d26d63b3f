"""End-to-end benchmark of the paper's experiments.

Runs one workload in repeated fresh processes (``worker.py``) for about
``--seconds`` seconds, checks every scheme run's output, and prints as
its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the full record:
the environment stamp, every repetition, and the accuracy figures.

    python3 e2ebench/run.py --workload ec2_fig4 --seed 0 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, medians over untraced
repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics (medians over traced repetitions)
plus ``trace.overhead``.  See ``NOTES.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("ec2_fig4", "ec2_fullbytes", "degraded_skewed")

#: Fewest repetitions a run makes, however short ``--seconds`` is.
MIN_REPS = 2
#: A single repetition that takes longer than this is a hang.
REP_TIMEOUT_S = 150

#: Accuracy metric -> paper system whose blocks-read-per-lost-block
#: reference (``PAPER_BLOCKS_READ_PER_LOST``) it is measured against.
ACCURACY_METRICS = {
    "read_per_lost_err_rs": "HDFS-RS",
    "read_per_lost_err_xorbas": "HDFS-Xorbas",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "reads_per_s": "1/s",
    "peak_rss_mb": "MB",
    "read_per_lost_err_rs": "ratio",
    "read_per_lost_err_xorbas": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_us_p50", "_us_p99")):
        return "us"
    if name.endswith(("_rate", ".share", ".overhead", ".stripes_per_group")):
        return "ratio"
    return "count"


# -- environment stamp --------------------------------------------------------


def commit_of(root: Path) -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: Path) -> str:
    """Digest of every file under ``src``: identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- repetitions ----------------------------------------------------------------


def run_rep(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # One thread per native library: well under nproc, and steadier.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
    ]
    done = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=REP_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"worker exited with {done.returncode}")
    rep = json.loads(done.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    return rep


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repeat until another repetition would overrun ``seconds``."""
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(run_rep(workload, seed, traced=trace and len(reps) % 2 == 1))
        last = time.monotonic() - began
        if len(reps) < MIN_REPS or (trace and len(reps) % 2):
            continue
        step = 2 * last if trace else last
        if time.monotonic() - start + step > seconds:
            return reps


# -- checking and reporting -----------------------------------------------------


def check(reps: list[dict], expected: dict[str, str] | None) -> tuple[int, int, list[str]]:
    """Count failed scheme runs; ``expected`` maps scheme -> digest.

    With no stored reference for this seed, the first repetition's
    digests are expected of every other one, traced ones included: the
    invariants in ``workloads.py`` are then the oracle.
    """
    if expected is None:
        expected = {op["scheme"]: op["digest"] for op in reps[0]["ops"]}
    attempted = failed = 0
    problems: list[str] = []
    for index, rep in enumerate(reps):
        problems += [f"rep {index}: isolation: {p}" for p in rep["isolation"]]
        for op in rep["ops"]:
            attempted += 1
            bad = list(op["problems"])
            if op["digest"] != expected.get(op["scheme"]):
                bad.append(
                    f"digest {op['digest']} != expected {expected.get(op['scheme'])}"
                )
            if bad:
                failed += 1
                problems += [f"rep {index} {op['scheme']}: {p}" for p in bad]
    return attempted, failed, problems


def per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def relative_errors(rep: dict) -> dict[str, float]:
    return {
        scheme: value / rep["paper"][scheme] - 1.0
        for scheme, value in rep["accuracy"].items()
    }


def end_to_end(reps: list[dict]) -> dict[str, float]:
    median = statistics.median
    metrics = {
        "wall_s": median(r["wall_s"] for r in reps),
        "setup_s": median(r["setup_s"] for r in reps),
        "events_per_s": median(per_second(r["events"], r["run_s"]) for r in reps),
        "reads_per_s": median(per_second(r["reads"], r["run_s"]) for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }
    errors = relative_errors(reps[0])
    for name, scheme in ACCURACY_METRICS.items():
        # 1 + |relative error|: never 0, and 1.0 is exact agreement.
        # A scheme run that raised leaves no figure; the run then
        # counts as failed and the 0.0 only fills the slot.
        metrics[name] = 1.0 + abs(errors[scheme]) if scheme in errors else 0.0
    return metrics


def layer_metrics(reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this seed's digests as the workload's reference",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reference = json.loads(REFERENCE.read_text())
    reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.write_reference:
        digests = {op["scheme"]: op["digest"] for op in reps[0]["ops"]}
        reference["digests"].setdefault(args.workload, {})[str(args.seed)] = digests
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    expected = reference["digests"].get(args.workload, {}).get(str(args.seed))
    attempted, failed, problems = check(reps, expected)
    untraced = [r for r in reps if not r["traced"]]
    if args.trace:
        values = layer_metrics(reps)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS

    first = untraced[0]
    errors = relative_errors(first)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "commit": commit_of(ROOT),
            "source_sha256": source_sha256(ROOT),
            "python": first["python"],
            "numpy": first["numpy"],
            "nproc": nproc(),
            "cpu_model": cpu_model(),
            "native_threads": 1,
        },
        "reference_seed": expected is not None,
        "accuracy": {
            scheme: {
                "measured": value,
                "paper": first["paper"][scheme],
                "relative_error": errors[scheme],
            }
            for scheme, value in first["accuracy"].items()
        },
        "accuracy_validated": first["accuracy_validated"],
        "problems": problems,
        "reps": [
            {key: rep[key] for key in ("traced", "wall_s", "setup_s", "run_s", "events", "reads", "peak_rss_mb")}
            | {"digests": {op["scheme"]: op["digest"] for op in rep["ops"]}}
            for rep in reps
        ],
    }
    print(json.dumps({"record": record}))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in values
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
