"""meshbool benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload spheres-fine --seed 1 --seconds 20 --trace 0

Run from the repository root; meshbool is imported from ./src. Every op is
`meshbool.cli.main(["all", A, B, "-o", DIR])` in this process with the CLI
defaults, one after another, as a user would run it. Each op's outputs are
checked by bench/check.py. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

--trace 0  end-to-end metrics, tracing off:
  pass_s       median wall seconds of one pass over the workload's ops
  peak_rss_mb  peak resident-memory growth of this process during its first
               op, read before that op's outputs are checked (RSS sees numpy
               buffers and, unlike tracemalloc, does not slow the code, so the
               op is also timed)
  setup_s      median time from starting a fresh interpreter to
               `import meshbool.cli` done
--trace 1  per-layer metrics from bench/spans.py; untraced and traced passes
  alternate, so trace.overhead_s is traced minus untraced pass_s.

On stdout before the result: the pass count, the tail percentile of pass_s
the count supports, and op_s.p90 (90th percentile over the ops of a pass of
each op's median latency across passes; it has ten ops beyond it only on
small-batch, which BENCHMARK.json leaves out, see bench/README.md).

Failed ops (non-zero exit, exception, failed check, output bytes that differ
between passes) are counted in `failed`; fail_ratio = failed / attempted.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{m: "s" for m in spans.SPAN_TIME_METRIC.values()},
    **{m: "s" for m in spans.PIPELINE_METRICS},
    **{m: ("bytes" if m == "io.bytes_written" else "count") for m in spans.COUNT_METRICS},
    "octree.hit_ratio": "ratio",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}
SETUP_SAMPLES = 15


class Failure(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def tail_percentile(samples) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return f"none has ten samples beyond it at n={n}"
    pct = int(100 * (1 - 10 / n))
    return f"p{pct} {np.percentile(samples, pct):.6g} s at n={n}"


def resident_kib() -> int:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def measure_setup() -> float:
    """Median seconds from spawning an interpreter to meshbool.cli imported.

    Both sides read CLOCK_MONOTONIC, which is shared across processes. The
    first spawn only warms the bytecode cache and is not counted."""
    code = "import meshbool.cli\nimport time\nprint(repr(time.monotonic()))"
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env_with_src(), cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if out.returncode != 0:
            raise Failure(f"importing meshbool.cli failed:\n{out.stderr}")
        if k:
            samples.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(samples)


class Bench:
    """Runs ops, checks every output and counts attempts and failures."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.extra: list[str] = []  # CLI flags added to every op (tests only)
        self.first_op_peak_kib: int | None = None
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.op_ids = 0

    def judge(self, op, outdir: Path, problems: list[str]) -> dict:
        """Check one finished op; returns its output facts."""
        facts = {"files": 0, "facets": 0, "bytes": 0}
        if not problems:
            found, facts = check.check_op(op, outdir)
            problems += found
            digest = check.output_digest(outdir)
            first = self.digests.setdefault(op.name, digest)
            if digest != first:
                problems.append("output bytes differ from an earlier pass of the same seed")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {op.name}: {'; '.join(problems[:5])}", file=sys.stderr)
        return facts

    def run_op(self, op, tracer=None):
        """One timed CLI call; returns (seconds, facts)."""
        outdir = WORK / "out" / op.name
        shutil.rmtree(outdir, ignore_errors=True)
        argv = ["all", str(op.path_a), str(op.path_b), "-o", str(outdir), *self.extra]
        problems: list[str] = []
        root = tracer.op_root(self.op_ids) if tracer else contextlib.nullcontext()
        self.op_ids += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), root:
                code = self.cli.main(argv)
        except Exception:  # a crashing op is a failed op; keep measuring
            code = None
            problems.append(traceback.format_exc(limit=3).strip().replace("\n", " | "))
        seconds = time.perf_counter() - t0
        if self.first_op_peak_kib is None:
            self.first_op_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if code is not None and code != 0:
            problems.append(f"exit code {code}")
        return seconds, self.judge(op, outdir, problems)

    def run_pass(self, tracer=None):
        """Returns (per-op seconds, summed output facts, op ids)."""
        first = self.op_ids
        times, total = [], {"files": 0, "facets": 0, "bytes": 0}
        for op in self.ops:
            seconds, facts = self.run_op(op, tracer)
            times.append(seconds)
            for k in total:
                total[k] += facts[k]
        return times, total, range(first, self.op_ids)


def untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    rss_before = resident_kib()
    peak_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes, op_times = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        times, _, _ = bench.run_pass()
        passes.append(sum(times))
        op_times.append(times)
    if bench.first_op_peak_kib <= peak_before:
        raise Failure("the first op did not raise the peak RSS; peak_rss_mb is unmeasurable")
    metrics = {
        "pass_s": statistics.median(passes),
        "peak_rss_mb": (bench.first_op_peak_kib - rss_before) * 1024 / 1e6,
        "setup_s": setup,
    }
    info = {"passes": len(passes), "pass_s tail": tail_percentile(passes),
            "op_s.p90": float(np.percentile(np.median(op_times, axis=0), 90))}
    return metrics, info


def traced(bench: Bench, seconds: float, expect: str) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; both must write the same bytes
    (checked by Bench.judge) and every count must repeat exactly."""
    tracer = spans.Tracer()
    plain, hooked, per_pass = [], [], []
    untraced_facts = None
    t0 = time.perf_counter()
    while len(hooked) < 1 or time.perf_counter() - t0 < seconds:
        if len(plain) <= len(hooked):
            times, untraced_facts, _ = bench.run_pass()
            plain.append(sum(times))
            continue
        with tracer.installed():
            times, facts, ids = bench.run_pass(tracer)
        hooked.append(sum(times))
        missing = tracer.missing_spans(ids, expect)
        if missing:
            raise Failure(f"hooks never fired on {expect} ops: {sorted(missing)}; update bench/spans.py")
        per_pass.append(tracer.metrics(ids))
        counts = {k: per_pass[-1][k] for k in spans.COUNT_METRICS}
        seen = {k: per_pass[0][k] for k in spans.COUNT_METRICS}
        if counts != seen:
            diff = {k: (seen[k], counts[k]) for k in counts if counts[k] != seen[k]}
            raise Failure(f"counts differ between traced passes of one seed: {diff}")
        observed = {"files": counts["blocks.outputs"], "facets": counts["blocks.output_faces"],
                    "bytes": counts["io.bytes_written"]}
        if facts != untraced_facts or observed != facts:
            raise Failure(f"traced pass wrote {facts} (trace counts {observed}), untraced {untraced_facts}")
    metrics = {}
    for name in PER_LAYER:
        if name in per_pass[0]:
            metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["trace.pass_s"] = statistics.median(hooked)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - statistics.median(plain)
    with open(WORK / "spans.json", "w") as fh:
        json.dump([vars(s) for s in tracer.spans], fh)
    return metrics, {"untraced_passes": len(plain), "traced_passes": len(hooked)}


def machine_info() -> dict:
    configured = int(os.environ.get("MESHBOOL_THREADS", "0") or 0)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "narrow_phase_threads": configured if configured > 0 else os.cpu_count(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "meshbool" / "cli.py").is_file():
        print(f"error: {SRC / 'meshbool'} not found; run from a meshbool checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meshbool.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "meshbool":
        print(f"error: imported meshbool from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    ops = workloads.generate(args.workload, args.seed, WORK / "in")
    expect = "nested" if ops[0].expect == "nested" else "crossing"
    bench = Bench(cli, ops)
    try:
        if args.trace:
            metrics, info = traced(bench, args.seconds, expect)
            units = PER_LAYER
        else:
            metrics, info = untraced(bench, args.seconds)
            units = END_TO_END
    except (Failure, spans.HookMissing, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK / "out", ignore_errors=True)
        shutil.rmtree(WORK / "in", ignore_errors=True)

    print(f"machine {json.dumps(machine_info())}")
    print(f"{args.workload} seed {args.seed}: {len(ops)} op(s) per pass, {json.dumps(info)}")
    print(f"fail_ratio {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.4g}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
