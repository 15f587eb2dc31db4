"""Self-test of the benchmark itself (not of meshbool).

    python3 -m pytest -q bench/test_bench.py

Covers the BENCHMARK.json schema, seeded inputs, exact repetition of every
count across passes and thread counts, loud failure of a missing hook, the
correctness checks on a broken output, and the refusal to run without src/.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
import meshbool.cli as cli  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCRATCH = run.WORK / "selftest"


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert 2 <= len(spec["workloads"]) and {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_determines_inputs(name, scratch):
    def stl_bytes(seed, sub):
        ops = workloads.generate(name, seed, scratch / sub)
        return [op.path_a.read_bytes() + op.path_b.read_bytes() for op in ops]

    first = stl_bytes(1, "s1")
    assert stl_bytes(1, "again") == first
    other = stl_bytes(2, "s2")
    assert len(other) == len(first) and all(x != y for x, y in zip(first, other))


def test_counts_repeat_across_passes_and_thread_counts(scratch, monkeypatch):
    monkeypatch.setattr(run, "WORK", scratch)
    ops = workloads.generate("bumpy-band", 7, scratch / "in")
    bench = run.Bench(cli, ops)
    tracer = spans.Tracer()
    counts = []
    for extra in ([], [], ["--threads", "1"]):
        bench.extra = extra
        with tracer.installed():
            _, _, ids = bench.run_pass(tracer)
        assert not tracer.missing_spans(ids, "crossing")
        m = tracer.metrics(ids)
        counts.append({k: m[k] for k in spans.COUNT_METRICS})
    # Bench.judge also compared the output bytes of all three passes.
    assert bench.failed == 0 and bench.attempted == 3
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["intersect.segments"] > 0 and counts[0]["octree.pairs"] > 4096


def test_missing_hook_fails_loudly_and_restores(monkeypatch):
    original = cli.run_pipeline
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (("meshbool.pipeline", "no_such_stage", "x", None),))
    with pytest.raises(spans.HookMissing, match="meshbool.pipeline.no_such_stage"):
        with spans.Tracer().installed():
            pass
    assert cli.run_pipeline is original


def test_checks_reject_broken_outputs(scratch, monkeypatch):
    monkeypatch.setattr(run, "WORK", scratch)
    op = workloads.generate("small-batch", 3, scratch / "in")[0]
    _, facts = run.Bench(cli, [op]).run_op(op)
    outdir = scratch / "out" / op.name
    assert facts["files"] == 4 and check.check_op(op, outdir)[0] == []

    union = outdir / "union.stl"
    tris = check.read_stl(union)
    workloads.write_stl(tris[1:], union)  # a hole
    problems = check.check_op(op, outdir)[0]
    assert any("not a closed manifold" in p for p in problems)

    workloads.write_stl(tris, union)
    (outdir / "intersection.stl").unlink()  # a missing piece
    problems = check.check_op(op, outdir)[0]
    assert any("U + I = vol A" in p for p in problems) and any("one intersection" in p for p in problems)
    assert any("facets of U + I" in p for p in problems)


def test_facet_rows_ignore_order_and_optionally_winding(scratch):
    op = workloads.generate("nested-shell", 1, scratch / "in")[0]
    a = np.asarray(op.tris_a, dtype="<f4").astype(np.float64)
    same = check.facet_rows(a, oriented=True)
    assert np.array_equal(same, check.facet_rows(np.roll(a, 1, axis=1)[::-1], oriented=True))
    assert not np.array_equal(same, check.facet_rows(a[:, ::-1], oriented=True))
    assert np.array_equal(check.facet_rows(a, oriented=False), check.facet_rows(a[:, ::-1], oriented=False))


def test_refuses_to_run_without_sources(scratch):
    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
