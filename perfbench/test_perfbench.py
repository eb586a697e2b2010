"""Tests of the benchmark's own machinery: sample budgets, failure
accounting, the correctness gate, the result line and the tracer's
counters.  Every case uses tiny inputs or a tiny budget."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import SIZE_COUNTERS, layer_metric_names  # noqa: E402

TINY = {
    "kind": "adjoint", "type": "A", "rank": 1,
    "cli": ["adjoint", "--type", "A", "--rank", "1"],
}


def tiny_digest():
    from uproj.adjoint import AdjointConstruction
    from uproj.liealg import chevalley_constants
    from uproj.rootsystem import build_root_system

    c = AdjointConstruction(chevalley_constants(build_root_system("A", 1)))
    data = json.dumps(c.generator_set().to_json(), indent=2, sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def test_tiny_pipeline_matches_library_and_cli():
    spec = dict(TINY, digest=tiny_digest())
    sample = run.run_sample(spec, seed=3, trace=False, budget=60)
    assert sample["status"] == "ok"
    assert set(sample["metrics"]) == set(run.END_TO_END)
    assert run.check_cli(spec, seed=3, budget=60) is None


def test_digest_mismatch_fails_sample_and_cli_check():
    spec = dict(TINY, digest="0" * 64)
    assert run.run_sample(spec, 0, False, 60)["status"] == "digest mismatch"
    assert "differs" in run.check_cli(spec, 0, 60)


def test_exception_fails_sample():
    spec = {"kind": "adjoint", "type": "Z", "rank": 1}
    sample = run.run_sample(spec, 0, False, 60)
    assert sample["status"] == "raised"
    assert "InvalidDynkinDatum" in sample["detail"]


def test_times_are_scaled_to_reference_speed_and_rest_kept():
    sample = {
        "probe_s": 2 * run.REFERENCE_PROBE_S,
        "metrics": {"total_s": 3.0, "peak_rss_mb": 20.0},
        "layers": {"linalg.rref.calls": 7, "linalg.rref.self_s": 1.0},
    }
    run.at_reference_speed(sample)
    assert sample["metrics"] == {"total_s": 1.5, "peak_rss_mb": 20.0}
    assert sample["layers"] == {"linalg.rref.calls": 7, "linalg.rref.self_s": 0.5}
    assert sample["measured"]["total_s"] == 3.0


def test_sample_past_budget_is_killed_and_counted():
    spec = run.WORKLOADS["adjoint-d4"]  # one sample takes about 17 s
    samples, problems = run.measure(spec, 0, seconds=0, trace=False, budget=0.5)
    assert [s["status"] for s in samples] == ["did not finish"]
    assert problems and "did not finish" in problems[0]


def test_size_and_layer_counters_repeat_exactly():
    spec = {"kind": "products", "type": "B", "rank": 2, "pairs": 2}
    a, b = (run.run_sample(spec, 5, True, 60) for _ in range(2))
    assert a["status"] == b["status"] == "ok"
    assert a["sizes"] == b["sizes"]
    counts = [
        {k: v for k, v in s["layers"].items() if not k.endswith("_s")}
        for s in (a, b)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["projector.smap.calls"] > 0
    assert counts[0]["size.smap.max_terms"] > 0
    reported = set(a["layers"]) | set(a["sizes"]) | {"trace.overhead"}
    assert reported == set(layer_metric_names())
    assert set(SIZE_COUNTERS) <= reported


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_result_line_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run_cli(ROOT, "--workload", "conj-n4", "--seed", "2",
                        "--seconds", "0", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in bench[declared]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run_cli(tmp_path, "--workload", "conj-n4", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
