"""Benchmark of uproj's three verified pipelines and the projector.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; uproj is imported from ``src/``.
Each workload runs as a closed loop: one client, one sample at a time, each
sample in a fresh worker process (perfbench/worker.py), until ``--seconds``
have passed.  With ``--trace 0`` the run reports the end-to-end metrics as
medians over its samples; with ``--trace 1`` it alternates untraced and
traced samples and reports the per-layer metrics of the traced ones.
Times are reported at a reference host speed: each sample's times are
scaled by REFERENCE_PROBE_S over the time the worker's speed probe took
around that sample (see perfbench/README.md, "Noise on a small shared host").
Every output is checked: pipeline JSON must match the digest recorded in
WORKLOADS and, once per run, the stdout of ``python -m uproj.cli``;
products must satisfy P(ab) = P(a)P(b) exactly.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from tracer import layer_metric_names  # noqa: E402

# Digests are sha256 of json.dumps(gs.to_json(), indent=2, sort_keys=True),
# the bytes `uproj generators ...` prints before its final newline.
WORKLOADS = {
    "adjoint-g2": {
        "kind": "adjoint", "type": "G", "rank": 2,
        "cli": ["adjoint", "--type", "G", "--rank", "2"],
        "digest": "cce4361d6ca31d145392527edd048e3a9b09b8341577e91c691d0720eca73b89",
    },
    "conj-n4": {
        "kind": "conj", "n": 4,
        "cli": ["conj", "--n", "4"],
        "digest": "3232d352cf42ad2adb09eedd56f1a40d2eb7646b8b4cd72d376e62b337a3315b",
    },
    "rep-adj-b2": {
        "kind": "rep", "file": "perfbench/data/rep-adj-b2.json",
        "cli": ["rep", "--file", "perfbench/data/rep-adj-b2.json"],
        "digest": "6451555831c7ce7d228bd59ff128eaf476900b3b275318c22a4e6aa2b7992591",
    },
    "products-b2": {"kind": "products", "type": "B", "rank": 2, "pairs": 4},
    # Heavier inputs of the same pipelines, for runs by hand.  One sample
    # takes 4-18 s, too long for the runs BENCHMARK.json asks for.
    "adjoint-d4": {
        "kind": "adjoint", "type": "D", "rank": 4,
        "cli": ["adjoint", "--type", "D", "--rank", "4"],
        "digest": "bd526e5b562df4877c036b99468cb6c22e153f4c069fdbe0cde90bfcea96f7da",
    },
    "conj-n5": {
        "kind": "conj", "n": 5,
        "cli": ["conj", "--n", "5"],
        "digest": "6153e49cb01017ab526352e3d29a3a73801a29829db1c76ec939ba5971e3bcc2",
    },
    "rep-adj-a3": {
        "kind": "rep", "file": "perfbench/data/rep-adj-a3.json",
        "cli": ["rep", "--file", "perfbench/data/rep-adj-a3.json"],
        "digest": "a1f9b59fbc0158ee1d99fcde534351ec57e743e18d8d6c9a5890612ebd68aa49",
    },
}

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "construct_s": "s",
    "project_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}

# worker.speed_probe() at this host's usual speed; times are scaled to it
REFERENCE_PROBE_S = 0.070

SAMPLE_BUDGET_S = 120.0  # a sample past this is killed: "did not finish"
RUN_LIMIT_S = 170.0  # no sample or check may run past this point of a run


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_sample(spec, seed, trace, budget):
    """Run one sample in a fresh worker; returns a dict with its status."""
    cmd = [sys.executable, WORKER, json.dumps(spec), str(seed), str(int(trace))]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=budget,
        )
    except subprocess.TimeoutExpired:
        return {"status": "did not finish", "detail": f"budget {budget:.3g} s"}
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no output"]
        return {"status": "raised", "detail": lines[-1]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["verified"]:
        result["status"] = "unverified"
    elif spec.get("digest") and result["digest"] != spec["digest"]:
        result["status"] = "digest mismatch"
        result["detail"] = result["digest"]
    else:
        result["status"] = "ok"
    at_reference_speed(result)
    return result


def at_reference_speed(result):
    """Scale a sample's times to a host on which the speed probe takes
    REFERENCE_PROBE_S; memory and counts stay as measured.  The measured
    times are kept under "measured"."""
    scale = REFERENCE_PROBE_S / result["probe_s"]
    result["measured"] = dict(result["metrics"])
    for table in (result["metrics"], result.get("layers", {})):
        for name, value in table.items():
            if name.endswith("_s"):
                table[name] = value * scale


def check_cli(spec, seed, budget):
    """Compare `uproj generators ...` stdout with the recorded digest.

    Returns None when they agree, else a message.
    """
    cmd = [sys.executable, "-m", "uproj.cli", "generators", *spec["cli"],
           "--seed", str(seed)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        return f"cli did not finish within {budget:.3g} s"
    if proc.returncode != 0:
        return f"cli exited with {proc.returncode}"
    digest = hashlib.sha256(proc.stdout.removesuffix(b"\n")).hexdigest()
    if digest != spec["digest"]:
        return f"cli output digest {digest} differs from the recorded one"
    return None


def measure(spec, seed, seconds, trace, budget=SAMPLE_BUDGET_S):
    """Closed loop over samples; returns (samples, problems)."""
    start = time.monotonic()
    problems = []
    if "cli" in spec:
        problem = check_cli(spec, seed, min(budget, RUN_LIMIT_S))
        if problem:
            problems.append(problem)
    window = time.monotonic()
    samples = []
    while True:
        now = time.monotonic()
        enough = samples and (not trace or len(samples) >= 2)
        if enough and now - window >= seconds:
            break
        remaining = RUN_LIMIT_S - (now - start)
        if remaining <= 0:
            break
        traced = trace and len(samples) % 2 == 1
        sample = run_sample(spec, seed, traced, min(budget, remaining))
        sample["traced"] = traced
        samples.append(sample)
    return samples, problems


def _median(samples, key, field="metrics"):
    return statistics.median((s[field] if field else s)[key] for s in samples)


def _counts(sample):
    return {k: v for k, v in sample["layers"].items() if not k.endswith("_s")}


def summarize(samples, trace):
    """Metrics of a run over its successful samples; returns
    (metrics, problems)."""
    ok = [s for s in samples if s["status"] == "ok"]
    problems = []
    if any(s["sizes"] != ok[0]["sizes"] for s in ok):
        problems.append("size counters differ between samples")
    if not trace:
        return {k: _median(ok, k) for k in END_TO_END}, problems
    traced = [s for s in ok if s["traced"]]
    untraced = [s for s in ok if not s["traced"]]
    if any(_counts(s) != _counts(traced[0]) for s in traced):
        problems.append("layer counts differ between traced samples")
    metrics = {}
    for name in layer_metric_names():
        if name == "trace.overhead":
            metrics[name] = _median(traced, "total_s") / _median(untraced, "total_s")
        elif name in traced[0]["sizes"]:
            metrics[name] = traced[0]["sizes"][name]
        elif name.endswith("_s"):
            metrics[name] = _median(traced, name, "layers")
        else:
            metrics[name] = traced[0]["layers"][name]
    return metrics, problems


def write_trace(name, seed, samples):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
    traced = [
        {"layers": s["layers"], "edges": s["edges"], "metrics": s["metrics"]}
        for s in samples if s["status"] == "ok" and s["traced"]
    ]
    with open(path, "w") as fh:
        json.dump(traced, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "uproj")):
        print(f"error: no uproj sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    trace = bool(args.trace)
    samples, problems = measure(spec, args.seed, args.seconds, trace)
    failed = [s for s in samples if s["status"] != "ok"]
    for s in failed:
        print(f"sample failed: {s['status']}: {s.get('detail', '')}")
    # medians need a successful sample of each kind the run takes
    finished = {s["traced"] for s in samples if s["status"] == "ok"}
    if finished != {False, trace}:
        print("error: no sample finished with a checked result", file=sys.stderr)
        return 1
    metrics, more = summarize(samples, trace)
    problems += more
    for p in problems:
        print(f"check failed: {p}")

    units = layer_metric_names() if trace else END_TO_END
    print(f"{args.workload} seed {args.seed}: {len(samples)} samples, "
          f"{len(failed)} failed, fail_frac {len(failed) / len(samples):.3f}")
    ok = [s for s in samples if s["status"] == "ok" and not s["traced"]]
    print(f"speed probe median {_median(ok, 'probe_s', None):.4g} s "
          f"(reference {REFERENCE_PROBE_S} s); measured total_s median "
          f"{_median(ok, 'total_s', 'measured'):.4g} s")
    if trace:
        print(f"trace written to {write_trace(args.workload, args.seed, samples)}")
    for name, value in metrics.items():
        if trace and not value:
            continue
        spread = ""
        if not trace:
            vals = [s["metrics"][name] for s in samples if s["status"] == "ok"]
            spread = f"  (min {min(vals):.4g}, max {max(vals):.4g}, n={len(vals)})"
        print(f"  {name:<48} {value:>14.6g} {units[name]}{spread}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
