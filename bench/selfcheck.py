#!/usr/bin/env python3
"""Self-check of the benchmark: every workload at the tiny size, both run kinds.

    python3 bench/selfcheck.py

Asserts that each run exits 0 and ends with the result object, that every
end-to-end metric (untraced) and every per-layer metric (traced) named in
BENCHMARK.json is emitted with its unit, that no operation failed, and that
the traced run writes spans whose parent links nest in time and step. It also
checks that the benchmark refuses to run in a tree holding only BENCHMARK.json
and the benchmark's own files. Takes under a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


class CheckFailed(Exception):
    pass


def require(ok, what) -> None:
    if not ok:
        raise CheckFailed(what)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, expected: dict, label: str) -> None:
    require(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = {"correct", "attempted", "failed", "metrics"}
    require(set(result) == keys, f"{label}: keys {set(result)}")
    require(result["correct"] is True and result["failed"] == 0, f"{label}: {result}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, label)
    metrics = result["metrics"]
    differ = sorted(set(metrics) ^ set(expected))
    require(not differ, f"{label}: metrics differ from BENCHMARK.json: {differ}")
    for name, unit in expected.items():
        m = metrics[name]
        require(m["unit"] == unit, f"{label}: {name} unit {m['unit']!r} != {unit!r}")
        value = m["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}")


def check_spans(workload: str) -> None:
    path = ROOT / ".bench_out" / f"{workload}-tiny-seed{SEED}-trace1-spans.json"
    data = json.loads(path.read_text())
    spans = [dict(zip(data["fields"], s)) for s in data["spans"]]
    require(spans, f"{workload}: no spans")
    nested = 0
    for s in spans:
        require(s["start_ns"] <= s["end_ns"], s)
        if s["parent"] < 0:
            continue
        p = spans[s["parent"]]
        require(p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"], (s, p))
        require(p["step"] == s["step"], (s, p))
        nested += 1
    require(nested, f"{workload}: no span has a parent")
    parents = {(s["name"], spans[s["parent"]]["name"]) for s in spans if s["parent"] >= 0}
    for pair in [("dense.attention", "hybrid.forward"), ("tensor.backward", "training.step"),
                 ("hybrid.forward", "training.step"), ("dense.forward", "upcycle.fidelity")]:
        require(pair in parents, f"{workload}: no {pair[0]} span under {pair[1]}")


def check_bare_tree() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "train_desk", 0)
        require(proc.returncode != 0, "benchmark ran without the hymoe sources")
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        require(not last.startswith("{"), "benchmark printed a result without the hymoe sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        check_result(run(ROOT, w, 0), end_to_end, f"{w} untraced")
        check_result(run(ROOT, w, 1), per_layer, f"{w} traced")
        check_spans(w)
        print(f"ok {w}")
    check_bare_tree()
    print("ok bare tree refused")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
