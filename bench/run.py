#!/usr/bin/env python3
"""hymoe benchmark: one workload in one fresh process.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 12 --trace 0

Run from the root of a source tree; hymoe is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(see bench/README.md). The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The run
environment and the full result are written to ``.bench_out/`` in the tree.
"""

import os

# Both are read when numpy is first imported. BLAS runs on one thread. numpy's
# advice to back arrays of 4 MB and more with huge pages is off: with the heap
# pinned below (pin_allocator), the advised ranges stay in the heap, and in
# some processes every later 14 MB checkpoint save took ~5 ms instead of ~2.6.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


# glibc's mallopt parameters, and the values the benchmark pins them to.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 1 << 30


def pin_allocator() -> str:
    """Fix glibc malloc's mmap and trim thresholds for the whole run.

    By default glibc raises the mmap threshold after the first large free and
    trims the heap as it shrinks, so the same 14 MB checkpoint save takes
    ~9 ms or ~3 ms depending on what the process did before (fresh pages
    fault in, reused ones do not). Pinned, every run sees the steady state.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default (no glibc)"
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    if (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1
            or libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1):
        return "default (mallopt refused)"
    return f"glibc mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"


def import_hymoe():
    """Import hymoe from this tree's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "hymoe" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hymoe sources under {src}; run from a full source tree")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import hymoe

    if Path(hymoe.__file__).resolve().parent != (src / "hymoe").resolve():
        raise SystemExit(f"bench: imported hymoe from {hymoe.__file__}, not from {src}")


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha.strip()
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def fs_type(path: Path) -> str | None:
    """Filesystem type of the mount holding ``path``, from the mount table."""
    best, kind = "", None
    for line in (_read(Path("/proc/self/mountinfo")) or "").splitlines():
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4]
        if str(path).startswith(mount.rstrip("/") + "/") or str(path) == mount:
            if len(mount) >= len(best):
                best, kind = mount, right.split()[0]
    return kind


def environment(args, workdir: Path) -> dict:
    import numpy as np

    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV},
        "git_sha": git_sha(),
        "workdir_fs": fs_type(workdir),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("desk", "tiny"), default="desk",
                        help="tiny is the self-check's few-second shape")
    args = parser.parse_args(argv)

    allocator = pin_allocator()
    import_hymoe()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    env = environment(args, OUT)
    env["allocator"] = allocator
    try:
        result = workloads.run_workload(
            args.workload, args.size, args.seed, args.seconds, bool(args.trace), workdir)
    except workloads.SetupError as exc:
        print(f"bench: set-up check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra = result.pop("extra")
    record = {"env": env, "result": result, "extra": extra}
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for failure in extra["failures"]:
        print(f"failure: {failure}")
    if args.trace:
        tr = extra.pop("tracer")
        record["spans_summary"] = tr.summary()
        for key, row in record["spans_summary"].items():
            print(f"span {key}: calls={row['calls']} total_ms={row['total_ms']:.3f} "
                  f"self_ms={row['self_ms']:.3f}")
        (OUT / f"{tag}-spans.json").write_text(json.dumps(tr.export()))
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
