"""Golden digests: one JSON line of SHA-256 prefixes that a refactor must not move.

For each model shape the script upcycles a seeded dense model and prints the
digest of

* ``fidelity_logits``: every dense and hybrid logit ``fidelity_check``
  compares, and ``fidelity``, the value it returns;
* ``params``: every parameter after 6 training steps at the desk batch
  (B=8, T=256) on seeded random tokens;
* ``logits_t100`` and ``logits_t256``: hybrid logits of 4 seeded samples at
  T=100 and T=256 after those steps;
* ``ckpt_bytes``: the bytes of the saved hybrid checkpoint.

Hybrid shapes: ``desk`` (dense seed 11, 6 token + 6 segment experts, top-2,
window 32), ``w24_e5_k3`` (window 24, 5 + 5 experts, top-3) and
``distinct_k3`` (6 + 6 experts, top-3, window 32). In the first two the
upcycled experts stay identical copies with equal gates, so a change that only
reorders the sum of expert outputs leaves their digests unchanged.
``distinct_k3`` moves every model off that tie point before training: routers
~ N(0, 0.5), every token and segment expert + N(0, 0.02), ``fuse_seg``
+ N(0, 0.05). Its experts differ and each token mixes two routed experts, so
a reordered sum moves its digests.

The ``dense`` entry covers dense training: a tiny all-trainable dense model
(vocab 64, hidden 16, 2 layers, max_seq_len 32) trained 4 steps on seeded
ragged batches (4 samples of 2..32 tokens), with the digest of its
``params`` and of the last step's ``LossReport.total`` (``total``).

Run it on the source tree before and after a refactor that claims bitwise
equality. ``--against`` runs the script on the other tree in a subprocess,
prints both lines (that tree's first) and exits 1 naming every key whose
digest differs::

    python3 tools/golden_digests.py --against /path/to/parent/src

The digests depend on the numpy/BLAS build, so no expected values are kept;
BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SHAPES = {
    "desk": {"tok_experts": 6, "seg_experts": 6, "top_k": 2, "window": 32},
    "w24_e5_k3": {"tok_experts": 5, "seg_experts": 5, "top_k": 3, "window": 24},
    "distinct_k3": {"tok_experts": 6, "seg_experts": 6, "top_k": 3, "window": 32,
                    "distinct": True},
}
DENSE_SEED = 11
STEPS = 6
BATCH, SEQ_LEN = 8, 256
DENSE_TINY = {"vocab_size": 64, "hidden_size": 16, "num_layers": 2, "ffn_hidden": 32,
              "num_heads": 2, "max_seq_len": 32}
DENSE_STEPS, DENSE_BATCH = 4, 4


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def break_ties(hybrid, rng) -> None:
    """Routers ~ N(0, 0.5), experts + N(0, 0.02), ``fuse_seg`` + N(0, 0.05)."""
    for name in sorted(hybrid.params):
        data = hybrid.params[name].data
        if name.endswith("router"):
            data[...] = rng.normal(0, 0.5, size=data.shape)
        elif ".expert." in name or ".seg_expert." in name:
            data += rng.normal(0, 0.02, size=data.shape)
        elif name.endswith("fuse_seg"):
            data += rng.normal(0, 0.05, size=data.shape)


def shape_digests(shape: dict) -> dict:
    import numpy as np

    from hymoe import checkpoint
    from hymoe.dense import DenseConfig, init_dense
    from hymoe.hybrid import hybrid_forward_batch
    from hymoe.segment_moe import SegmentMoEConfig
    from hymoe.token_moe import TokenMoEConfig
    from hymoe.training import TrainConfig, training_step

    # Imported by name so that a source tree whose package __init__ rebinds
    # ``hymoe.upcycle`` to the function still yields the module.
    module = importlib.import_module("hymoe.upcycle")
    dense = init_dense(DenseConfig(), seed=DENSE_SEED)
    hidden = dense.config.hidden_size
    hybrid = module.upcycle(
        dense,
        TokenMoEConfig(shape["tok_experts"], shape["top_k"], hidden),
        SegmentMoEConfig(shape["seg_experts"], shape["window"], 1.0, hidden),
    )

    # Record the logits fidelity_check compares by wrapping the forwards it calls.
    probes: list = []
    originals = module.dense_forward, module.hybrid_forward

    def recording(fn):
        def wrapped(*args):
            out = fn(*args)
            probes.append(out.data)
            return out

        return wrapped

    module.dense_forward, module.hybrid_forward = (recording(f) for f in originals)
    try:
        fidelity = module.fidelity_check(dense, hybrid)
    finally:
        module.dense_forward, module.hybrid_forward = originals

    rng = np.random.default_rng(DENSE_SEED)
    if shape.get("distinct"):
        break_ties(hybrid, rng)
    cfg = TrainConfig(batch_size=BATCH, seq_len=SEQ_LEN, steps=STEPS)
    for step in range(STEPS):
        rows = rng.integers(0, dense.config.vocab_size, size=(BATCH, SEQ_LEN + 1))
        training_step(hybrid, list(rows[:, :-1]), list(rows[:, 1:]), cfg, step)

    out = {
        "fidelity_logits": _digest(probes),
        "fidelity": fidelity,
        "params": _digest(hybrid.params[n].data for n in sorted(hybrid.params)),
    }
    for length in (100, 256):
        samples = list(rng.integers(0, dense.config.vocab_size, size=(4, length)))
        logits, _ = hybrid_forward_batch(hybrid, samples)
        out[f"logits_t{length}"] = _digest(lg.data for lg in logits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hybrid.ckpt"
        checkpoint.save(hybrid, path)
        out["ckpt_bytes"] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return out


def dense_digests() -> dict:
    """A tiny all-trainable dense model after 4 SGD steps on ragged batches."""
    import numpy as np

    from hymoe.dense import DenseConfig, init_dense
    from hymoe.training import TrainConfig, training_step

    dense = init_dense(DenseConfig(**DENSE_TINY), seed=DENSE_SEED)
    cfg = TrainConfig(batch_size=DENSE_BATCH, seq_len=DENSE_TINY["max_seq_len"],
                      learning_rate=0.2, steps=DENSE_STEPS)
    rng = np.random.default_rng(DENSE_SEED)
    for step in range(DENSE_STEPS):
        rows = [rng.integers(0, DENSE_TINY["vocab_size"], size=int(n) + 1)
                for n in rng.integers(2, DENSE_TINY["max_seq_len"] + 1, size=DENSE_BATCH)]
        report = training_step(dense, [r[:-1] for r in rows], [r[1:] for r in rows], cfg, step)
    return {
        "params": _digest(dense.params[n].data for n in sorted(dense.params)),
        "total": _digest([np.float64(report.total)]),
    }


def differing_keys(a: dict, b: dict) -> list[str]:
    """``shape.key`` for every digest that is missing from one side or differs."""
    return [
        f"{shape}.{key}"
        for shape in sorted(a.keys() | b.keys())
        for key in sorted(a.get(shape, {}).keys() | b.get(shape, {}).keys())
        if a.get(shape, {}).get(key) != b.get(shape, {}).get(key)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="source tree to import hymoe from (default: this checkout's src/)",
    )
    parser.add_argument(
        "--against",
        metavar="SRC",
        help="also run on this source tree in a subprocess and compare the two lines",
    )
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy is first imported
    other = None
    if args.against:
        proc = subprocess.run(
            [sys.executable, __file__, "--src", args.against],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        other = json.loads(proc.stdout)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import hymoe

    print(f"hymoe from {Path(hymoe.__file__).parent}", file=sys.stderr)
    digests = {name: shape_digests(shape) for name, shape in SHAPES.items()}
    digests["dense"] = dense_digests()
    if other is not None:
        print(json.dumps(other))
    print(json.dumps(digests))
    if other is None:
        return 0
    differ = differing_keys(other, digests)
    print(f"differ: {', '.join(differ)}" if differ else "identical", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
