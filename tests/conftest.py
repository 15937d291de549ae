import json
import os
import struct

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread: before numpy is first imported

import numpy as np  # noqa: E402
import pytest

from hymoe.dense import DenseConfig, init_dense
from hymoe.segment_moe import SegmentMoEConfig
from hymoe.token_moe import TokenMoEConfig
from hymoe.upcycle import upcycle


def tiny_dense_config(**overrides):
    base = dict(vocab_size=48, hidden_size=16, num_layers=2, ffn_hidden=24,
                num_heads=2, max_seq_len=24)
    base.update(overrides)
    return DenseConfig(**base)


def tiny_hybrid(seed=0, n_tok=4, k=2, n_seg=3, window=4, **dense_overrides):
    dense = init_dense(tiny_dense_config(**dense_overrides), seed=seed)
    hidden = dense.config.hidden_size
    tok = TokenMoEConfig(num_experts=n_tok, top_k=k, hidden_size=hidden)
    seg = SegmentMoEConfig(num_experts=n_seg, window=window, capacity_factor=1.0,
                           hidden_size=hidden)
    return dense, upcycle(dense, tok, seg)


def randomize_routing(hybrid, seed=0, scale=0.6):
    """Kick routers/experts off the zero-init tie point for gradient tests."""
    rng = np.random.default_rng(seed)
    for name, p in hybrid.params.items():
        if "router" in name:
            p.data[...] = rng.normal(0, scale, size=p.data.shape)
        elif ".expert." in name or ".seg_expert." in name:
            p.data += rng.normal(0, 0.05, size=p.data.shape)
    return hybrid


def random_batch(config, batch_size, seq_len, seed=0):
    rng = np.random.default_rng(seed)
    samples = [rng.integers(0, config.vocab_size, size=seq_len) for _ in range(batch_size)]
    targets = [rng.integers(0, config.vocab_size, size=seq_len) for _ in range(batch_size)]
    return samples, targets


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path``, in place."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + header_len :])


@pytest.fixture
def tiny_pair():
    return tiny_hybrid(seed=0)
