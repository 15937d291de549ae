import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from conftest import rewrite_header

from hymoe import checkpoint as ckpt_io
from hymoe.dense import (
    DenseCheckpoint,
    DenseConfig,
    dense_forward,
    dense_forward_batch,
    ffn_forward,
    init_dense,
    rmsnorm,
)
from hymoe.tensor import Tensor


def tiny_config(**overrides):
    base = dict(vocab_size=48, hidden_size=16, num_layers=2, ffn_hidden=24,
                num_heads=2, max_seq_len=24)
    base.update(overrides)
    return DenseConfig(**base)


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_config(hidden_size=10, num_heads=3)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            tiny_config(num_layers=0)


class TestFFN:
    def test_zero_weights_give_zero_output(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
        out = ffn_forward(x, Tensor(np.zeros((8, 12))), Tensor(np.zeros((12, 8))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identity_weights_apply_nonlinearity_once(self):
        # hidden == ffn_hidden with identity matrices: silu applied once.
        x = np.random.default_rng(1).normal(size=(4, 6))
        out = ffn_forward(Tensor(x), Tensor(np.eye(6)), Tensor(np.eye(6)))
        expected = x / (1.0 + np.exp(-x)) * 1.0  # x * sigmoid(x)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_matches_hand_rolled_two_matmul_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 5))
        w1 = rng.normal(size=(5, 9))
        w2 = rng.normal(size=(9, 5))
        out = ffn_forward(Tensor(x), Tensor(w1), Tensor(w2))
        # independent path: plain numpy, no Tensor machinery
        pre = x @ w1
        hidden = pre * (1.0 / (1.0 + np.exp(-pre)))
        np.testing.assert_allclose(out.data, hidden @ w2, atol=1e-12)


def test_rmsnorm_adds_an_eps_of_1e_minus_6_to_the_mean_square():
    out = rmsnorm(Tensor(np.array([[1e-3, 0.0]])), Tensor(np.ones(2))).data
    expected = 1e-3 / math.sqrt(0.5e-6 + 1e-6)
    assert expected == pytest.approx(0.816496580927726, rel=1e-12)
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)
    assert out[0, 1] == 0.0


class TestDenseForward:
    def test_single_token_logit_shape(self):
        ckpt = init_dense(tiny_config(), seed=0)
        logits = dense_forward(ckpt, [5])
        assert logits.shape == (1, ckpt.config.vocab_size)

    def test_appending_token_preserves_earlier_logits(self):
        ckpt = init_dense(tiny_config(), seed=0)
        base = dense_forward(ckpt, [3, 1, 4, 1, 5]).data
        longer = dense_forward(ckpt, [3, 1, 4, 1, 5, 9]).data
        np.testing.assert_array_equal(longer[:5], base)

    def test_causality_for_all_prefixes(self):
        ckpt = init_dense(tiny_config(), seed=1)
        rng = np.random.default_rng(4)
        seq = rng.integers(0, ckpt.config.vocab_size, size=12)
        full = dense_forward(ckpt, seq).data
        for cut in range(1, 12):
            prefix = dense_forward(ckpt, seq[:cut]).data
            np.testing.assert_array_equal(full[:cut], prefix)

    def test_deterministic_across_runs(self):
        ckpt = init_dense(tiny_config(), seed=2)
        seq = [7, 2, 9, 9, 30, 4]
        first = dense_forward(ckpt, seq).data
        second = dense_forward(ckpt, seq).data
        np.testing.assert_array_equal(first, second)

    def test_logit_softmax_rows_sum_to_one(self):
        ckpt = init_dense(tiny_config(), seed=3)
        logits = dense_forward(ckpt, [1, 2, 3, 4]).data
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = shifted / shifted.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("overrides", [{}, dict(hidden_size=64, ffn_hidden=128,
                                                     vocab_size=128, max_seq_len=64)])
    def test_flat_batch_matches_lone_samples_bitwise(self, overrides):
        ckpt = init_dense(tiny_config(**overrides), seed=4)
        cfg = ckpt.config
        rng = np.random.default_rng(5)
        lengths = (cfg.max_seq_len, 5, cfg.max_seq_len // 2 + 1, 1)
        samples = [rng.integers(0, cfg.vocab_size, size=n) for n in lengths]
        batch = dense_forward_batch(ckpt, samples)
        assert [lg.shape[0] for lg in batch] == list(lengths)
        for sample, logits in zip(samples, batch):
            np.testing.assert_array_equal(logits.data, dense_forward(ckpt, sample).data)

    def test_out_of_vocab_rejected(self):
        ckpt = init_dense(tiny_config(), seed=0)
        with pytest.raises(ValueError, match="vocabulary"):
            dense_forward(ckpt, [1, 999])

    def test_overlong_sequence_rejected(self):
        ckpt = init_dense(tiny_config(), seed=0)
        with pytest.raises(ValueError, match="max_seq_len"):
            dense_forward(ckpt, [0] * 25)


class TestCheckpointFile:
    def test_roundtrip_is_bitwise(self, tmp_path):
        ckpt = init_dense(tiny_config(), seed=5)
        path = tmp_path / "dense.ckpt"
        ckpt_io.save(ckpt, path)
        loaded = ckpt_io.load(path)
        assert isinstance(loaded, DenseCheckpoint)
        assert loaded.config == ckpt.config
        assert set(loaded.params) == set(ckpt.params)
        for name, p in ckpt.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)
            assert loaded.params[name].trainable == p.trainable

    def test_container_layout(self, tmp_path):
        ckpt = init_dense(tiny_config(), seed=6)
        path = tmp_path / "dense.ckpt"
        ckpt_io.save(ckpt, path)
        blob = path.read_bytes()
        assert blob[:8] == b"HYMOECK1"
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + header_len])
        assert header["kind"] == "dense"
        assert header["config"] == dataclasses.asdict(ckpt.config)
        payload = blob[16 + header_len :]
        for entry in header["manifest"]:
            count = int(np.prod(entry["shape"]))
            raw = np.frombuffer(payload, dtype="<f8", count=count, offset=entry["offset"])
            np.testing.assert_array_equal(
                raw.reshape(entry["shape"]), ckpt.params[entry["name"]].data
            )

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            ckpt_io.load(path)

    @pytest.mark.parametrize("delta", [-8, 16], ids=["truncated", "trailing"])
    def test_payload_length_must_match_manifest(self, tmp_path, delta):
        path = tmp_path / "dense.ckpt"
        ckpt_io.save(init_dense(tiny_config(), seed=8), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        payload_len = len(blob) - 16 - header_len
        path.write_bytes(blob[:delta] if delta < 0 else blob + b"\x00" * delta)
        with pytest.raises(ValueError) as err:
            ckpt_io.load(path)
        message = str(err.value)
        assert str(path) in message
        assert f"payload is {payload_len + delta} bytes" in message
        assert f"ends at byte {payload_len}" in message

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda blob, n: blob[:12], "inside the 8-byte header length field"),
            (lambda blob, n: blob[:8] + struct.pack("<Q", 10**12) + blob[16:],
             "header length 1000000000000 exceeds"),
            (lambda blob, n: blob[: 16 + n // 2], "exceeds the"),
            (lambda blob, n: blob[:8] + struct.pack("<Q", n - 5) + blob[16:],
             "header is not UTF-8 JSON"),
            (lambda blob, n: blob[:16] + b"\xff" + blob[17:], "header is not UTF-8 JSON"),
        ],
        ids=["cut_in_length_field", "length_past_end", "cut_in_header", "header_cut_short",
             "header_not_utf8"],
    )
    def test_bad_header_names_the_file(self, tmp_path, corrupt, reason):
        path = tmp_path / "dense.ckpt"
        ckpt_io.save(init_dense(tiny_config(), seed=8), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        path.write_bytes(corrupt(blob, header_len))
        with pytest.raises(ValueError) as err:
            ckpt_io.load(path)
        assert type(err.value) is ValueError
        assert str(path) in str(err.value)
        assert reason in str(err.value)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda h, e: e["layer.0.ffn.w2"].update(offset=e["embed.pos"]["offset"]),
             "manifest entry 'layer.0.ffn.w2' starts at byte 0, not at byte"),
            (lambda h, e: h["manifest"][-1].update(offset=h["manifest"][-1]["offset"] + 8),
             "starts at byte"),
            (lambda h, e: h["manifest"][-1].update(shape=[10**6]),
             "but the manifest ends at byte"),
            (lambda h, e: h["manifest"][1].update(name=h["manifest"][0]["name"]),
             "manifest names 'embed.pos' twice"),
            (lambda h, e: h["manifest"][3].pop("shape"), "manifest entry 3 has no 'shape'"),
            (lambda h, e: h.pop("kind"), "header has no 'kind'"),
            (lambda h, e: h.pop("config"), "header has no 'config'"),
            (lambda h, e: h.pop("manifest"), "header has no 'manifest'"),
        ],
        ids=["overlapping_entry", "entry_past_payload", "entry_past_end", "duplicate_name",
             "entry_without_shape", "no_kind", "no_config", "no_manifest"],
    )
    def test_bad_manifest_names_the_file(self, tmp_path, edit, reason):
        path = tmp_path / "dense.ckpt"
        ckpt_io.save(init_dense(tiny_config(), seed=8), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16 : 16 + header_len])
        edit(header, {entry["name"]: entry for entry in header["manifest"]})
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + header_len :])
        with pytest.raises(ValueError) as err:
            ckpt_io.load(path)
        assert type(err.value) is ValueError
        assert str(path) in str(err.value)
        assert reason in str(err.value)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda c: c.pop("num_heads"),
             "config block 'config' must hold the fields of DenseConfig: "
             "missing ['num_heads'], unknown []"),
            (lambda c: c.update(extra=1), "missing [], unknown ['extra']"),
            (lambda c: c.update(hidden_size=32),
             "embed.tok: file (48, 16) trainable, layout (48, 32) trainable"),
            (lambda c: c.update(vocab_size=64),
             "embed.tok: file (48, 16) trainable, layout (64, 16) trainable"),
            (lambda c: c.update(max_seq_len=32),
             "embed.pos: file (24, 16) trainable, layout (32, 16) trainable"),
            (lambda c: c.update(num_layers=1),
             "layer.1.attn.wk: file (16, 16) trainable, layout absent"),
            (lambda c: c.update(num_layers=3),
             "layer.2.norm1: file absent, layout (16,) trainable"),
            (lambda c: c.update(ffn_hidden=32),
             "layer.0.ffn.w1: file (16, 24) trainable, layout (16, 32) trainable"),
        ],
        ids=["missing_field", "unknown_field", "hidden_size", "vocab_size", "max_seq_len",
             "fewer_layers", "more_layers", "ffn_hidden"],
    )
    def test_config_that_disagrees_is_rejected(self, tmp_path, edit, reason):
        path = tmp_path / "dense.ckpt"
        ckpt_io.save(init_dense(tiny_config(num_heads=4), seed=8), path)
        rewrite_header(path, lambda header: edit(header["config"]))
        with pytest.raises(ValueError) as err:
            ckpt_io.load(path)
        assert type(err.value) is ValueError
        assert str(path) in str(err.value)
        assert reason in str(err.value)

    def test_failed_write_leaves_the_old_file_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "final.ckpt"
        ckpt_io.save(init_dense(tiny_config(), seed=5), path)
        before = path.read_bytes()

        class FailsInPayload:
            """A file whose fourth write, the payload, stops half way."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 4:
                    self.fh.write(data[: len(data) // 2])
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(ckpt_io, "open", lambda p, mode: FailsInPayload(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            ckpt_io.save(init_dense(tiny_config(), seed=6), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_forward_identical_after_roundtrip(self, tmp_path):
        ckpt = init_dense(tiny_config(), seed=7)
        path = tmp_path / "dense.ckpt"
        ckpt_io.save(ckpt, path)
        loaded = ckpt_io.load(path)
        seq = [11, 3, 0, 42]
        np.testing.assert_array_equal(
            dense_forward(ckpt, seq).data, dense_forward(loaded, seq).data
        )
