import types

import numpy as np
import pytest

from conftest import random_batch, rewrite_header, tiny_dense_config, tiny_hybrid

from hymoe import checkpoint as ckpt_io
from hymoe.dense import dense_forward, init_dense
from hymoe.hybrid import HybridCheckpoint
from hymoe.segment_moe import SegmentMoEConfig
from hymoe.token_moe import TokenMoEConfig
from hymoe.training import TrainConfig, training_step
from hymoe.upcycle import fidelity_check, upcycle


class TestUpcycle:
    def test_expert_tensors_bitwise_equal_to_source_ffn(self, tiny_pair):
        dense, hybrid = tiny_pair
        for l in range(dense.config.num_layers):
            src1 = dense.param(f"layer.{l}.ffn.w1").data
            src2 = dense.param(f"layer.{l}.ffn.w2").data
            np.testing.assert_array_equal(hybrid.param(f"layer.{l}.shared.w1").data, src1)
            np.testing.assert_array_equal(hybrid.param(f"layer.{l}.shared.w2").data, src2)
            for i in range(1, hybrid.token_moe.num_experts):
                np.testing.assert_array_equal(hybrid.param(f"layer.{l}.expert.{i}.w1").data, src1)
                np.testing.assert_array_equal(hybrid.param(f"layer.{l}.expert.{i}.w2").data, src2)
            for i in range(hybrid.segment_moe.num_experts):
                np.testing.assert_array_equal(
                    hybrid.param(f"layer.{l}.seg_expert.{i}.w1").data, src1
                )

    def test_parameter_count_closed_form(self, tiny_pair):
        dense, hybrid = tiny_pair
        cfg = dense.config
        h, n_tok, n_seg = cfg.hidden_size, hybrid.token_moe.num_experts, hybrid.segment_moe.num_experts
        ffn_size = h * cfg.ffn_hidden + cfg.ffn_hidden * h
        dense_count = sum(p.data.size for p in dense.params.values())
        expected = dense_count + cfg.num_layers * (
            (n_tok - 1 + n_seg) * ffn_size + h * n_tok + h * n_seg + 2 * h * h
        )
        actual = sum(p.data.size for p in hybrid.params.values())
        assert actual == expected

    def test_trainable_set_is_exactly_the_new_machinery(self, tiny_pair):
        _, hybrid = tiny_pair
        for name, p in hybrid.params.items():
            is_new = any(
                part in name for part in (".expert.", ".seg_expert.", "router", "fuse_")
            )
            assert p.trainable == is_new, name

    def test_router_and_fusion_initialization(self, tiny_pair):
        _, hybrid = tiny_pair
        h = hybrid.config.hidden_size
        for l in range(hybrid.config.num_layers):
            np.testing.assert_array_equal(hybrid.param(f"layer.{l}.token_router").data, 0.0)
            np.testing.assert_array_equal(hybrid.param(f"layer.{l}.seg_router").data, 0.0)
            np.testing.assert_array_equal(hybrid.param(f"layer.{l}.fuse_tok").data, np.eye(h))
            np.testing.assert_array_equal(hybrid.param(f"layer.{l}.fuse_seg").data, 0.0)

    def test_hidden_size_mismatch_rejected(self):
        dense = init_dense(tiny_dense_config(), seed=0)
        tok = TokenMoEConfig(num_experts=4, top_k=2, hidden_size=32)
        seg = SegmentMoEConfig(num_experts=3, window=4, capacity_factor=1.0, hidden_size=16)
        with pytest.raises(ValueError, match="hidden_size"):
            upcycle(dense, tok, seg)

    def test_cli_rejects_capacity_above_expert_count_before_writing(self, tmp_path):
        from hymoe.cli import main

        ckpt_io.save(init_dense(tiny_dense_config(), seed=0), tmp_path / "dense.ckpt")
        out = tmp_path / "hybrid.ckpt"
        with pytest.raises(ValueError, match="capacity_factor 4.0 exceeds num_experts 3"):
            main(["upcycle", "--in", str(tmp_path / "dense.ckpt"), "--out", str(out),
                  "--seg-experts", "3", "--window", "8", "--capacity-c", "4"])
        assert not out.exists()


class TestFidelity:
    def test_fresh_upcycle_reproduces_dense_logits(self, tiny_pair):
        dense, hybrid = tiny_pair
        assert fidelity_check(dense, hybrid, probes=32, seed=1) <= 1e-9

    def test_perturbing_a_routed_expert_breaks_fidelity(self, tiny_pair):
        dense, hybrid = tiny_pair
        hybrid.param("layer.0.expert.1.w1").data[0, 0] += 1.0
        assert fidelity_check(dense, hybrid, probes=8, seed=2) > 0.0

    @pytest.mark.parametrize(
        "kwargs, name", [({"probes": 0}, "probes"), ({"max_len": 1}, "max_len"),
                         ({"max_len": 0}, "max_len")],
    )
    def test_a_check_that_compares_nothing_is_rejected(self, tiny_pair, kwargs, name):
        dense, hybrid = tiny_pair
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            fidelity_check(dense, hybrid, **kwargs)

    @pytest.mark.parametrize(
        "overrides, reason",
        [({"vocab_size": 64}, "vocab_size (dense 48, hybrid 64)"),
         ({"num_heads": 4}, "num_heads (dense 2, hybrid 4)")],
        ids=["vocab_size", "num_heads"],
    )
    def test_configs_that_differ_are_rejected(self, overrides, reason):
        dense = init_dense(tiny_dense_config(), seed=0)
        _, hybrid = tiny_hybrid(**overrides)
        with pytest.raises(ValueError, match=r"^configs differ, nothing to compare: ") as err:
            fidelity_check(dense, hybrid, probes=4)
        assert reason in str(err.value)

    def test_training_breaks_fidelity_but_not_dense(self, tiny_pair):
        dense, hybrid = tiny_pair
        seq = [1, 2, 3, 4, 5, 6, 7, 8]
        dense_before = dense_forward(dense, seq).data.copy()
        cfg = TrainConfig(batch_size=2, seq_len=12, learning_rate=0.5, alpha=0.01,
                          steps=20, seed=0)
        samples, targets = random_batch(dense.config, 2, 12, seed=3)
        for step in range(20):
            training_step(hybrid, samples, targets, cfg, step)
        assert fidelity_check(dense, hybrid, probes=4, seed=4) > 1e-6
        np.testing.assert_array_equal(dense_forward(dense, seq).data, dense_before)


def assert_no_shared_memory(params, others=None):
    """No parameter's array overlaps another's, nor any array in ``others``."""
    items = list(params.items())
    for i, (name, p) in enumerate(items):
        for other, q in items[i + 1 :] + list((others or {}).items()):
            assert not np.shares_memory(p.data, q.data), (name, other)


class TestParametersOwnTheirMemory:
    def test_upcycled_parameters_share_no_memory(self, tiny_pair):
        dense, hybrid = tiny_pair
        assert_no_shared_memory(hybrid.params, dense.params)

    def test_loaded_parameters_are_writable_and_share_no_memory(self, tiny_pair, tmp_path):
        _, hybrid = tiny_pair
        ckpt_io.save(hybrid, tmp_path / "hybrid.ckpt")
        loaded = ckpt_io.load(tmp_path / "hybrid.ckpt")
        assert all(p.data.flags.writeable for p in loaded.params.values())
        assert_no_shared_memory(loaded.params)

    def test_writing_an_upcycled_expert_leaves_the_dense_source_unchanged(self, tiny_pair):
        dense, hybrid = tiny_pair
        before = {n: p.data.copy() for n, p in dense.params.items()}
        sibling = hybrid.param("layer.0.expert.2.w1").data.copy()
        hybrid.param("layer.0.expert.1.w1").data[...] += 1.0
        for name, p in dense.params.items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)
        np.testing.assert_array_equal(hybrid.param("layer.0.expert.2.w1").data, sibling)


class TestHybridCheckpointIO:
    def test_roundtrip_preserves_everything(self, tiny_pair, tmp_path):
        _, hybrid = tiny_pair
        path = tmp_path / "hybrid.ckpt"
        ckpt_io.save(hybrid, path)
        loaded = ckpt_io.load(path)
        assert isinstance(loaded, HybridCheckpoint)
        assert loaded.token_moe == hybrid.token_moe
        assert loaded.segment_moe == hybrid.segment_moe
        assert set(loaded.params) == set(hybrid.params)
        for name, p in hybrid.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)
            assert loaded.params[name].trainable == p.trainable

    def test_loaded_checkpoint_is_fidelity_equivalent(self, tiny_pair, tmp_path):
        dense, hybrid = tiny_pair
        path = tmp_path / "hybrid.ckpt"
        ckpt_io.save(hybrid, path)
        loaded = ckpt_io.load(path)
        assert fidelity_check(dense, loaded, probes=8, seed=5) <= 1e-9

    @pytest.mark.parametrize(
        "block, edit, reason",
        [
            ("token_moe", lambda c: c.pop("top_k"),
             "config block 'token_moe' must hold the fields of TokenMoEConfig: "
             "missing ['top_k'], unknown []"),
            ("segment_moe", lambda c: c.update(extra=1),
             "config block 'segment_moe' must hold the fields of SegmentMoEConfig: "
             "missing [], unknown ['extra']"),
            ("token_moe", lambda c: c.update(num_experts=3),
             "layer.0.token_router: file (16, 4) trainable, layout (16, 3) trainable"),
            ("segment_moe", lambda c: c.update(num_experts=4),
             "layer.0.seg_router: file (16, 3) trainable, layout (16, 4) trainable"),
            ("token_moe", lambda c: c.update(hidden_size=32),
             "layer.0.token_router: file (16, 4) trainable, layout (32, 4) trainable"),
            ("segment_moe", lambda c: c.update(hidden_size=8),
             "layer.0.seg_router: file (16, 3) trainable, layout (8, 3) trainable"),
            ("config", lambda c: c.update(ffn_hidden=32),
             "layer.0.shared.w1: file (16, 24) frozen, layout (16, 32) frozen"),
        ],
        ids=["token_missing_field", "segment_unknown_field", "token_num_experts",
             "segment_num_experts", "token_hidden_size", "segment_hidden_size", "ffn_hidden"],
    )
    def test_config_that_disagrees_is_rejected(self, tiny_pair, tmp_path, block, edit, reason):
        _, hybrid = tiny_pair
        path = tmp_path / "hybrid.ckpt"
        ckpt_io.save(hybrid, path)
        rewrite_header(path, lambda header: edit(header[block]))
        with pytest.raises(ValueError) as err:
            ckpt_io.load(path)
        assert type(err.value) is ValueError
        assert str(path) in str(err.value)
        assert reason in str(err.value)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda e: e["embed.tok"].update(name="embed.tokens"),
             "embed.tok: file absent, layout (48, 16) frozen"),
            (lambda e: e["final_norm"].update(name="final_scale"),
             "final_norm: file absent, layout (16,) frozen"),
            (lambda e: e["layer.0.shared.w1"].update(trainable=True),
             "layer.0.shared.w1: file (16, 24) trainable, layout (16, 24) frozen"),
            (lambda e: e["layer.1.attn.wq"].update(trainable=True),
             "layer.1.attn.wq: file (16, 16) trainable, layout (16, 16) frozen"),
            (lambda e: e["layer.0.seg_router"].update(trainable=False),
             "layer.0.seg_router: file (16, 3) frozen, layout (16, 3) trainable"),
        ],
        ids=["embed_tok_renamed", "final_norm_renamed", "shared_expert_thawed",
             "attention_thawed", "router_frozen"],
    )
    def test_manifest_off_the_layout_is_rejected(self, tiny_pair, tmp_path, edit, reason):
        _, hybrid = tiny_pair
        path = tmp_path / "hybrid.ckpt"
        ckpt_io.save(hybrid, path)
        rewrite_header(path, lambda header: edit({e["name"]: e for e in header["manifest"]}))
        with pytest.raises(ValueError) as err:
            ckpt_io.load(path)
        assert type(err.value) is ValueError
        assert str(path) in str(err.value)
        assert reason in str(err.value)


def test_importing_a_submodule_binds_the_module():
    import hymoe.upcycle as module

    assert isinstance(module, types.ModuleType)
    assert module.upcycle is upcycle
