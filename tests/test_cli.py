import json

import numpy as np
import pytest

from conftest import tiny_hybrid

from hymoe import checkpoint as ckpt_io
from hymoe.cli import main
from hymoe.config import RunSettings, load_settings, parse_kv_file
from hymoe.hybrid import HybridCheckpoint
from hymoe.run import train_run
from hymoe.training import cosine_lr


TINY_DENSE_CFG = """
# desk run, shrunk for the test suite
model = dense
vocab_size = 128
hidden_size = 16
num_layers = 2
ffn_hidden = 24
num_heads = 2
max_seq_len = 24
seq_len = 24
batch_size = 2
steps = 6
learning_rate = 0.2
checkpoint_every = 3
eval_blocks = 2
seed = 1
train_languages = major
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    corpus = root / "corpus"
    rc = main([
        "gen-corpus", "--out", str(corpus), "--seed", "3",
        "--total-tokens", "20000", "--vocab-size", "128",
    ])
    assert rc == 0
    return root


def write_cfg(path, text, **overrides):
    lines = [ln for ln in text.strip().splitlines()]
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigParsing:
    def test_parse_types_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 12  # comment\nlearning_rate = 0.5\nmodel = dense\n")
        values = parse_kv_file(cfg)
        assert values == {"steps": 12, "learning_rate": 0.5, "model": "dense"}

    def test_unknown_key_rejected_before_compute(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepz = 12\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_kv_file(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 1\nsteps = 2\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_kv_file(cfg)

    def test_bad_value_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = soon\n")
        with pytest.raises(ValueError, match="run.cfg:1"):
            parse_kv_file(cfg)

    def test_hybrid_without_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="upcycle"):
            RunSettings(model="hybrid")


class TestPipeline:
    def test_full_pipeline(self, workspace, capsys):
        corpus = workspace / "corpus"

        # 1. dense pretraining on the high-resource language
        cfg_path = write_cfg(
            workspace / "dense.cfg", TINY_DENSE_CFG,
            corpus_dir=str(corpus), out_dir=str(workspace / "dense_run"),
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        dense_ckpt = workspace / "dense_run" / "final.ckpt"
        assert dense_ckpt.exists()
        metrics = (workspace / "dense_run" / "metrics.jsonl").read_text().splitlines()
        assert len(metrics) == 6  # one record per step
        steps = [json.loads(line)["step"] for line in metrics]
        assert steps == list(range(6))

        # 2. upcycle
        hybrid_ckpt = workspace / "hybrid.ckpt"
        rc = main([
            "upcycle", "--in", str(dense_ckpt), "--out", str(hybrid_ckpt),
            "--tok-experts", "4", "--top-k", "2", "--seg-experts", "3", "--window", "6",
        ])
        assert rc == 0

        # 3. verify fidelity
        assert main([
            "verify", "--dense", str(dense_ckpt), "--hybrid", str(hybrid_ckpt),
            "--probes", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

        # 4. hybrid post-pretraining on the full mix
        cfg_path = write_cfg(
            workspace / "hybrid.cfg", TINY_DENSE_CFG,
            corpus_dir=str(corpus), out_dir=str(workspace / "hybrid_run"),
        )
        text = cfg_path.read_text().replace("model = dense", "model = hybrid")
        text = text.replace("train_languages = major", "train_languages =")
        cfg_path.write_text(text + f"init_checkpoint = {hybrid_ckpt}\n")
        assert main(["train", "--config", str(cfg_path)]) == 0
        run_dir = workspace / "hybrid_run"
        assert (run_dir / "final.ckpt").exists()
        assert (run_dir / "perplexity.json").exists()
        assert (run_dir / "routing" / "top_segments.json").exists()
        assert (run_dir / "step_3.ckpt").exists()  # periodic checkpoint

        # 5. eval + analyze CLIs on the trained hybrid
        capsys.readouterr()  # drop the train subcommand's output
        assert main([
            "eval", "--ckpt", str(run_dir / "final.ckpt"), "--corpus", str(corpus),
            "--seq-len", "24", "--blocks", "2",
        ]) == 0
        table = json.loads(capsys.readouterr().out)
        assert set(table) == {"major", "minor"}

        assert main([
            "analyze", "--ckpt", str(run_dir / "final.ckpt"), "--corpus", str(corpus),
            "--out", str(workspace / "report"), "--seq-len", "24", "--blocks", "2",
        ]) == 0
        assert (workspace / "report" / "top_segments.json").exists()

    def test_verify_fails_on_tampered_hybrid(self, workspace, capsys):
        dense_ckpt = workspace / "dense_run" / "final.ckpt"
        hybrid_ckpt = workspace / "hybrid.ckpt"
        tampered = ckpt_io.load(hybrid_ckpt)
        tampered.param("layer.0.expert.1.w1").data[0, 0] += 2.0
        bad_path = workspace / "tampered.ckpt"
        ckpt_io.save(tampered, bad_path)
        rc = main(["verify", "--dense", str(dense_ckpt), "--hybrid", str(bad_path),
                   "--probes", "4"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestVerify:
    @pytest.mark.parametrize(
        "flags, name", [(["--probes", "0"], "probes"), (["--max-len", "1"], "max_len"),
                        (["--max-len", "0"], "max_len")],
    )
    def test_a_check_that_compares_nothing_is_rejected(self, tmp_path, capsys, flags, name):
        dense, hybrid = tiny_hybrid()
        ckpt_io.save(dense, tmp_path / "dense.ckpt")
        ckpt_io.save(hybrid, tmp_path / "hybrid.ckpt")
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            main(["verify", "--dense", str(tmp_path / "dense.ckpt"),
                  "--hybrid", str(tmp_path / "hybrid.ckpt"), *flags])
        assert "OK" not in capsys.readouterr().out


    @pytest.mark.parametrize(
        "overrides, reason",
        [({"vocab_size": 64}, "vocab_size (dense 48, hybrid 64)"),
         ({"num_heads": 4}, "num_heads (dense 2, hybrid 4)")],
        ids=["vocab_size", "num_heads"],
    )
    def test_configs_that_differ_are_rejected(self, tmp_path, capsys, overrides, reason):
        dense, _ = tiny_hybrid()
        _, hybrid = tiny_hybrid(**overrides)
        ckpt_io.save(dense, tmp_path / "dense.ckpt")
        ckpt_io.save(hybrid, tmp_path / "hybrid.ckpt")
        with pytest.raises(ValueError, match=r"^configs differ, nothing to compare: ") as err:
            main(["verify", "--dense", str(tmp_path / "dense.ckpt"),
                  "--hybrid", str(tmp_path / "hybrid.ckpt")])
        assert reason in str(err.value)
        assert "OK" not in capsys.readouterr().out


class TestMetricsFile:
    def test_each_record_logs_the_learning_rate_of_its_step(self, workspace):
        cfg_path = write_cfg(
            workspace / "lr.cfg", TINY_DENSE_CFG, corpus_dir=str(workspace / "corpus"),
            out_dir=str(workspace / "lr_run"), warmup_steps=2,
        )
        settings = load_settings(cfg_path)
        train_run(settings, quiet=True)
        lines = (workspace / "lr_run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == settings.steps
        for step, line in enumerate(lines):
            record = json.loads(line)
            assert list(record) == ["step", "l_ntp", "l_balance", "total", "per_layer_f",
                                    "per_layer_p", "lr"]
            assert record["step"] == step
            assert record["lr"] == cosine_lr(
                settings.learning_rate, step, settings.steps, settings.warmup_steps
            )


class TestResume:
    def test_resume_reproduces_loss_trajectory(self, workspace):
        corpus = workspace / "corpus"

        full_cfg = write_cfg(
            workspace / "full.cfg", TINY_DENSE_CFG,
            corpus_dir=str(corpus), out_dir=str(workspace / "full_run"),
        )
        settings = load_settings(full_cfg)
        train_run(settings, quiet=True)
        full_metrics = [
            json.loads(line)
            for line in (workspace / "full_run" / "metrics.jsonl").read_text().splitlines()
        ]

        # resume from the periodic snapshot the full run wrote at step 3
        resume_cfg = write_cfg(
            workspace / "resume.cfg", TINY_DENSE_CFG,
            corpus_dir=str(corpus), out_dir=str(workspace / "resume_run"),
        )
        train_run(
            load_settings(resume_cfg,
                          init_checkpoint=str(workspace / "full_run" / "step_3.ckpt")),
            quiet=True,
        )
        resumed = [
            json.loads(line)
            for line in (workspace / "resume_run" / "metrics.jsonl").read_text().splitlines()
        ]
        assert [r["step"] for r in resumed] == [3, 4, 5]
        by_step = {r["step"]: r for r in full_metrics}
        for record in resumed:
            assert record["l_ntp"] == by_step[record["step"]]["l_ntp"]
            assert record["total"] == by_step[record["step"]]["total"]

    def test_resume_after_crash_keeps_one_record_per_step(self, workspace, monkeypatch):
        """A run dies after its step-3 snapshot, having logged steps 0-4 and part
        of 5; resuming in the same directory must leave one record per step."""
        import hymoe.run as run_mod

        corpus = workspace / "corpus"
        out = workspace / "crash_run"
        cfg_path = write_cfg(workspace / "crash.cfg", TINY_DENSE_CFG,
                             corpus_dir=str(corpus), out_dir=str(out))
        real_step = run_mod.training_step

        def dies_at_step_5(model, samples, targets, cfg, step):
            if step == 5:
                raise RuntimeError("simulated crash")
            return real_step(model, samples, targets, cfg, step)

        monkeypatch.setattr(run_mod, "training_step", dies_at_step_5)
        with pytest.raises(RuntimeError, match="simulated crash"):
            train_run(load_settings(cfg_path), quiet=True)
        monkeypatch.setattr(run_mod, "training_step", real_step)
        crashed = (out / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["step"] for line in crashed] == [0, 1, 2, 3, 4]
        with open(out / "metrics.jsonl", "a") as fh:
            fh.write('{"step": 5, "l_nt')  # torn by the crash in mid-write

        train_run(load_settings(cfg_path, init_checkpoint=str(out / "step_3.ckpt")), quiet=True)
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["step"] for r in records] == list(range(6))
        # the kept records are the crashed run's own, byte for byte
        assert [json.dumps(r) for r in records[:3]] == crashed[:3]
