import json

import numpy as np
import pytest

from hymoe.corpus import (
    CorpusManifest,
    DELIMITER_PAIRS,
    KEYWORD_BASE,
    MiniLanguage,
    default_languages,
    eval_blocks,
    generate_corpus,
    language_streams,
    load_corpus,
    mixing_weights,
    sample_batch,
)


def small_manifest(**overrides):
    base = dict(total_tokens=20_000, low_fraction=0.9, heldout_fraction=0.1)
    base.update(overrides)
    return CorpusManifest(**base)


def balanced(ids) -> bool:
    """Stack-based delimiter validator: the independent oracle."""
    closers = set(DELIMITER_PAIRS.values())
    stack = []
    for tok in ids:
        if tok in DELIMITER_PAIRS:
            stack.append(DELIMITER_PAIRS[tok])
        elif tok in closers:
            if not stack or stack.pop() != tok:
                return False
    return not stack


class TestLanguages:
    def test_default_registry_classes(self):
        langs = default_languages(num_high=2, num_low=2)
        assert [l.resource_class for l in langs] == ["high", "high", "low", "low"]

    def test_keyword_ids_disjoint_across_languages(self):
        langs = default_languages(num_high=3, num_low=3)
        seen = set()
        for lang in langs:
            overlap = seen & set(lang.keywords)
            assert not overlap, overlap
            seen |= set(lang.keywords)
        assert min(seen) >= KEYWORD_BASE

    def test_shared_sub_alphabet_below_keyword_base(self):
        # identifiers/operators/delimiters all sit below the keyword block
        assert max(DELIMITER_PAIRS) < KEYWORD_BASE

    def test_bad_resource_class_rejected(self):
        with pytest.raises(ValueError):
            MiniLanguage("x", "medium", tuple(range(64, 70)))


class TestGeneration:
    def test_fixed_seed_is_bytewise_deterministic(self, tmp_path):
        langs = default_languages()
        a, b = tmp_path / "a", tmp_path / "b"
        generate_corpus(langs, small_manifest(), seed=5, out_dir=a)
        generate_corpus(langs, small_manifest(), seed=5, out_dir=b)
        for name in ("train.tsv", "heldout.tsv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_changes_corpus(self, tmp_path):
        langs = default_languages()
        a, b = tmp_path / "a", tmp_path / "b"
        generate_corpus(langs, small_manifest(), seed=5, out_dir=a)
        generate_corpus(langs, small_manifest(), seed=6, out_dir=b)
        assert (a / "train.tsv").read_bytes() != (b / "train.tsv").read_bytes()

    def test_realized_ratio_within_one_percent(self, tmp_path):
        stats = generate_corpus(
            default_languages(), small_manifest(total_tokens=100_000), seed=1, out_dir=tmp_path
        )
        low = sum(s["tokens"] for s in stats["languages"].values()
                  if s["resource_class"] == "low")
        high = sum(s["tokens"] for s in stats["languages"].values()
                   if s["resource_class"] == "high")
        ratio = low / high
        assert abs(ratio - 9.0) / 9.0 <= 0.01

    def test_every_sample_has_balanced_delimiters(self, tmp_path):
        generate_corpus(default_languages(), small_manifest(), seed=2, out_dir=tmp_path)
        for split in ("train.tsv", "heldout.tsv"):
            for _, ids in load_corpus(tmp_path / split):
                assert balanced(ids)

    def test_alphabet_overflow_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="overflow"):
            generate_corpus(
                default_languages(), small_manifest(), seed=0, out_dir=tmp_path, vocab_size=70
            )

    def test_needs_both_resource_classes(self, tmp_path):
        highs = [l for l in default_languages(num_high=2) if l.resource_class == "high"]
        with pytest.raises(ValueError, match="resource"):
            generate_corpus(highs, small_manifest(), seed=0, out_dir=tmp_path)

    def test_line_format_and_splits_disjoint(self, tmp_path):
        generate_corpus(default_languages(), small_manifest(), seed=3, out_dir=tmp_path)
        train = (tmp_path / "train.tsv").read_text().splitlines()
        heldout = (tmp_path / "heldout.tsv").read_text().splitlines()
        for line in train[:20] + heldout[:20]:
            tag, ids = line.split("\t")
            assert tag in ("major", "minor")
            assert all(tok.isdigit() for tok in ids.split())
        assert not set(train) & set(heldout)

    def test_manifest_records_stats(self, tmp_path):
        generate_corpus(default_languages(), small_manifest(), seed=4, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["low_fraction"] == 0.9
        for name in ("major", "minor"):
            assert manifest["languages"][name]["tokens"] > 0


class TestLoadCorpus:
    @pytest.mark.parametrize("bad_line,message", [
        ("major 12 13 14", "expected '<lang>\\\\t<ids>'"),
        ("minor\t12 x3 14", "token ids must be integers"),
    ])
    def test_malformed_row_names_file_and_line(self, tmp_path, bad_line, message):
        path = tmp_path / "train.tsv"
        path.write_text("major\t12 13\n\n" + bad_line + "\nminor\t14\n")
        with pytest.raises(ValueError, match=f"train\\.tsv:3: {message}"):
            load_corpus(path)

    def test_well_formed_rows_load(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("major\t12 13\n\nminor\t14\n")
        assert load_corpus(path) == [("major", [12, 13]), ("minor", [14])]


class TestBatching:
    @pytest.fixture
    def corpus(self, tmp_path):
        generate_corpus(default_languages(), small_manifest(), seed=7, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        streams = language_streams(load_corpus(tmp_path / "train.tsv"))
        return streams, manifest

    def test_mixing_weights_follow_manifest_ratio(self, corpus):
        streams, manifest = corpus
        weights = mixing_weights(sorted(streams), manifest)
        assert weights["minor"] == pytest.approx(0.9)
        assert weights["major"] == pytest.approx(0.1)

    def test_single_class_weights_are_uniform(self, corpus):
        _, manifest = corpus
        weights = mixing_weights(["major"], manifest)
        assert weights == {"major": 1.0}

    def test_batches_deterministic_per_seed_and_step(self, corpus):
        streams, manifest = corpus
        weights = mixing_weights(sorted(streams), manifest)
        s1, t1, l1 = sample_batch(streams, weights, 16, 4, seed=0, step=3)
        s2, t2, l2 = sample_batch(streams, weights, 16, 4, seed=0, step=3)
        assert l1 == l2
        for a, b in zip(s1 + t1, s2 + t2):
            np.testing.assert_array_equal(a, b)
        s3, _, _ = sample_batch(streams, weights, 16, 4, seed=0, step=4)
        assert any(not np.array_equal(a, b) for a, b in zip(s1, s3))

    def test_targets_shift_samples_by_one(self, corpus):
        streams, manifest = corpus
        weights = mixing_weights(sorted(streams), manifest)
        samples, targets, langs = sample_batch(streams, weights, 16, 4, seed=1, step=0)
        for sample, target, lang in zip(samples, targets, langs):
            np.testing.assert_array_equal(sample[1:], target[:-1])
            assert len(sample) == len(target) == 16

    def test_mix_approximates_nine_to_one(self, corpus):
        streams, manifest = corpus
        weights = mixing_weights(sorted(streams), manifest)
        counts = {"major": 0, "minor": 0}
        for step in range(200):
            _, _, langs = sample_batch(streams, weights, 16, 4, seed=2, step=step)
            for lang in langs:
                counts[lang] += 1
        frac = counts["minor"] / (counts["major"] + counts["minor"])
        assert 0.85 <= frac <= 0.95

    def test_eval_blocks_fixed_and_disjoint(self, corpus):
        streams, _ = corpus
        samples, targets = eval_blocks(streams["major"], 16, 4)
        again, _ = eval_blocks(streams["major"], 16, 4)
        for a, b in zip(samples, again):
            np.testing.assert_array_equal(a, b)
        flat = streams["major"]
        np.testing.assert_array_equal(samples[1], flat[17:33])
