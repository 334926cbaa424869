import base64
import contextlib
import copy
import io
import json
import logging
import os
import re
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphtag import experiment
from morphtag.cli import main
from morphtag.corpus import read_vertical, write_vertical
from morphtag.errors import ConfigError, DataError, FormatError, SchemaError
from morphtag.evaluation import evaluate
from morphtag.features import FeatureConfig
from morphtag.experiment import (GridRow, format_results, parse_spec,
                                 run_experiment)
from morphtag.lexicon import dump_lexicon, load_lexicon
from morphtag.rules import format_rules, parse_rules
from morphtag.synthetic import (SyntheticConfig, derive_safe_rules, generate_synthetic,
                                split_corpus)
from morphtag.tagger import Model, decode


def _b64(*cells) -> str:
    """The `values` field of a model file holding these cells."""
    return base64.b64encode(struct.pack(f"<{len(cells)}d", *cells)).decode("ascii")


def _ints(*ints) -> str:
    """The `lengths` or `tag_ids` field of a model file of at most 65,535
    tags holding these integers."""
    return base64.b64encode(struct.pack(f"<{len(ints)}H", *ints)).decode("ascii")


SPEC_TEXT = """
# grid over lexicon features
train=train.tsv
test=test.tsv
lexicon=lex.tsv
rules=rules.dsl
epochs=3
seed=1
row: id=1 lexicon_features=off rule_filter=off hard_rules=off beam=1
row: id=2 lexicon_features=on rule_filter=off hard_rules=off beam=1
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    base = tmp_path_factory.mktemp("data")
    cfg = SyntheticConfig(tag_count=10, vocab_size=60, sentence_count=40,
                          ambiguity_rate=0.3)
    corpus, lexicon = generate_synthetic(cfg, 5)
    train, test = split_corpus(corpus, (0.8, 0.2))
    (base / "train.tsv").write_text(write_vertical(train), encoding="utf-8")
    (base / "test.tsv").write_text(write_vertical(test), encoding="utf-8")
    (base / "lex.tsv").write_text(dump_lexicon(lexicon), encoding="utf-8")
    (base / "rules.dsl").write_text("", encoding="utf-8")
    return base


class TestSpecParsing:
    def test_full(self):
        spec = parse_spec(SPEC_TEXT, base_dir="/data")
        assert spec.train_path == "/data/train.tsv"
        assert spec.lexicon_path == "/data/lex.tsv"
        assert spec.epochs == 3 and spec.seed == 1
        assert spec.rows == [
            GridRow("1", False, "off", False, 1),
            GridRow("2", True, "off", False, 1),
        ]

    def test_absolute_paths_kept(self):
        spec = parse_spec("train=/a\ntest=/b\n", base_dir="/data")
        assert spec.train_path == "/a"

    def test_missing_test(self):
        with pytest.raises(ConfigError):
            parse_spec("train=x\n")

    def test_bad_row(self):
        with pytest.raises(FormatError):
            parse_spec("train=x\ntest=y\nrow: lexicon_features=on\n")
        with pytest.raises(FormatError):
            parse_spec("train=x\ntest=y\nrow: id= beam=1\n")
        with pytest.raises(FormatError):
            parse_spec("train=x\ntest=y\nrow: id=1 rule_filter=bogus\n")
        with pytest.raises(FormatError):
            parse_spec("train=x\ntest=y\nrow: id=1 beam=zero\n")
        # Unknown keys, repeated ids and repeated keys (whose last value
        # used to win) would otherwise run a different grid from the one
        # written.
        for rows, line in (("row: id=1 lexicon_feature=on\n", 3), ("row: id=2 bema=3\n", 3),
                           ("row: id=1\nrow: id=1 beam=2\n", 4),
                           ("row: id=1 beam=2 beam=3\n", 3), ("row: id=1 id=2\n", 3),
                           ("row: id=1 beam\n", 3), ("row: id=1 beam=0\n", 3)):
            with pytest.raises(FormatError) as info:
                parse_spec("train=x\ntest=y\n" + rows, path="grid.spec")
            assert str(info.value).startswith(f"grid.spec:{line}: ")

    def test_unexpected_line(self):
        with pytest.raises(FormatError):
            parse_spec("train=x\ntest=y\nwhat now\n")
        with pytest.raises(FormatError) as info:
            parse_spec("train=x\ntest=y\nepoch=1\n", path="grid.spec")
        assert str(info.value) == "grid.spec:3: unknown key 'epoch'"
        for text, line in (("epochs=3\nepochs=1\n", 4), ("train=z\n", 3)):
            with pytest.raises(FormatError) as info:
                parse_spec("train=x\ntest=y\n" + text, path="grid.spec")
            assert str(info.value).startswith(f"grid.spec:{line}: repeated key ")


class TestRunExperiment:
    def test_grid(self, dataset):
        spec = parse_spec(SPEC_TEXT, base_dir=str(dataset))
        results = run_experiment(spec)
        assert [r[0] for r in results] == ["1", "2"]
        for _, sent_acc, tok_acc in results:
            assert 0.0 <= sent_acc <= tok_acc <= 1.0

    def test_identical_rows_identical_results(self, dataset):
        text = SPEC_TEXT + "row: id=2b lexicon_features=on\n"
        spec = parse_spec(text, base_dir=str(dataset))
        results = {r[0]: r[1:] for r in run_experiment(spec)}
        assert results["2"] == results["2b"]

    def test_row_without_lexicon_rejected(self, dataset):
        text = "train=train.tsv\ntest=test.tsv\nrow: id=1 lexicon_features=on\n"
        spec = parse_spec(text, base_dir=str(dataset))
        with pytest.raises(ConfigError) as exc:
            run_experiment(spec)
        assert "row 1" in str(exc.value)

    def test_format_results(self):
        out = format_results([("1", 0.5, 0.75)])
        assert out == "1\t0.5000\t0.7500\n"
        assert format_results([]) == ""


class _TwoArgError(DataError):
    """A package error whose constructor takes two arguments."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class TestRowErrors:
    """A failing grid row raises its own exception, with the row id put in
    front of its message."""

    SPEC = "train=train.tsv\ntest=test.tsv\nepochs=1\nrow: id=r7\n"

    @staticmethod
    def _fail_with(monkeypatch, exc):
        def failing(*args, **kwargs):
            raise exc
        monkeypatch.setattr(experiment, "train", failing)

    @pytest.mark.parametrize("exc, message", [
        (_TwoArgError("no weights", "feature 3"), "error: row r7: no weights at feature 3"),
        (FormatError("bad field", 4, "x.tsv"), "error: row r7: x.tsv:4: bad field"),
    ])
    def test_cli_exit_code_and_one_line(self, exc, message, dataset, tmp_path,
                                        monkeypatch, capsys):
        self._fail_with(monkeypatch, exc)
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC, encoding="utf-8")
        assert main(["experiment", "--spec", str(spec), "--base-dir", str(dataset)]) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_cli_internal_error_exits_4(self, dataset, tmp_path, monkeypatch, capsys):
        """Any other package error is an internal invariant violation."""
        self._fail_with(monkeypatch, SchemaError("unknown POS class 'Q'"))
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC, encoding="utf-8")
        assert main(["experiment", "--spec", str(spec), "--base-dir", str(dataset)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "internal error: row r7: unknown POS class 'Q'"]

    def test_exception_kept(self, dataset, monkeypatch):
        exc = FormatError("bad field", 4, "x.tsv")
        self._fail_with(monkeypatch, exc)
        with pytest.raises(FormatError) as info:
            run_experiment(parse_spec(self.SPEC, base_dir=str(dataset)))
        assert info.value is exc
        assert (exc.line, exc.path) == (4, "x.tsv")
        assert str(exc) == "row r7: x.tsv:4: bad field"


class TestCliTrainTag:
    def test_train_then_tag(self, dataset, tmp_path, capsys):
        model = tmp_path / "model.json"
        out = tmp_path / "tagged.tsv"
        assert main(["train", "--train", str(dataset / "train.tsv"),
                     "--model", str(model),
                     "--lexicon", str(dataset / "lex.tsv"),
                     "--lexicon-features", "on", "--epochs", "3"]) == 0
        assert "epoch 1" in capsys.readouterr().out
        assert main(["tag", "--model", str(model),
                     "--input", str(dataset / "test.tsv"),
                     "--output", str(out),
                     "--lexicon", str(dataset / "lex.tsv")]) == 0
        gold = read_vertical((dataset / "test.tsv").read_text())
        tagged = read_vertical(out.read_text())
        assert len(tagged.sentences) == len(gold.sentences)
        total = correct = 0
        for gs, ts in zip(gold.sentences, tagged.sentences):
            for gt, tt in zip(gs.tokens, ts.tokens):
                assert gt.surface == tt.surface
                total += 1
                correct += gt.gold_tag == tt.gold_tag
        assert correct / total > 0.5

    def test_usage_error_exit_3(self, capsys):
        assert main(["train", "--train", "x.tsv"]) == 3  # --model missing
        assert main(["no-such-command"]) == 3

    @pytest.mark.parametrize("option, value, expected", [
        ("--aggressiveness", "nan", 3), ("--margin", "nan", 3), ("--margin", "inf", 3),
        ("--aggressiveness", "inf", 0)])
    def test_train_option_values(self, option, value, expected, dataset, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--train", str(dataset / "train.tsv"), "--epochs", "1",
                     option, value, "--model", str(model)]) == expected
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == (expected != 0)
        assert model.exists() == (expected == 0)

    @pytest.mark.parametrize("seed, sentences", [(1, 10), (4, 20)])
    def test_diverging_training_exit_3(self, seed, sentences, tmp_path, capsys):
        """Uncapped steps with a margin of 1e308 overflow the weights: on the
        first corpus a PA update meets a score that is not finite, on the
        second an averaged cell is not finite.  Either way training exits 3
        with one line naming both options, and writes no model."""
        corpus, model = tmp_path / "c.tsv", tmp_path / "m.json"
        assert main(["gen-synthetic", "--seed", str(seed), "--tags", "6", "--vocab", "30",
                     "--sentences", str(sentences), "--out-corpus", str(corpus),
                     "--out-lexicon", str(tmp_path / "l.tsv")]) == 0
        capsys.readouterr()
        assert main(["train", "--train", str(corpus), "--model", str(model),
                     "--aggressiveness", "inf", "--margin", "1e308", "--epochs", "2"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "aggressiveness" in err[0] and "margin" in err[0]
        assert not model.exists()

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["train", "--train", str(tmp_path / "none.tsv"),
                     "--model", str(tmp_path / "m.json")]) == 3

    def test_malformed_corpus_exit_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tX\tY\tZ\n")
        assert main(["train", "--train", str(bad),
                     "--model", str(tmp_path / "m.json")]) == 2

    def test_lexicon_features_need_lexicon(self, dataset, tmp_path):
        assert main(["train", "--train", str(dataset / "train.tsv"),
                     "--model", str(tmp_path / "m.json"),
                     "--lexicon-features", "on"]) == 3

    def test_test_only_rule_filter(self, dataset, tmp_path, capsys):
        """A model trained with --rules-mode test-only records
        lexicon_filter="test-only" and tags with the rules filtering its
        lexicon features: the tags of a library decode of the loaded model,
        and the accuracies of the grid's test-only row.  Without --rules it
        cannot tag."""
        train_corpus = read_vertical((dataset / "train.tsv").read_text(encoding="utf-8"))
        test_corpus = read_vertical((dataset / "test.tsv").read_text(encoding="utf-8"))
        lexicon = load_lexicon((dataset / "lex.tsv").read_text(encoding="utf-8"))
        rules = tmp_path / "rules.dsl"
        rules.write_text(format_rules(derive_safe_rules(train_corpus, lexicon)),
                         encoding="utf-8")
        cascade = parse_rules(rules.read_text(encoding="utf-8"))
        model_path, out = tmp_path / "model.json", tmp_path / "tagged.tsv"
        assert main(["train", "--train", str(dataset / "train.tsv"), "--model", str(model_path),
                     "--lexicon", str(dataset / "lex.tsv"), "--rules", str(rules),
                     "--rules-mode", "test-only", "--lexicon-features", "on",
                     "--epochs", "3"]) == 0
        tag_argv = ["tag", "--model", str(model_path), "--input", str(dataset / "test.tsv"),
                    "--output", str(out), "--lexicon", str(dataset / "lex.tsv")]
        assert main(tag_argv + ["--rules", str(rules)]) == 0
        tagged = [[tok.gold_tag for tok in s.tokens]
                  for s in read_vertical(out.read_text(encoding="utf-8")).sentences]

        model = Model.load(model_path)
        assert model.cfg.lexicon_filter == "test-only"
        filtered = [decode(s, model, lexicon, cascade) for s in test_corpus]
        assert tagged == [tags for tags, _ in filtered]
        # The filter reaches the lexicon features: an unfiltered copy of the
        # model scores differently.
        unfiltered = copy.copy(model)
        unfiltered.cfg = FeatureConfig(lexicon_filter="none")
        assert filtered != [decode(s, unfiltered, lexicon, cascade) for s in test_corpus]

        spec = parse_spec(f"train=train.tsv\ntest=test.tsv\nlexicon=lex.tsv\nrules={rules}\n"
                          "epochs=3\nrow: id=5 lexicon_features=on rule_filter=test-only\n",
                          base_dir=str(dataset))
        [(_, sentence_acc, token_acc)] = run_experiment(spec)
        report = evaluate(test_corpus, tagged, {tok.surface for tok in train_corpus.tokens()})
        assert (report.sentence_accuracy, report.token_accuracy) == (sentence_acc, token_acc)

        capsys.readouterr()
        assert main(tag_argv) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("train_flags, missing", [
        (["--lexicon-features", "on"], "--lexicon"),
        (["--lexicon-features", "on", "--rules-mode", "soft"], "--rules"),
    ])
    def test_tag_needs_inputs_the_model_was_trained_with(
            self, dataset, tmp_path, capsys, train_flags, missing):
        """A model with lexicon features cannot tag without --lexicon, nor
        one whose features were rule-filtered (--rules-mode soft) without
        --rules: exit 3 with one line, and no output written.  With the
        input it tags."""
        rules = tmp_path / "rules.dsl"
        rules.write_text(format_rules(derive_safe_rules(
            read_vertical((dataset / "train.tsv").read_text(encoding="utf-8")),
            load_lexicon((dataset / "lex.tsv").read_text(encoding="utf-8")))),
            encoding="utf-8")
        inputs = {"--lexicon": str(dataset / "lex.tsv"), "--rules": str(rules)}
        model, out = tmp_path / "model.json", tmp_path / "tagged.tsv"
        assert main(["train", "--train", str(dataset / "train.tsv"), "--model", str(model),
                     "--lexicon", inputs["--lexicon"], "--rules", inputs["--rules"],
                     "--epochs", "1", *train_flags]) == 0
        tag_argv = ["tag", "--model", str(model), "--input", str(dataset / "test.tsv"),
                    "--output", str(out)]
        given = [arg for flag, path in inputs.items() if flag != missing
                 for arg in (flag, path)]
        capsys.readouterr()
        assert main(tag_argv + given) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and missing in err[0]
        assert not out.exists()
        assert main(tag_argv + given + [missing, inputs[missing]]) == 0

    def test_rules_mode_without_lexicon_features(self, dataset, tmp_path):
        """Without lexicon features the rules have nothing to filter: a
        --rules-mode soft model records lexicon_filter "none" and tags
        without --rules."""
        model, out = tmp_path / "model.json", tmp_path / "tagged.tsv"
        assert main(["train", "--train", str(dataset / "train.tsv"), "--model", str(model),
                     "--rules", str(dataset / "rules.dsl"), "--rules-mode", "soft",
                     "--epochs", "1"]) == 0
        assert json.loads(model.read_text(encoding="utf-8"))["config"] == {
            "use_lexicon_features": False, "lexicon_filter": "none"}
        assert main(["tag", "--model", str(model), "--input", str(dataset / "test.tsv"),
                     "--output", str(out)]) == 0

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--candidates", "lexicon"], "needs a lexicon"),
        ("train", ["--candidates", "lexicon+rules", "--rules", "R"], "needs a lexicon"),
        ("train", ["--candidates", "lexicon+rules", "--lexicon", "L"], "needs rules"),
        ("tag", ["--candidates", "lexicon"], "needs a lexicon"),
        ("tag", ["--candidates", "lexicon+rules", "--lexicon", "L"], "needs rules"),
        ("tag", ["--hard-rules", "on", "--rules", "R"], "hard output rules need a lexicon"),
        ("experiment", ["row: id=h hard_rules=on"], "hard output rules need a lexicon"),
        ("train", ["--lexicon-features", "on"], "lexicon features need a lexicon"),
        ("train", ["--lexicon-features", "on", "--lexicon", "L", "--rules-mode", "soft"],
         "rule-filtered lexicon features need rules"),
        ("tag", ["--hard-rules", "on"], "error: --hard-rules on requires --rules"),
    ])
    def test_candidates_need_their_inputs(self, command, flags, message, dataset, tmp_path,
                                          capsys):
        """A candidate source, hard output rules or lexicon features without
        the lexicon or the rules they read exit 3 with one line and write
        nothing, instead of running on every tag."""
        rules = tmp_path / "rules.dsl"
        rules.write_text("RULE r\nIF 0 SURFACE-IN x\nTHEN RETAIN A\nEND\n", encoding="utf-8")
        paths = {"L": str(dataset / "lex.tsv"), "R": str(rules)}
        flags = [paths.get(f, f) for f in flags]
        model, out = tmp_path / "model.json", tmp_path / "out.tsv"
        if command == "train":
            argv = ["train", "--train", str(dataset / "train.tsv"), "--model", str(model),
                    "--epochs", "1", *flags]
            written = model
        elif command == "tag":
            assert main(["train", "--train", str(dataset / "train.tsv"), "--model", str(model),
                         "--epochs", "1"]) == 0
            argv = ["tag", "--model", str(model), "--input", str(dataset / "test.tsv"),
                    "--output", str(out), *flags]
            written = out
        else:
            spec = tmp_path / "grid.spec"
            spec.write_text(f"train={dataset / 'train.tsv'}\ntest={dataset / 'test.tsv'}\n"
                            f"rules={rules}\nepochs=1\n{flags[0]}\n", encoding="utf-8")
            argv = ["experiment", "--spec", str(spec), "--out", str(out)]
            written = out
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not written.exists()

    # A well-formed format-6 model: one feature with one weight.  It has no
    # lexicon features, so it tags without --lexicon.
    MODEL = {"format": 6, "tags": ["A", "B"], "config": {"use_lexicon_features": False},
             "meta": {}, "features": ["w0=a"], "lengths": _ints(1), "tag_ids": _ints(1),
             "values": _b64(1.0)}
    # Each broken model is MODEL with these fields replaced; None drops one.
    BROKEN_MODELS = {
        "model-tag-id-out-of-range": {"tag_ids": _ints(5)},
        "model-missing-key": {"features": None},
        "model-wrong-type": {"tags": 5},
        "model-tag-not-string": {"tags": [{"A": 1}, "B"]},
        "model-unknown-config-key": {"config": {"nope": 1}},
        # Template settings of format 2, which are fixed now.
        "model-removed-config-key": {"config": {"max_affix_len": 2.5}},
        "model-config-flag-not-bool": {"config": {"use_lexicon_features": "no"}},
        "model-bad-lexicon-filter": {"config": {"use_lexicon_features": False,
                                                "lexicon_filter": "test_only"}},
        "model-nan-weight": {"values": _b64(float("nan"))},
        "model-inf-weight": {"values": _b64(float("-inf"))},
        "model-lengths-sum-short": {"lengths": _ints(1), "tag_ids": _ints(0, 1),
                                    "values": _b64(1.0, 2.0)},
        "model-lengths-count": {"features": ["w0=a", "w0=b", "w0=c"], "lengths": _ints(1, 1),
                                "tag_ids": _ints(0, 1), "values": _b64(1.0, 2.0)},
        "model-duplicate-feature": {"features": ["w0=a", "w0=a"], "lengths": _ints(1, 1),
                                    "tag_ids": _ints(0, 1), "values": _b64(1.0, 2.0)},
        # A repeated tag id used to load as its last value.
        "model-tag-id-repeated": {"lengths": _ints(2), "tag_ids": _ints(1, 1),
                                  "values": _b64(1.0, 2.0)},
        "model-tag-ids-descend": {"lengths": _ints(2), "tag_ids": _ints(1, 0),
                                  "values": _b64(1.0, 2.0)},
        "model-values-count": {"values": _b64(1.0, 2.0)},
        # `values` as a JSON array, as formats 2 and 3 wrote it.
        "model-values-list": {"values": [1.0]},
        "model-string-value": {"values": ["1.0"]},
        "model-null-value": {"values": [None]},
        "model-nested-value": {"values": [[1.0]]},
        # Without validate=True, b64decode would drop the "*" and read 1.0.
        "model-values-not-base64": {"values": _b64(1.0)[:4] + "*" + _b64(1.0)[4:]},
        "model-values-not-ascii": {"values": "\u00c4" + _b64(1.0)[1:]},
        "model-values-length": {"values": _b64(1.0)[:8]},
        # `tag_ids` as a JSON array, as format 5 wrote it.
        "model-tag-ids-list": {"tag_ids": [1]},
        "model-tag-ids-odd-bytes": {"tag_ids": base64.b64encode(b"\x01\x00\x00").decode()},
        "model-lengths-not-base64": {"lengths": _ints(1)[:2] + "*" + _ints(1)[2:]},
        # Well-formed files of older formats: they have to be retrained.
        "model-format-1": {"format": 1, "features": {"w0=a": 0},
                           "weights": {"0": {"1": 1.0}}, "averaged": {"0": {"1": 1.0}}},
        "model-format-2": {"format": 2, "config": {
            "max_affix_len": 9, "use_lexicon_features": True, "lexicon_filter": "none",
            "use_affixes": True, "use_ortho": True, "use_context_words": True,
            "use_tag_context": True, "use_bilexical": True, "use_word_bigrams": True},
            "values": [1.0]},
        "model-format-3": {"format": 3, "values": [1.0]},
        # Format 4 marked test-only rule filtering in meta, not in config.
        "model-format-4": {"format": 4, "meta": {"rules_mode": "test-only"}},
        "model-format-5": {"format": 5, "lengths": None, "offsets": [0, 1], "tag_ids": [1]},
    }

    def test_well_formed_model_tags(self, tmp_path):
        """The base of the broken models loads and tags, and so does one
        whose lexicon features are off but whose filter says "rules": it
        loads as "none" and needs no --rules."""
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("a\tA\nb\tB\n\n", encoding="utf-8")
        model = tmp_path / "model.json"
        for config in (self.MODEL["config"],
                       {"use_lexicon_features": False, "lexicon_filter": "rules"}):
            model.write_text(json.dumps({**self.MODEL, "config": config}), encoding="utf-8")
            assert main(["tag", "--model", str(model), "--input", str(corpus),
                         "--output", str(tmp_path / "out.tsv")]) == 0
            loaded = Model.load(model)
            assert loaded.cfg == FeatureConfig(use_lexicon_features=False)
            assert loaded.averaged[0].tolist() == [0.0, 1.0]

    def test_model_without_static_rows_tags(self, tmp_path):
        """A model whose only row is a tag-context feature: no static
        feature of the input has a row, so every static sum is empty."""
        corpus, model, out = tmp_path / "corpus.tsv", tmp_path / "model.json", tmp_path / "out.tsv"
        corpus.write_text("x\ny\n\n", encoding="utf-8")
        model.write_text(json.dumps({**self.MODEL, "features": ["t-1=A"],
                                     "values": _b64(1.5)}), encoding="utf-8")
        assert main(["tag", "--model", str(model), "--input", str(corpus),
                     "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "x\tA\ny\tB\n\n"

    def test_overflowing_model_exits_2(self, tmp_path, capsys):
        """Every cell is finite, so the model loads, but the two rows of
        token `a` sum to -inf at both tags: no tag has a finite score."""
        corpus, model, out = tmp_path / "corpus.tsv", tmp_path / "model.json", tmp_path / "out.tsv"
        corpus.write_text("a\n\n", encoding="utf-8")
        model.write_text(json.dumps({**self.MODEL, "features": ["w0=a", "pre1=a"],
                                     "lengths": _ints(2, 2), "tag_ids": _ints(0, 1, 0, 1),
                                     "values": _b64(*[-1e308] * 4)}), encoding="utf-8")
        assert main(["tag", "--model", str(model), "--input", str(corpus),
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the model's scores overflow") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case, expected", [
        ("missing-model", 3),
        ("model-not-json", 2),
        *((case, 2) for case in BROKEN_MODELS),
        ("corpus-not-utf8", 2),
        ("output-dir-missing", 3),
        ("model-dir-missing", 3),
        ("corpus-invalid-tag", 2),
        ("lexicon-invalid-tag", 2),
        ("spec-epochs-not-int", 2),
    ])
    def test_broken_input_exit_code(self, case, expected, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("a\tA\nb\tB\n\n", encoding="utf-8")
        model = tmp_path / "model.json"
        if case == "model-not-json":
            model.write_text('{"format": 5, "tags": ["A", "B"', encoding="utf-8")
        elif case in self.BROKEN_MODELS:
            fields = {**self.MODEL, **self.BROKEN_MODELS[case]}
            model.write_text(json.dumps({k: v for k, v in fields.items() if v is not None}),
                             encoding="utf-8")
        if case == "corpus-not-utf8":
            corpus.write_bytes("café\tA\n\n".encode("latin-1"))
            argv = ["stats", "--corpus", str(corpus)]
        elif case == "output-dir-missing":
            missing = tmp_path / "no-such-dir"
            argv = ["gen-synthetic", "--tags", "2", "--vocab", "4", "--sentences", "2",
                    "--out-corpus", str(missing / "corpus.tsv"),
                    "--out-lexicon", str(missing / "lexicon.tsv")]
        elif case == "model-dir-missing":
            argv = ["train", "--train", str(corpus), "--epochs", "1",
                    "--model", str(tmp_path / "no-such-dir" / "model.json")]
        elif case == "corpus-invalid-tag":
            corpus.write_text("a\tA\nb\t[B\n\n", encoding="utf-8")
            argv = ["train", "--train", str(corpus), "--epochs", "1", "--model", str(model)]
        elif case == "lexicon-invalid-tag":
            lexicon = tmp_path / "lexicon.tsv"
            lexicon.write_text("12\t-r1\n", encoding="utf-8")
            argv = ["train", "--train", str(corpus), "--lexicon", str(lexicon),
                    "--epochs", "1", "--model", str(model)]
        elif case == "spec-epochs-not-int":
            spec = tmp_path / "spec.txt"
            spec.write_text(f"train={corpus}\ntest={corpus}\nepochs = 1;\n", encoding="utf-8")
            argv = ["experiment", "--spec", str(spec)]
        else:
            argv = ["tag", "--model", str(model), "--input", str(corpus),
                    "--output", str(tmp_path / "out.tsv")]
        assert main(argv) == expected
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        if case in ("model-format-2", "model-format-3", "model-format-4", "model-format-5"):
            assert lines[0].endswith(f"unsupported model format {case[-1]}")
        elif "value" in case or "weight" in case:
            assert "'values'" in lines[0]
        elif "lengths" in case:
            assert "'lengths'" in lines[0]
        elif case in ("model-tag-ids-list", "model-tag-ids-odd-bytes"):
            assert "'tag_ids'" in lines[0]


class TestCliBaseline:
    def test_modes_run(self, dataset, capsys):
        for mode in ("mft-fail", "mft-default", "mft-guesser"):
            assert main(["baseline", mode,
                         "--train", str(dataset / "train.tsv"),
                         "--test", str(dataset / "test.tsv")]) == 0
            assert "token accuracy" in capsys.readouterr().out

    def test_lexicon_mode(self, dataset, capsys):
        assert main(["baseline", "mft-lexicon",
                     "--train", str(dataset / "train.tsv"),
                     "--test", str(dataset / "test.tsv"),
                     "--lexicon", str(dataset / "lex.tsv")]) == 0
        out = capsys.readouterr().out
        acc = float(out.strip().split("\t")[-1])
        assert 0.0 <= acc <= 100.0

    def test_lexicon_mode_needs_lexicon(self, dataset):
        assert main(["baseline", "mft-lexicon",
                     "--train", str(dataset / "train.tsv"),
                     "--test", str(dataset / "test.tsv")]) == 3

    def test_guesser_reads_the_given_table(self, tmp_path, capsys):
        """Both test words are unknown; the table guesses B for a final `b`
        and C for everything else, so it tags both right."""
        train, test, table = (tmp_path / name for name in ("train.tsv", "test.tsv", "g.tsv"))
        train.write_text("a\tA\n\n", encoding="utf-8")
        test.write_text("b\tB\nc\tC\n\n", encoding="utf-8")
        table.write_text("b\tB\nDEFAULT\tC\n", encoding="utf-8")
        assert main(["baseline", "mft-guesser", "--train", str(train), "--test", str(test),
                     "--guesser", str(table)]) == 0
        assert capsys.readouterr().out == "mft-guesser\ttoken accuracy\t100.00\n"


class TestCliExperiment:
    def test_spec_run(self, dataset, tmp_path, capsys, caplog):
        """A successful grid writes the table and nothing to stderr; its
        progress lines go to the `morphtag.experiment` logger at INFO."""
        caplog.set_level(logging.INFO, logger="morphtag.experiment")
        spec = tmp_path / "grid.spec"
        # Row 3 has no lexicon features to filter: it reuses row 1's model.
        spec.write_text(SPEC_TEXT + "row: id=3 lexicon_features=off rule_filter=train+test\n")
        out = tmp_path / "results.tsv"
        assert main(["experiment", "--spec", str(spec),
                     "--base-dir", str(dataset), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert [line.split("\t")[0] for line in lines] == ["1", "2", "3"]
        assert lines[2].split("\t")[1:] == lines[0].split("\t")[1:]
        assert capsys.readouterr().err == ""
        progress = [r.getMessage() for r in caplog.records if r.name == "morphtag.experiment"]
        assert [line for line in progress if line.startswith("training")] == [
            "training model for (False, 'none')", "training model for (True, 'none')"]
        assert [line.split(":")[0] for line in progress if line.startswith("row")] == [
            "row 1", "row 2", "row 3"]

    def test_failing_row_one_line(self, dataset, tmp_path, capsys):
        """A grid whose second row fails exits 3 with its one error line,
        after the first row has run."""
        spec = tmp_path / "grid.spec"
        spec.write_text("train=train.tsv\ntest=test.tsv\nrules=rules.dsl\nepochs=1\n"
                        "row: id=1\nrow: id=2 hard_rules=on\n")
        out = tmp_path / "results.tsv"
        assert main(["experiment", "--spec", str(spec), "--base-dir", str(dataset),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: row 2: hard output rules need a lexicon"]
        assert not out.exists()


class TestCliLemmatize:
    def test_check_and_dump(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("четох\tV1\tчета\nплетох\tV1\tплета\n")
        rules_out = tmp_path / "rules.tsv"
        assert main(["lemmatize", "--lexicon", str(lex), "--check",
                     "--dump-rules", str(rules_out)]) == 0
        assert "2/2 correct" in capsys.readouterr().out
        assert "V1\tох\tа\t2" in rules_out.read_text()

    def test_check_reports_a_miss(self, tmp_path, capsys):
        # The longer suffix rule (-b -> -c, from "b") wins for "ab", whose
        # own lemma needs the empty rewrite.
        lex = tmp_path / "lex.tsv"
        lex.write_text("b\tX\tc\nab\tX\tab\n")
        assert main(["lemmatize", "--lexicon", str(lex), "--check"]) == 4
        assert capsys.readouterr().out == "round-trip: 1/2 correct\n"

    def test_apply_to_corpus(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("четох\tV1\tчета\n")
        inp = tmp_path / "in.tsv"
        inp.write_text("плетох\tV1\n")
        out = tmp_path / "out.tsv"
        assert main(["lemmatize", "--lexicon", str(lex),
                     "--input", str(inp), "--output", str(out)]) == 0
        assert "плетох\tV1\tплета" in out.read_text()

    def test_bare_surface_exits_2(self, tmp_path, capsys):
        """A token without a tag has nothing to lemmatize with."""
        lex = tmp_path / "lex.tsv"
        lex.write_text("четох\tV1\tчета\n")
        inp = tmp_path / "in.tsv"
        inp.write_text("плетох\tV1\nчетох\n")
        out = tmp_path / "out.tsv"
        assert main(["lemmatize", "--lexicon", str(lex),
                     "--input", str(inp), "--output", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: token 'четох' has no tag to lemmatize with"]
        assert not out.exists()

    def test_input_needs_output(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("четох\tV1\tчета\n")
        assert main(["lemmatize", "--lexicon", str(lex),
                     "--input", str(lex)]) == 3

    def test_output_needs_input(self, tmp_path, capsys):
        """--output alone used to exit 0 and write nothing."""
        lex = tmp_path / "lex.tsv"
        lex.write_text("четох\tV1\tчета\n")
        out = tmp_path / "out.tsv"
        assert main(["lemmatize", "--lexicon", str(lex), "--output", str(out)]) == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()


class TestCliStats:
    def test_counts_and_ambiguity(self, dataset, capsys):
        assert main(["stats", "--corpus", str(dataset / "train.tsv"),
                     "--lexicon", str(dataset / "lex.tsv"),
                     "--ambiguity"]) == 0
        out = capsys.readouterr().out
        assert "sentences\t32" in out
        assert "ambiguous_fraction" in out

    def test_ambiguity_needs_lexicon(self, dataset):
        assert main(["stats", "--corpus", str(dataset / "train.tsv"),
                     "--ambiguity"]) == 3

    @pytest.mark.parametrize("flags, message", [
        (["--audit-rules", "--lexicon", "L"], "--audit-rules requires --lexicon and --rules"),
        (["--check-lexicon"], "--check-lexicon requires --lexicon"),
    ])
    def test_audit_needs_its_inputs(self, flags, message, dataset, capsys):
        flags = [str(dataset / "lex.tsv") if f == "L" else f for f in flags]
        assert main(["stats", "--corpus", str(dataset / "train.tsv"), *flags]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("punct_class", ["", "u"])
    def test_punct_class_is_one_class_letter(self, punct_class, dataset, capsys):
        assert main(["stats", "--corpus", str(dataset / "train.tsv"),
                     "--lexicon", str(dataset / "lex.tsv"), "--ambiguity",
                     "--punct-class", punct_class]) == 3
        assert capsys.readouterr().err == (f"error: the punctuation class must be one "
                                           f"uppercase letter, not {punct_class!r}\n")

    def test_check_lexicon(self, dataset, capsys):
        assert main(["stats", "--corpus", str(dataset / "train.tsv"),
                     "--lexicon", str(dataset / "lex.tsv"),
                     "--check-lexicon"]) == 0
        assert "lexicon_violations\t0" in capsys.readouterr().out

    def test_check_lexicon_prints_the_first_20_violations(self, tmp_path, capsys):
        corpus, lex = tmp_path / "corpus.tsv", tmp_path / "lex.tsv"
        corpus.write_text("".join(f"w{k}\tY\n" for k in range(25)) + "\n")
        lex.write_text("w0\tX\n")
        assert main(["stats", "--corpus", str(corpus), "--lexicon", str(lex),
                     "--check-lexicon"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "lexicon_violations\t25" in out
        assert [line for line in out if line.startswith("violation\t")] == [
            f"violation\tw{k}\tY" for k in range(20)]


class TestCliGenSynthetic:
    def test_deterministic_files(self, tmp_path):
        args = ["gen-synthetic", "--seed", "4", "--tags", "6", "--vocab", "30",
                "--sentences", "10"]
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            assert main(args + ["--out-corpus", str(d / "c.tsv"),
                                "--out-lexicon", str(d / "l.tsv")]) == 0
        assert ((tmp_path / "a" / "c.tsv").read_text()
                == (tmp_path / "b" / "c.tsv").read_text())
        assert ((tmp_path / "a" / "l.tsv").read_text()
                == (tmp_path / "b" / "l.tsv").read_text())

    def test_split(self, tmp_path):
        assert main(["gen-synthetic", "--seed", "1", "--tags", "5",
                     "--vocab", "20", "--sentences", "10",
                     "--split", "0.8,0.1,0.1",
                     "--out-corpus", str(tmp_path / "c.tsv"),
                     "--out-lexicon", str(tmp_path / "l.tsv")]) == 0
        for part, n in (("train", 8), ("dev", 1), ("test", 1)):
            text = (tmp_path / f"c.tsv.{part}").read_text()
            assert len(read_vertical(text).sentences) == n

    def test_bad_split_exit_3(self, tmp_path, capsys):
        # Not numbers; NaN, which passes the sum check; infinite; negative;
        # more parts than train, dev and test.
        for split in ("lots", "nan,0.5", "inf,0.5", "1.5,-0.5", "0.25,0.25,0.25,0.25"):
            assert main(["gen-synthetic", "--split", split,
                         "--out-corpus", str(tmp_path / "c.tsv"),
                         "--out-lexicon", str(tmp_path / "l.tsv")]) == 3, split
            assert len(capsys.readouterr().err.strip().splitlines()) == 1
            assert not list(tmp_path.iterdir())


FUZZ_FILES = {
    "corpus.tsv": "5\tMc\nлв\tNcmt\n\nя\tI\n,\tU\nела\tVpitf-r2s\n\na\tA1\nb\tB1\na\tA2\n",
    "lex.tsv": ("5\tMc\nлв\tNcmsh\nлв\tNcmt\nя\tI\nя\tPpetas1\n,\tU\n"
                "ела\tVpitf-r2s\na\tA1\na\tA2\nb\tB1\n"),
    "rules.dsl": ("RULE ncmt-after-numeral\nIF 0 CLASS-IS Ncmsh;Ncmt\nIF -1 NUMERAL\n"
                  "THEN RETAIN Ncmt\nEND\n\nRULE ya\nIF 0 SURFACE-IN я\nIF 0 SENT-INITIAL\n"
                  "IF +1 SURFACE-IN ,\nTHEN RETAIN I\nEND\n"),
    "spec.txt": ("train=corpus.tsv\ntest=corpus.tsv\nlexicon=lex.tsv\nrules=rules.dsl\n"
                 "epochs=1\nseed=0\n"
                 "row: id=1 lexicon_features=on rule_filter=train+test hard_rules=on beam=2\n"),
}
# Field values that the readers must reject or accept without a traceback.
FUZZ_VALUES = ["", "x", "[B", "-r1", "1;", "0", "-1", "2", "NaN", "null", "{}", "[]",
               "\t", "#", "=", ";", ",", "END", "RULE", "IF", "row:"]


def _cli_fuzz_argv(d):
    return [
        ["train", "--train", f"{d}/corpus.tsv", "--lexicon", f"{d}/lex.tsv",
         "--rules", f"{d}/rules.dsl", "--rules-mode", "soft", "--lexicon-features", "on",
         "--candidates", "lexicon+rules", "--epochs", "1", "--model", f"{d}/out.json"],
        ["tag", "--model", f"{d}/model.json", "--input", f"{d}/corpus.tsv",
         "--lexicon", f"{d}/lex.tsv", "--rules", f"{d}/rules.dsl", "--hard-rules", "on",
         "--output", f"{d}/tagged.tsv"],
        ["stats", "--corpus", f"{d}/corpus.tsv", "--lexicon", f"{d}/lex.tsv",
         "--rules", f"{d}/rules.dsl", "--ambiguity", "--audit-rules"],
        ["experiment", "--spec", f"{d}/spec.txt", "--base-dir", d],
    ]


@st.composite
def _mutations(draw):
    """One input file and a few edits: a byte inserted, deleted or
    replaced, a line duplicated or dropped, or a field replaced by a value
    from FUZZ_VALUES."""
    name = draw(st.sampled_from(sorted(FUZZ_FILES) + ["model.json"]))
    edits = draw(st.lists(st.tuples(
        st.sampled_from(("insert", "delete", "replace", "dup-line", "drop-line", "field")),
        st.integers(0, 10 ** 6),
        st.sampled_from([bytes([b]) for b in b"\t\n #=,;:-[]{}\"09aM."] + [b"\xff"]),
        st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3))
    return name, edits


def _apply_edit(data: bytes, edit) -> bytes:
    kind, where, byte, value = edit
    if kind in ("dup-line", "drop-line", "field"):
        lines = data.split(b"\n")
        k = where % len(lines)
        if kind == "dup-line":
            lines.insert(k, lines[k])
        elif kind == "drop-line":
            del lines[k]
        else:
            fields = re.split(rb"([\t= ])", lines[k])
            # fields alternate with their separators; replace a field
            fields[2 * (where // len(lines) % ((len(fields) + 1) // 2))] = value.encode("utf-8")
            lines[k] = b"".join(fields)
        return b"\n".join(lines)
    i = where % (len(data) + 1)
    if kind == "insert":
        return data[:i] + byte + data[i:]
    if kind == "delete":
        return data[:i] + data[i + 1:]
    return data[:i] + byte + data[i + 1:]


class TestCliFuzz:
    """Mutated input files end with a documented exit code and a one-line
    message, never a traceback."""

    @pytest.fixture(scope="class")
    def model_text(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz-model")
        for name, text in FUZZ_FILES.items():
            (d / name).write_text(text, encoding="utf-8")
        assert main(_cli_fuzz_argv(str(d))[0]) == 0
        return (d / "out.json").read_text(encoding="utf-8")

    def test_mutated_inputs(self, model_text):
        files = dict(FUZZ_FILES, **{"model.json": model_text})

        @settings(max_examples=200, derandomize=True, database=None)
        @given(_mutations())
        def run(mutation):
            name, edits = mutation
            data = files[name].encode("utf-8")
            for edit in edits:
                data = _apply_edit(data, edit)
            with tempfile.TemporaryDirectory() as d:
                for other, text in files.items():
                    with open(os.path.join(d, other), "wb") as fh:
                        fh.write(data if other == name else text.encode("utf-8"))
                for argv in _cli_fuzz_argv(d):
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(err):
                        code = main(argv)
                    assert code in (0, 2, 3), (argv[0], code)
                    lines = err.getvalue().splitlines()
                    assert len(lines) == (code != 0), (argv[0], err.getvalue())
        run()
