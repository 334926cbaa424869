import pytest

from morphtag.cli import main
from morphtag.corpus import read_vertical, write_vertical
from morphtag.errors import ConfigError, FormatError
from morphtag.experiment import (GridRow, format_results, parse_spec,
                                 run_experiment)
from morphtag.lexicon import dump_lexicon
from morphtag.synthetic import SyntheticConfig, generate_synthetic, split_corpus

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
            parse_spec("train=x\ntest=y\nrow: id=1 rule_filter=bogus\n")
        with pytest.raises(FormatError):
            parse_spec("train=x\ntest=y\nrow: id=1 beam=zero\n")

    def test_unexpected_line(self):
        with pytest.raises(FormatError):
            parse_spec("train=x\ntest=y\nwhat now\n")


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

    @pytest.mark.parametrize("case, expected", [
        ("missing-model", 3),
        ("model-not-json", 2),
        ("model-tag-id-out-of-range", 2),
        ("model-missing-key", 2),
        ("model-wrong-type", 2),
        ("model-unknown-config-key", 2),
        ("model-nan-weight", 2),
        ("corpus-not-utf8", 2),
        ("output-dir-missing", 3),
        ("model-dir-missing", 3),
    ])
    def test_broken_input_exit_code(self, case, expected, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("a\tA\nb\tB\n\n", encoding="utf-8")
        model = tmp_path / "model.json"
        if case == "model-not-json":
            model.write_text('{"format": 1, "tags": ["A", "B"', encoding="utf-8")
        elif case == "model-tag-id-out-of-range":
            model.write_text(
                '{"format": 1, "tags": ["A", "B"], "features": {"w0=a": 0}, '
                '"config": {}, "weights": {"0": {"5": 1.0}}, '
                '"averaged": {"0": {"5": 1.0}}, "meta": {}}', encoding="utf-8")
        elif case == "model-missing-key":
            model.write_text('{"format": 1}', encoding="utf-8")
        elif case == "model-wrong-type":
            model.write_text(
                '{"format": 1, "tags": 5, "features": {}, "config": {}, '
                '"weights": {}, "averaged": {}, "meta": {}}', encoding="utf-8")
        elif case == "model-nan-weight":
            model.write_text(
                '{"format": 1, "tags": ["A", "B"], "features": {"w0=a": 0}, '
                '"config": {}, "weights": {"0": {"1": NaN}}, '
                '"averaged": {"0": {"1": NaN}}, "meta": {}}', encoding="utf-8")
        elif case == "model-unknown-config-key":
            model.write_text(
                '{"format": 1, "tags": ["A", "B"], "features": {}, '
                '"config": {"nope": 1}, "weights": {}, "averaged": {}, "meta": {}}',
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
        else:
            argv = ["tag", "--model", str(model), "--input", str(corpus),
                    "--output", str(tmp_path / "out.tsv")]
        assert main(argv) == expected
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


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


class TestCliExperiment:
    def test_spec_run(self, dataset, tmp_path, capsys):
        spec = tmp_path / "grid.spec"
        spec.write_text(SPEC_TEXT)
        out = tmp_path / "results.tsv"
        assert main(["experiment", "--spec", str(spec),
                     "--base-dir", str(dataset), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("1\t")


class TestCliLemmatize:
    def test_check_and_dump(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("четох\tV1\tчета\nплетох\tV1\tплета\n")
        rules_out = tmp_path / "rules.tsv"
        assert main(["lemmatize", "--lexicon", str(lex), "--check",
                     "--dump-rules", str(rules_out)]) == 0
        assert "2/2 correct" in capsys.readouterr().out
        assert "V1\tох\tа\t2" in rules_out.read_text()

    def test_apply_to_corpus(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("четох\tV1\tчета\n")
        inp = tmp_path / "in.tsv"
        inp.write_text("плетох\tV1\n")
        out = tmp_path / "out.tsv"
        assert main(["lemmatize", "--lexicon", str(lex),
                     "--input", str(inp), "--output", str(out)]) == 0
        assert "плетох\tV1\tплета" in out.read_text()

    def test_input_needs_output(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("четох\tV1\tчета\n")
        assert main(["lemmatize", "--lexicon", str(lex),
                     "--input", str(lex)]) == 3


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

    def test_check_lexicon(self, dataset, capsys):
        assert main(["stats", "--corpus", str(dataset / "train.tsv"),
                     "--lexicon", str(dataset / "lex.tsv"),
                     "--check-lexicon"]) == 0
        assert "lexicon_violations\t0" in capsys.readouterr().out


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

    def test_bad_split_exit_3(self, tmp_path):
        assert main(["gen-synthetic", "--split", "lots",
                     "--out-corpus", str(tmp_path / "c.tsv"),
                     "--out-lexicon", str(tmp_path / "l.tsv")]) == 3
