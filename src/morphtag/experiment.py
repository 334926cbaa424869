"""Declarative experiment grid: train/decode/evaluate one row per
configuration of lexicon features, rule filtering, hard constraints, and
beam size.

Spec file format (line-oriented, '#' comments):

    train=path/to/train.tsv
    test=path/to/test.tsv
    lexicon=path/to/lexicon.tsv      # optional
    rules=path/to/rules.dsl          # optional
    seed=0
    epochs=5
    row: id=1 lexicon_features=off rule_filter=off hard_rules=off beam=1
    row: id=5 lexicon_features=on rule_filter=test-only hard_rules=off beam=1

rule_filter is one of off | train+test | test-only and controls where the
cascade filters the lexicon-suggestion features (the `lexicon_filter` values
"none", "rules" and "test-only"), and has no effect with lexicon_features=off;
hard_rules additionally restricts the decoder's output tags to the
cascade-filtered sets.  Other keys, a key given twice (top-level or in one
row) and repeated row ids are format errors.
"""

from __future__ import annotations

import copy
import logging
import os
from dataclasses import astuple, dataclass, field

from .corpus import read_text, read_vertical
from .errors import ConfigError, FormatError
from .evaluation import evaluate
from .features import FeatureConfig
from .lexicon import load_lexicon
from .rules import parse_rules
from .tagger import DecodeOptions, TrainOptions, decode, train

# rule_filter -> FeatureConfig.lexicon_filter
LEXICON_FILTERS = {"off": "none", "train+test": "rules", "test-only": "test-only"}
SPEC_KEYS = ("train", "test", "lexicon", "rules", "seed", "epochs")
ROW_KEYS = ("id", "lexicon_features", "rule_filter", "hard_rules", "beam")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridRow:
    row_id: str
    use_lexicon_features: bool
    rule_filter: str = "off"
    hard_rules: bool = False
    beam: int = 1

    def __post_init__(self):
        if self.rule_filter not in LEXICON_FILTERS:
            raise ConfigError(f"unknown rule_filter {self.rule_filter!r}")
        if self.beam < 1:
            raise ConfigError("beam must be >= 1")


@dataclass
class ExperimentSpec:
    train_path: str
    test_path: str
    lexicon_path: str | None = None
    rules_path: str | None = None
    seed: int = 0
    epochs: int = 5
    rows: list[GridRow] = field(default_factory=list)


def _parse_bool(value, lineno, path):
    if value in ("on", "yes", "true", "1"):
        return True
    if value in ("off", "no", "false", "0"):
        return False
    raise FormatError(f"bad boolean {value!r}", lineno, path)


def parse_spec(text: str, base_dir: str = ".", path=None) -> ExperimentSpec:
    keys: dict[str, str | int] = {}
    rows: list[GridRow] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("row:"):
            fields = {}
            for token in line[4:].split():
                if "=" not in token:
                    raise FormatError(f"expected key=value, got {token!r}", lineno, path)
                k, v = token.split("=", 1)
                if k not in ROW_KEYS:
                    raise FormatError(f"unknown row key {k!r}", lineno, path)
                if k in fields:
                    raise FormatError(f"repeated row key {k!r}", lineno, path)
                fields[k] = v
            if not fields.get("id"):
                raise FormatError("row needs an id", lineno, path)
            if any(row.row_id == fields["id"] for row in rows):
                raise FormatError(f"repeated row id {fields['id']!r}", lineno, path)
            try:
                rows.append(GridRow(
                    row_id=fields["id"],
                    use_lexicon_features=_parse_bool(
                        fields.get("lexicon_features", "off"), lineno, path),
                    rule_filter=fields.get("rule_filter", "off"),
                    hard_rules=_parse_bool(fields.get("hard_rules", "off"), lineno, path),
                    beam=int(fields.get("beam", "1")),
                ))
            except (ConfigError, ValueError) as exc:
                raise FormatError(str(exc), lineno, path) from None
        elif "=" in line:
            k, v = line.split("=", 1)
            k, v = k.strip(), v.strip()
            if k not in SPEC_KEYS:
                raise FormatError(f"unknown key {k!r}", lineno, path)
            if k in keys:
                raise FormatError(f"repeated key {k!r}", lineno, path)
            if k in ("seed", "epochs"):
                try:
                    v = int(v)
                except ValueError:
                    raise FormatError(f"{k} must be an integer, got {v!r}",
                                      lineno, path) from None
            keys[k] = v
        else:
            raise FormatError(f"unexpected line {line!r}", lineno, path)
    for required in ("train", "test"):
        if required not in keys:
            raise ConfigError(f"experiment spec is missing {required!r}")

    def resolve(key):
        value = keys.get(key)
        if value is None:
            return None
        return value if os.path.isabs(value) else os.path.join(base_dir, value)

    return ExperimentSpec(
        train_path=resolve("train"),
        test_path=resolve("test"),
        lexicon_path=resolve("lexicon"),
        rules_path=resolve("rules"),
        seed=keys.get("seed", 0),
        epochs=keys.get("epochs", 5),
        rows=rows,
    )


def run_experiment(spec: ExperimentSpec):
    """Run every grid row end-to-end; returns a list of
    (row_id, sentence_accuracy, token_accuracy).

    Rows sharing a training config (`FeatureConfig.for_training`) share one
    trained model, so rows without lexicon features share one whatever their
    rule_filter; each row decodes a copy that carries its own feature config.
    Row failures propagate with the row id attached.  Progress lines go to
    this module's logger (`morphtag.experiment`) at INFO.
    """
    train_corpus = read_vertical(read_text(spec.train_path), spec.train_path)
    test_corpus = read_vertical(read_text(spec.test_path), spec.test_path)
    lexicon = load_lexicon(read_text(spec.lexicon_path), spec.lexicon_path) \
        if spec.lexicon_path else None
    rules = parse_rules(read_text(spec.rules_path), spec.rules_path) \
        if spec.rules_path else None
    vocab = {tok.surface for tok in train_corpus.tokens()}

    models = {}
    results = []
    for row in spec.rows:
        try:
            if row.hard_rules and rules is None:
                raise ConfigError("row uses hard rules but no rules file is given")
            cfg = FeatureConfig(row.use_lexicon_features, LEXICON_FILTERS[row.rule_filter])
            train_cfg = cfg.for_training()
            if train_cfg not in models:
                log.info("training model for %s", astuple(train_cfg))
                models[train_cfg], _ = train(
                    train_corpus, lexicon, rules,
                    TrainOptions(epochs=spec.epochs, seed=spec.seed), train_cfg)
            model = copy.copy(models[train_cfg])
            model.cfg = cfg
            dopts = DecodeOptions(
                beam_size=row.beam,
                hard_output_rules=rules if row.hard_rules else None)
            predictions = [decode(sent, model, lexicon, rules, dopts)[0]
                           for sent in test_corpus]
            report = evaluate(test_corpus, predictions, vocab)
            results.append((row.row_id, report.sentence_accuracy,
                            report.token_accuracy))
            log.info("row %s: sentence %.4f token %.4f", row.row_id,
                     report.sentence_accuracy, report.token_accuracy)
        except Exception as exc:
            # Prefix the row id in place: the exception keeps its type, its
            # attributes (a FormatError's line and path) and its traceback.
            # Only an exception whose text is its one argument can take it.
            if len(exc.args) == 1 and str(exc) == exc.args[0]:
                exc.args = (f"row {row.row_id}: {exc}",)
            raise
    return results


def format_results(results) -> str:
    lines = [f"{row_id}\t{sent_acc:.4f}\t{tok_acc:.4f}"
             for row_id, sent_acc, tok_acc in results]
    return "\n".join(lines) + ("\n" if lines else "")
