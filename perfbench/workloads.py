"""Workloads, input generation and one measured round.

Every workload runs the same pipeline on inputs of its own shape:

  set-up    generate a corpus, lexicon, safe rule cascade, lemma lexicon
            and suffix-guesser table from the seed; write them as text;
            parse them back with the program's readers;
  tagger    train on the leading `tagger_train` sentences of the training
            part, save, load, decode the leading `tagger_test` sentences of
            the test part at beam 1 and beam 3 with the loaded model, and
            replay the beam-1 commit orders with `rescore`;
  toolkit   the four MFT baselines, trained on the whole training part and
            run on the whole test part; `evaluate` plus `confusion_pairs`
            of each baseline's output; lemma-rule compilation and
            lemmatization; the ambiguity, rule-precision and lexicon
            audits over the whole training part;
  cli       (toolkit-50 only) five CLI calls on broken input that must
            end with a documented exit code and a one-line message.

The shapes decide where the time goes: at 680 tags with `all` candidates
the tagger's search and scoring dominate; at 50 tags with `lexicon+rules`
candidates the rule cascade and features do; toolkit-50 keeps the tagger
small and the toolkit inputs large.  Every workload still runs every stage,
so each run reports every end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from morphtag import (baselines, cli, corpus as corpus_mod, evaluation, lemmatizer,
                      lexicon as lexicon_mod, rules as rules_mod, synthetic, tagger)
from morphtag.corpus import Corpus
from morphtag.features import FeatureConfig

import checks as ck
import hostspeed


@dataclass(frozen=True)
class Workload:
    name: str
    tags: int
    vocab: int
    sentences: int          # whole corpus, split 80/20 into training and test parts
    min_len: int
    max_len: int
    ambiguity: float
    tagger_train: int       # leading training sentences the tagger learns from
    tagger_test: int        # leading test sentences it decodes
    epochs: int
    candidates: str         # TrainOptions/DecodeOptions candidate_source
    rule_filter: bool       # cascade-filtered lexicon features, hard rules at decode
    paradigms: int          # generate_lemma_lexicon shape
    forms: int
    stems: int
    cli_edges: bool


WORKLOADS = {
    "tagger-680-all": Workload(
        "tagger-680-all", tags=680, vocab=3000, sentences=500, min_len=15, max_len=15,
        ambiguity=0.3, tagger_train=30, tagger_test=8, epochs=2, candidates="all",
        rule_filter=False, paradigms=100, forms=10, stems=10, cli_edges=False),
    "tagger-50-rules": Workload(
        "tagger-50-rules", tags=50, vocab=2000, sentences=500, min_len=20, max_len=20,
        ambiguity=0.3, tagger_train=200, tagger_test=30, epochs=2,
        candidates="lexicon+rules", rule_filter=True, paradigms=100, forms=10, stems=10,
        cli_edges=False),
    "toolkit-50": Workload(
        "toolkit-50", tags=50, vocab=3000, sentences=800, min_len=20, max_len=20,
        ambiguity=0.3, tagger_train=160, tagger_test=20, epochs=1, candidates="lexicon",
        rule_filter=False, paradigms=150, forms=10, stems=12, cli_edges=True),
}

TINY = dict(vocab=200, sentences=60, tagger_train=12, tagger_test=4, epochs=1,
            paradigms=4, forms=3, stems=3)


def workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY) if tiny else w


SPLIT = (0.8, 0.2)
CONFUSION_K = 20
DEPTHS = (1, 2)
BASELINE_CHUNK = 25     # test sentences per timed unit of an MFT strategy
LEMMA_CHUNK = 500       # readings per timed unit of lemmatization


# Set-up ------------------------------------------------------------------

@dataclass
class Inputs:
    train: Corpus
    test: Corpus
    lexicon: lexicon_mod.Lexicon
    rules: rules_mod.RuleCascade
    lemma_lexicon: lexicon_mod.Lexicon
    guesser: baselines.SuffixGuesser
    texts: dict[str, str]
    digests: dict[str, str]


def _guesser_text(train: Corpus) -> str:
    """A suffix-guesser table from the training part: each final character
    maps to its most frequent tag; DEFAULT is the overall most frequent."""
    by_last: dict[str, Counter] = {}
    overall: Counter = Counter()
    for tok in train.tokens():
        by_last.setdefault(tok.surface[-1], Counter())[tok.gold_tag] += 1
        overall[tok.gold_tag] += 1

    def top(c):
        return min(c, key=lambda t: (-c[t], t))
    lines = [f"{ch}\t{top(c)}" for ch, c in sorted(by_last.items())]
    lines.append(f"DEFAULT\t{top(overall)}")
    return "\n".join(lines) + "\n"


# Fixed, seed-independent files for the CLI edge operations.
CLI_CORPUS = "a\tA\nb\tB\n\n"
CLI_NOT_JSON = '{"format": 1, "tags": ["A", "B"'
CLI_BAD_TAG_ID = (
    '{"format": 1, "tags": ["A", "B"], "features": {"w0=a": 0}, "config": {}, '
    '"weights": {"0": {"5": 1.0}}, "averaged": {"0": {"5": 1.0}}, "meta": {}}')
CLI_NOT_UTF8 = "café\tA\n\n".encode("latin-1")


def setup(w: Workload, seed: int, workdir: str, tracer) -> Inputs:
    """Generate, write and parse back every input of one run.  Each step is
    one unit of the `setup` phase."""
    phase = tracer.phase
    with phase("setup"):
        config = synthetic.SyntheticConfig(
            tag_count=w.tags, vocab_size=w.vocab, sentence_count=w.sentences,
            min_sentence_len=w.min_len, max_sentence_len=w.max_len,
            ambiguity_rate=w.ambiguity)
        corpus, lexicon = synthetic.generate_synthetic(config, seed)
        train, test = synthetic.split_corpus(corpus, SPLIT)
    with phase("setup"):
        cascade = synthetic.derive_safe_rules(train, lexicon)
    with phase("setup"):
        lemma_lexicon = synthetic.generate_lemma_lexicon(w.paradigms, w.forms, w.stems, seed)
    with phase("setup"):
        texts = {
            "train.tsv": corpus_mod.write_vertical(train),
            "test.tsv": corpus_mod.write_vertical(test),
            "lexicon.tsv": lexicon_mod.dump_lexicon(lexicon),
            "rules.dsl": rules_mod.format_rules(cascade),
            "lemmas.tsv": lexicon_mod.dump_lexicon(lemma_lexicon),
            "guesser.tsv": _guesser_text(train),
        }
        files = {name: text.encode("utf-8") for name, text in texts.items()}
        if w.cli_edges:
            files["cli-corpus.tsv"] = CLI_CORPUS.encode("utf-8")
            files["cli-not-json.json"] = CLI_NOT_JSON.encode("utf-8")
            files["cli-bad-tag-id.json"] = CLI_BAD_TAG_ID.encode("utf-8")
            files["cli-not-utf8.tsv"] = CLI_NOT_UTF8
        for name, data in files.items():
            with open(os.path.join(workdir, name), "wb") as fh:
                fh.write(data)

    def read(parse, name):
        with phase("setup"):
            path = os.path.join(workdir, name)
            with open(path, encoding="utf-8") as fh:
                return parse(fh.read(), path)
    return Inputs(
        train=read(corpus_mod.read_vertical, "train.tsv"),
        test=read(corpus_mod.read_vertical, "test.tsv"),
        lexicon=read(lexicon_mod.load_lexicon, "lexicon.tsv"),
        rules=read(rules_mod.parse_rules, "rules.dsl"),
        lemma_lexicon=read(lexicon_mod.load_lexicon, "lemmas.tsv"),
        guesser=read(baselines.load_guesser, "guesser.tsv"),
        texts=texts,
        digests={name: hashlib.sha256(data).hexdigest()[:16]
                 for name, data in sorted(files.items())})


# The benchmark's own view of the inputs, read from the generated text --

@dataclass
class Reference:
    train: list
    test: list
    lexicon: dict
    readings: list          # (surface, tag, lemma) of the lemma lexicon
    guesser_rules: list
    default_tag: str
    inventory: set
    train_vocab: set
    tagger_test: list
    candidate_sets: list    # per tagger test sentence


def reference(w: Workload, inputs: Inputs) -> Reference:
    texts = inputs.texts
    train = ck.read_sentences(texts["train.tsv"])
    test = ck.read_sentences(texts["test.tsv"])
    lexicon = ck.read_lexicon(texts["lexicon.tsv"])
    retain = ck.read_retain_rules(texts["rules.dsl"])
    lemmas = ck.read_lexicon(texts["lemmas.tsv"])
    readings = [(s, t, lemma) for s, tags in lemmas.items() for t, lemma in tags.items()]
    guesser_rules, default_tag = [], None
    for line in texts["guesser.tsv"].split("\n"):
        if line:
            suffix, tag = line.split("\t")
            if suffix == "DEFAULT":
                default_tag = tag
            else:
                guesser_rules.append((suffix, tag))
    tagger_train = train[:w.tagger_train]
    inventory = {t for sent in tagger_train for _, t in sent}
    inventory |= {t for tags in lexicon.values() for t in tags}
    tagger_test = test[:w.tagger_test]
    # Hard output rules make the decoder use lexicon+rules candidates.
    if w.candidates == "all" and not w.rule_filter:
        cands = [[inventory] * len(sent) for sent in tagger_test]
    else:
        rules = retain if w.rule_filter or w.candidates == "lexicon+rules" else []
        cands = [ck.candidate_sets([s for s, _ in sent], lexicon, rules, inventory)
                 for sent in tagger_test]
    return Reference(train, test, lexicon, readings, guesser_rules, default_tag,
                     inventory, {s for sent in train for s, _ in sent}, tagger_test, cands)


# CLI edge operations -------------------------------------------------------

def cli_edge_cases(workdir: str):
    """(name, argv, documented exit code) for five broken inputs."""
    def p(name):
        return os.path.join(workdir, name)
    tag = ["tag", "--input", p("cli-corpus.tsv"), "--output", p("cli-out.tsv"), "--model"]
    return [
        ("missing-model-file", tag + [p("cli-absent.json")], cli.EXIT_CONFIG),
        ("model-not-json", tag + [p("cli-not-json.json")], cli.EXIT_FORMAT),
        ("model-tag-id-out-of-range", tag + [p("cli-bad-tag-id.json")], cli.EXIT_FORMAT),
        ("corpus-not-utf8", ["stats", "--corpus", p("cli-not-utf8.tsv")], cli.EXIT_FORMAT),
        ("output-not-writable",
         ["gen-synthetic", "--tags", "2", "--vocab", "4", "--sentences", "2",
          "--out-corpus", p("cli-no-such-dir/corpus.tsv"),
          "--out-lexicon", p("cli-no-such-dir/lexicon.tsv")], cli.EXIT_CONFIG),
    ]


def run_cli_edge(argv, expected: int) -> tuple[bool, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an escaping exception is the fault being counted
        return False, f"raised {type(exc).__name__}"
    lines = err.getvalue().strip().splitlines()
    ok = code == expected and len(lines) == 1
    return ok, f"exit {code}, {len(lines)} stderr lines"


# One round -----------------------------------------------------------------

@dataclass
class Round:
    units: dict              # phase -> seconds of each unit, in order
    counts: dict             # exact per-layer counts
    output_digest: str
    attempted: int
    failed: int
    cli_outcomes: list
    tokens: dict
    probes: list = field(default_factory=list)   # host probe seconds, set by run.py

    @property
    def seconds(self) -> dict[str, float]:
        return {name: sum(units) for name, units in self.units.items()}


def _nonzero(table) -> int:
    return int(sum(np.count_nonzero(row) for row in table.values()))


def _timed_map(phase, name: str, fn, items: list, chunk: int = 1) -> list:
    """fn over items; every `chunk` items are one unit of phase `name`."""
    out = []
    for i in range(0, len(items), chunk):
        with phase(name):
            out.extend([fn(x) for x in items[i:i + chunk]])
    return out


def run_round(w: Workload, inputs: Inputs, ref: Reference, seed: int, workdir: str,
              tracer, checks: ck.Checks | None) -> Round:
    """Run every stage once, after the round's set-up, on the same tracer.
    With `checks`, also verify the outputs (the verification runs outside
    every timed phase)."""
    phase = tracer.phase
    attempted = failed = 0
    train_part = Corpus(inputs.train.sentences[:w.tagger_train])
    test_part = inputs.test.sentences[:w.tagger_test]
    cascade = inputs.rules if w.rule_filter else None
    cfg = FeatureConfig(use_lexicon_features=True,
                        lexicon_filter="rules" if w.rule_filter else "none")
    topts = tagger.TrainOptions(epochs=w.epochs, seed=seed, candidate_source=w.candidates)
    model_path = os.path.join(workdir, "model.json")

    with phase("train"):
        model, _ = tagger.train(train_part, inputs.lexicon, cascade, topts, cfg)
    with phase("save"):
        model.save(model_path)
    with phase("load"):
        loaded = tagger.Model.load(model_path)
    decoded = {}
    for beam in (1, 3):
        dopts = tagger.DecodeOptions(beam_size=beam, candidate_source=w.candidates,
                                     hard_output_rules=cascade)
        decoded[beam] = _timed_map(
            phase, f"decode_b{beam}",
            lambda s: tagger.decode_with_trace(s, loaded, inputs.lexicon, cascade, dopts),
            test_part)
    rescored_b1 = _timed_map(
        phase, "rescore_b1",
        lambda so: tagger.rescore(so[0], so[1][0], so[1][3], loaded, inputs.lexicon, cascade),
        list(zip(test_part, decoded[1])))
    attempted += 6

    counts = {
        "tagger.updates": model.meta["updates"],
        "features.count": len(model.feature_ids),
        "tagger.weight_rows": len(model.weights),
        "tagger.weight_nonzero": _nonzero(model.weights) + _nonzero(model.averaged),
        "model_bytes": os.path.getsize(model_path),
    }
    digest = hashlib.sha256(repr([[(o[0], o[1]) for o in decoded[b]] for b in (1, 3)])
                            .encode()).hexdigest()

    if checks is not None:
        rescored_b3 = [tagger.rescore(s, out[0], out[3], loaded, inputs.lexicon, cascade)
                       for s, out in zip(test_part, decoded[3])]
        for beam, rescored in ((1, rescored_b1), (3, rescored_b3)):
            ck.check_decode(checks, beam, [o + (r,) for o, r in zip(decoded[beam], rescored)],
                            ref.tagger_test, ref.candidate_sets)
            dopts = tagger.DecodeOptions(beam_size=beam, candidate_source=w.candidates,
                                         hard_output_rules=cascade)
            memory = [tagger.decode(s, model, inputs.lexicon, cascade, dopts) for s in test_part]
            ck.check_reload(checks, beam, decoded[beam], memory)
    del model, loaded

    test = inputs.test.sentences
    with phase("baselines"):
        table = baselines.build_mft(inputs.train, inputs.lexicon)
    strategies = {
        "mft-fail": lambda s: baselines.tag_mft(s, table, baselines.FailUnknown(), seed),
        "mft-default": lambda s: baselines.tag_mft(s, table, baselines.DefaultTag(ref.default_tag),
                                                   seed),
        "mft-guesser": lambda s: baselines.tag_mft(s, table, inputs.guesser, seed),
        "mft-lexicon": lambda s: baselines.tag_mft_lexicon(s, table, inputs.lexicon, seed),
    }
    preds = {k: _timed_map(phase, "baselines", fn, test, BASELINE_CHUNK)
             for k, fn in strategies.items()}
    with phase("lemma_compile"):
        ruleset = lemmatizer.generate_rules(inputs.lemma_lexicon)
    lemmas = _timed_map(phase, "lemmatize", lambda r: lemmatizer.lemmatize(r[0], r[1], ruleset),
                        ref.readings, LEMMA_CHUNK)
    reports = {}
    for k, p in preds.items():
        with phase("eval"):
            report = evaluation.evaluate(inputs.test, p, ref.train_vocab, DEPTHS, CONFUSION_K)
        with phase("eval"):
            reports[k] = (report, evaluation.confusion_pairs(inputs.test, p, CONFUSION_K))
    with phase("audit"):
        ambiguity = lexicon_mod.ambiguity_stats(inputs.lexicon, inputs.train)
    with phase("audit"):
        ambiguity_rules = lexicon_mod.ambiguity_stats(inputs.lexicon, inputs.train,
                                                      inputs.rules)
    with phase("audit"):
        audit = rules_mod.audit_precision(inputs.rules, inputs.train, inputs.lexicon)
    with phase("audit"):
        violations = evaluation.audit_lexicon_exhaustiveness(inputs.train, inputs.lexicon)
    attempted += 5 + 2 + 8 + 4

    counts["lemmatizer.rules"] = len(ruleset)
    counts["baselines.unknown_tokens"] = sum(
        s not in ref.train_vocab for sent in ref.test for s, _ in sent)
    counts["corpus.tokens"] = sum(len(s) for s in ref.train) + sum(len(s) for s in ref.test)
    digest = hashlib.sha256((digest + repr((preds, lemmas,
                                            [(r.to_dict(), p) for r, p in reports.values()],
                                            ambiguity, ambiguity_rules, audit, violations)))
                            .encode()).hexdigest()

    if checks is not None:
        ck.check_mft(checks, ref.train, ref.test, ref.lexicon, preds, ref.default_tag,
                     ref.guesser_rules)
        ck.check_lemmas(checks, lemmas, ref.readings)
        for strategy, (report, pairs) in reports.items():
            expected_pairs = ck.check_evaluate(checks, report, ref.test, preds[strategy],
                                               ref.train_vocab, DEPTHS, CONFUSION_K)
            ck.check_confusion(checks, pairs, expected_pairs)
        ck.check_ambiguity(checks, ambiguity, ref.train, ref.lexicon)
        checks.expect("rules-never-raise-ambiguity",
                      ambiguity_rules[1] <= ambiguity[1] + 1e-12,
                      f"{ambiguity_rules} vs {ambiguity}")
        ck.check_rule_audit(checks, audit, len(inputs.rules))
        ck.check_exhaustive(checks, violations, ref.train, ref.lexicon)

    cli_outcomes = []
    if w.cli_edges:
        with phase("cli"):
            for name, argv, expected in cli_edge_cases(workdir):
                ok, detail = run_cli_edge(argv, expected)
                cli_outcomes.append((name, ok, detail))
        attempted += len(cli_outcomes)
        failed += sum(not ok for _, ok, _ in cli_outcomes)

    tokens = {
        "train": sum(len(s) for s in train_part) * w.epochs,
        "decode": sum(len(s) for s in test_part),
        "baselines": sum(len(s) for s in inputs.train) + 4 * sum(len(s) for s in test),
        "lemmatize": len(ref.readings),
        "eval": 8 * sum(len(s) for s in test),
        "audit": 4 * sum(len(s) for s in inputs.train),
    }
    return Round(tracer.phase_units(), counts, digest, attempted, failed, cli_outcomes,
                 tokens)


def scaled_seconds(rounds: list[Round]) -> dict[str, float]:
    """Each phase's time per round at the host's nominal speed: the median
    over `rounds` of its time in a round divided by that round's slowness,
    the mean probe time beside its units (see hostspeed.py)."""
    slowness = [hostspeed.slowness(r.probes) for r in rounds]
    return {name: statistics.median(r.seconds[name] / slow for r, slow in zip(rounds, slowness))
            for name in rounds[0].units}


def end_to_end(s: dict[str, float], t: dict[str, int]) -> dict[str, float]:
    """End-to-end metrics from phase seconds `s` and token counts `t`."""
    return {
        "setup_s": s["setup"],
        "train_tok_s": t["train"] / s["train"],
        "decode_b1_tok_s": t["decode"] / s["decode_b1"],
        "decode_b3_tok_s": t["decode"] / s["decode_b3"],
        "model_save_s": s["save"],
        "model_load_s": s["load"],
        "baseline_tok_s": t["baselines"] / s["baselines"],
        "lemma_compile_s": s["lemma_compile"],
        "lemmatize_tok_s": t["lemmatize"] / s["lemmatize"],
        "eval_tok_s": t["eval"] / s["eval"],
        "audit_tok_s": t["audit"] / s["audit"],
    }


# Traced runs -----------------------------------------------------------------

def install_tracing(tracer):
    """Wrap each module's functions as the calling module binds them."""
    from morphtag.lexicon import Lexicon
    for owner, attr, name in (
            (tagger, "word_features", "features.word"),
            (tagger, "tag_features", "features.tag"),
            (tagger, "suggested_tags", "features.suggested"),
            (tagger, "apply_cascade", "rules.cascade"),
            (rules_mod, "apply_cascade", "rules.cascade"),
            (rules_mod, "parse_rules", "rules.parse"),
            (rules_mod, "audit_precision", "rules.audit"),
            (Lexicon, "tags", "lexicon.tags"),
            (Lexicon, "lookup", "lexicon.lookup"),
            (lexicon_mod, "load_lexicon", "lexicon.load"),
            (lexicon_mod, "ambiguity_stats", "lexicon.ambiguity"),
            (tagger.Model, "intern", "tagger.intern"),
            (corpus_mod, "read_vertical", "corpus.read"),
            (synthetic, "generate_synthetic", "synthetic.generate"),
            (synthetic, "derive_safe_rules", "synthetic.generate"),
            (synthetic, "generate_lemma_lexicon", "synthetic.generate"),
            (baselines, "build_mft", "baselines.build"),
            (baselines, "tag_mft", "baselines.tag"),
            (baselines, "tag_mft_lexicon", "baselines.tag"),
            (lemmatizer, "generate_rules", "lemmatizer.generate"),
            (lemmatizer, "lemmatize", "lemmatizer.lemmatize"),
            (evaluation, "evaluate", "evaluation.evaluate"),
            (evaluation, "confusion_pairs", "evaluation.confusion"),
            (evaluation, "audit_lexicon_exhaustiveness", "evaluation.exhaustive")):
        tracer.patch(owner, attr, name)


TAGGER_PHASES = ("train", "decode_b1", "decode_b3", "rescore_b1")
PHASES = ("setup",) + TAGGER_PHASES + ("save", "load", "baselines", "lemma_compile",
                                       "lemmatize", "eval", "audit", "cli")


def setup_layers(tracer) -> dict[str, float]:
    _, seconds, _ = tracer.summary()
    return {metric: seconds.get(("setup", span), 0.0) for metric, span in (
        ("synthetic.generate_s", "synthetic.generate"),
        ("corpus.read_s", "corpus.read"),
        ("lexicon.load_s", "lexicon.load"),
        ("rules.parse_s", "rules.parse"))}


def round_layers(r: Round, tracer) -> tuple[dict, dict]:
    """Per-layer (seconds, counts) of one traced round."""
    calls, seconds, self_s = tracer.summary()

    def c(span, phases=TAGGER_PHASES):
        return sum(calls.get((p, span), 0) for p in phases)

    def s(span, phases=TAGGER_PHASES):
        return sum(seconds.get((p, span), 0.0) for p in phases)
    times = {
        "tagger.train_self_s": self_s["train"],
        "tagger.decode_b1_self_s": self_s["decode_b1"],
        "tagger.decode_b3_self_s": self_s["decode_b3"],
        "tagger.rescore_s": r.seconds["rescore_b1"],
        "features.word_s": s("features.word"),
        "features.tag_s": s("features.tag"),
        "features.suggested_s": s("features.suggested"),
        "rules.cascade_s": s("rules.cascade"),
        "rules.audit_s": s("rules.audit", ("audit",)),
        "lexicon.tags_s": s("lexicon.tags") + s("lexicon.lookup"),
        "lexicon.ambiguity_s": s("lexicon.ambiguity", ("audit",)),
        "baselines.build_s": s("baselines.build", ("baselines",)),
        "baselines.tag_s": s("baselines.tag", ("baselines",)),
        "evaluation.evaluate_s": s("evaluation.evaluate", ("eval",)),
        "evaluation.confusion_s": s("evaluation.confusion", ("eval",)),
        "evaluation.exhaustive_s": s("evaluation.exhaustive", ("audit",)),
    }
    counts = {
        "tagger.train_scores_per_token": c("features.tag", ("train",)) / r.tokens["train"],
        "tagger.decode_b1_scores_per_token": c("features.tag", ("decode_b1",)) / r.tokens["decode"],
        "tagger.decode_b3_scores_per_token": c("features.tag", ("decode_b3",)) / r.tokens["decode"],
        "tagger.intern_calls": c("tagger.intern"),
        "features.word_calls": c("features.word"),
        "features.tag_calls": c("features.tag"),
        "rules.cascade_calls": c("rules.cascade"),
        "lexicon.tags_calls": c("lexicon.tags") + c("lexicon.lookup"),
    }
    return times, counts
