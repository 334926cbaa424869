"""Command-line driver.

Exit codes: 0 success, 2 input-format error, 3 configuration error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from . import baselines as bl
from .corpus import (Corpus, Sentence, Token, read_text, read_vertical, stats, write_text,
                     write_vertical)
from .errors import ConfigError, DataError, FormatError, MorphtagError
from .evaluation import audit_lexicon_exhaustiveness, evaluate
from .experiment import format_results, parse_spec, run_experiment
from .features import FeatureConfig
from .lexicon import ambiguity_stats, dump_lexicon, load_lexicon
from .lemmatizer import dump_rules, generate_rules, lemmatize
from .rules import audit_precision, parse_rules
from .synthetic import SyntheticConfig, generate_synthetic, split_corpus
from .tagger import CANDIDATE_SOURCES, DecodeOptions, Model, TrainOptions, decode, train

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _load_optional(path, loader):
    return loader(read_text(path), path) if path else None


# Commands ----------------------------------------------------------------

def _cmd_train(args):
    corpus = read_vertical(read_text(args.train), args.train)
    lexicon = _load_optional(args.lexicon, load_lexicon)
    rules = _load_optional(args.rules, parse_rules)
    cfg = FeatureConfig(
        use_lexicon_features=args.lexicon_features == "on",
        lexicon_filter={"off": "none", "soft": "rules",
                        "test-only": "test-only"}[args.rules_mode])
    topts = TrainOptions(epochs=args.epochs, seed=args.seed,
                         aggressiveness=args.aggressiveness, margin=args.margin,
                         candidate_source=args.candidates)
    model, epoch_acc = train(corpus, lexicon, rules, topts, cfg)
    for i, acc in enumerate(epoch_acc, 1):
        print(f"epoch {i}: training accuracy {acc:.4f}")
    model.save(args.model)
    print(f"model written to {args.model}")
    return EXIT_OK


def _cmd_tag(args):
    model = Model.load(args.model)
    corpus = read_vertical(read_text(args.input), args.input)
    lexicon = _load_optional(args.lexicon, load_lexicon)
    rules = _load_optional(args.rules, parse_rules)
    cfg = model.cfg
    if cfg.use_lexicon_features and lexicon is None:
        raise ConfigError("model was trained with lexicon features; pass --lexicon")
    if cfg.lexicon_filter != "none" and rules is None:
        raise ConfigError(f"model's lexicon features are filtered by rules "
                          f"(lexicon_filter {cfg.lexicon_filter!r}); pass --rules")
    hard = rules if args.hard_rules == "on" else None
    if args.hard_rules == "on" and rules is None:
        raise ConfigError("--hard-rules on requires --rules")
    dopts = DecodeOptions(beam_size=args.beam, candidate_source=args.candidates,
                          hard_output_rules=hard)
    tagged = []
    for sent in corpus:
        tags, _ = decode(sent, model, lexicon, rules, dopts)
        tagged.append(Sentence(tuple(Token(tok.surface, tag)
                                     for tok, tag in zip(sent.tokens, tags))))
    write_text(args.output, write_vertical(Corpus(tuple(tagged))))
    return EXIT_OK


def _cmd_baseline(args):
    train_corpus = read_vertical(read_text(args.train), args.train)
    test_corpus = read_vertical(read_text(args.test), args.test)
    lexicon = _load_optional(args.lexicon, load_lexicon)
    if args.mode == "mft-lexicon" and lexicon is None:
        raise ConfigError("mft-lexicon requires --lexicon")
    table = bl.build_mft(train_corpus, lexicon)
    if args.mode == "mft-fail":
        strategy = bl.FailUnknown()
    elif args.mode == "mft-default":
        strategy = bl.DefaultTag(args.default_tag)
    elif args.mode == "mft-guesser":
        if args.guesser:
            guesser = bl.load_guesser(read_text(args.guesser), args.guesser)
        else:
            text = resources.files("morphtag.data").joinpath("guesser_bg.txt") \
                .read_text("utf-8")
            guesser = bl.load_guesser(text)
        strategy = guesser
    predictions = []
    for sent in test_corpus:
        if args.mode == "mft-lexicon":
            predictions.append(bl.tag_mft_lexicon(sent, table, lexicon, args.seed))
        else:
            predictions.append(bl.tag_mft(sent, table, strategy, args.seed))
    vocab = {tok.surface for tok in train_corpus.tokens()}
    report = evaluate(test_corpus, predictions, vocab)
    print(f"{args.mode}\ttoken accuracy\t{report.token_accuracy * 100:.2f}")
    return EXIT_OK


def _cmd_experiment(args):
    spec = parse_spec(read_text(args.spec), base_dir=args.base_dir or ".", path=args.spec)
    results = run_experiment(spec)
    table = format_results(results)
    if args.out:
        write_text(args.out, table)
    sys.stdout.write(table)
    return EXIT_OK


def _cmd_lemmatize(args):
    if bool(args.input) != bool(args.output):
        raise ConfigError("--input requires --output" if args.input else
                          "--output requires --input")
    lexicon = load_lexicon(read_text(args.lexicon), args.lexicon)
    ruleset = generate_rules(lexicon)
    if args.check:
        right = [lemmatize(surface, tag, ruleset) == lemma
                 for surface, readings in lexicon.items() for tag, lemma in readings.items()]
        print(f"round-trip: {sum(right)}/{len(right)} correct")
        if not all(right):
            return EXIT_INTERNAL
    if args.input:
        corpus = read_vertical(read_text(args.input), args.input)
        lines = []
        for sent in corpus:
            for tok in sent.tokens:
                if tok.gold_tag is None:
                    raise DataError(f"token {tok.surface!r} has no tag to lemmatize with")
                lemma = lemmatize(tok.surface, tok.gold_tag, ruleset,
                                  lexicon if args.use_lexicon == "on" else None)
                lines.append(f"{tok.surface}\t{tok.gold_tag}\t{lemma}")
            lines.append("")
        write_text(args.output, "\n".join(lines) + "\n")
    # Written last, so a failed check or input leaves no rules file.
    if args.dump_rules:
        write_text(args.dump_rules, dump_rules(ruleset))
    return EXIT_OK


def _cmd_stats(args):
    corpus = read_vertical(read_text(args.corpus), args.corpus)
    lexicon = _load_optional(args.lexicon, load_lexicon)
    rules = _load_optional(args.rules, parse_rules)
    st = stats(corpus)
    # The report is printed whole at the end, so a usage error prints none of it.
    lines = [f"sentences\t{st.sentence_count}", f"tokens\t{st.token_count}",
             f"types\t{st.type_count}", f"tag_types\t{st.tag_type_count}"]
    if args.ambiguity:
        if lexicon is None:
            raise ConfigError("--ambiguity requires --lexicon")
        frac, mean = ambiguity_stats(lexicon, corpus, None, args.punct_class)
        lines += [f"ambiguous_fraction\t{frac:.4f}", f"tags_per_token\t{mean:.4f}"]
        if rules is not None:
            frac_r, mean_r = ambiguity_stats(lexicon, corpus, rules, args.punct_class)
            lines += [f"ambiguous_fraction_after_rules\t{frac_r:.4f}",
                      f"tags_per_token_after_rules\t{mean_r:.4f}"]
    if args.audit_rules:
        if lexicon is None or rules is None:
            raise ConfigError("--audit-rules requires --lexicon and --rules")
        lines += [f"rule\t{rule_id}\tfired\t{fired}\tremoved_gold\t{removed_gold}"
                  for rule_id, (fired, removed_gold)
                  in audit_precision(rules, corpus, lexicon).items()]
    if args.check_lexicon:
        if lexicon is None:
            raise ConfigError("--check-lexicon requires --lexicon")
        violations = audit_lexicon_exhaustiveness(corpus, lexicon)
        lines.append(f"lexicon_violations\t{len(violations)}")
        lines += [f"violation\t{surface}\t{tag}" for surface, tag in violations[:20]]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_gen_synthetic(args):
    config = SyntheticConfig(
        tag_count=args.tags, vocab_size=args.vocab,
        sentence_count=args.sentences, min_sentence_len=args.min_len,
        max_sentence_len=args.max_len, ambiguity_rate=args.ambiguity)
    corpus, lexicon = generate_synthetic(config, args.seed)
    if args.split:
        try:
            fractions = tuple(float(x) for x in args.split.split(","))
        except ValueError:
            raise ConfigError(f"bad --split {args.split!r}") from None
        if len(fractions) > 3:
            raise ConfigError(f"--split takes at most three fractions (train, dev, test), "
                              f"not {len(fractions)}")
        parts = split_corpus(corpus, fractions)
        for name, part in zip(("train", "dev", "test"), parts):
            write_text(f"{args.out_corpus}.{name}", write_vertical(part))
    else:
        write_text(args.out_corpus, write_vertical(corpus))
    write_text(args.out_lexicon, dump_lexicon(lexicon))
    return EXIT_OK


# Parser ------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="morphtag",
                     description="Morpho-syntactic tagging toolkit for large tagsets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a tagging model")
    p.add_argument("--train", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--rules")
    p.add_argument("--rules-mode", choices=("off", "soft", "test-only"), default="off")
    p.add_argument("--lexicon-features", choices=("on", "off"), default="off")
    p.add_argument("--candidates", choices=CANDIDATE_SOURCES, default="all")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the model's meta only; training is deterministic")
    p.add_argument("--aggressiveness", type=float, default=1.0)
    p.add_argument("--margin", type=float, default=1.0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("tag", help="tag a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--rules")
    p.add_argument("--hard-rules", choices=("on", "off"), default="off")
    p.add_argument("--candidates", choices=CANDIDATE_SOURCES, default="all")
    p.add_argument("--beam", type=int, default=1)
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("baseline", help="most-frequent-tag baselines")
    p.add_argument("mode", choices=("mft-fail", "mft-default", "mft-guesser",
                                    "mft-lexicon"))
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--guesser")
    p.add_argument("--default-tag", default="Ncmsi")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("experiment", help="run a declarative experiment grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.add_argument("--base-dir")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("lemmatize", help="lexicon-compiled suffix-rewrite lemmatizer")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--use-lexicon", choices=("on", "off"), default="on")
    p.add_argument("--dump-rules")
    p.add_argument("--check", action="store_true",
                   help="verify the lexicon round-trips through the rules")
    p.set_defaults(func=_cmd_lemmatize)

    p = sub.add_parser("stats", help="corpus statistics and audits")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--rules")
    p.add_argument("--ambiguity", action="store_true")
    p.add_argument("--audit-rules", action="store_true")
    p.add_argument("--check-lexicon", action="store_true")
    p.add_argument("--punct-class", default="U")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("gen-synthetic", help="generate a seeded synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tags", type=int, default=30)
    p.add_argument("--vocab", type=int, default=500)
    p.add_argument("--sentences", type=int, default=200)
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--ambiguity", type=float, default=0.3)
    p.add_argument("--split", help="comma-separated fractions, e.g. 0.8,0.1,0.1")
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-lexicon", required=True)
    p.set_defaults(func=_cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (FormatError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MorphtagError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
