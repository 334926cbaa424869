"""Morpho-syntactic tagging toolkit for large tagsets.

Guided-learning bidirectional perceptron tagging with morphological-lexicon
soft/hard constraints, a cascaded contextual rule engine, most-frequent-tag
baselines, a lexicon-compiled lemmatizer, and an evaluation harness.
"""

from .corpus import Corpus, CorpusStats, Sentence, Token, read_vertical, stats, write_vertical
from .errors import ConfigError, DataError, FormatError, MorphtagError, SchemaError
from .evaluation import (EvalReport, audit_lexicon_exhaustiveness, chi_squared,
                         confusion_pairs, evaluate)
from .features import FeatureConfig
from .lexicon import Lexicon, ambiguity_stats, load_lexicon
from .lemmatizer import (LemmaRule, LemmaRuleSet, generate_rules, lemma_impact,
                         lemmatize)
from .rules import RuleCascade, apply_cascade, audit_precision, parse_rules
from .synthetic import SyntheticConfig, generate_lemma_lexicon, generate_synthetic
from .tagger import (DecodeOptions, Model, TrainOptions, decode,
                     decode_with_trace, rescore, train)
from .tagset import (TagInventory, TagSchema, lemma_compatible, parse_schema,
                     project, validate)

__version__ = "0.1.0"

__all__ = [
    "Corpus", "CorpusStats", "Sentence", "Token", "read_vertical", "stats",
    "write_vertical", "ConfigError", "DataError", "FormatError",
    "MorphtagError", "SchemaError", "EvalReport",
    "audit_lexicon_exhaustiveness", "chi_squared", "confusion_pairs",
    "evaluate", "FeatureConfig", "Lexicon", "ambiguity_stats", "load_lexicon",
    "LemmaRule", "LemmaRuleSet", "generate_rules", "lemma_impact",
    "lemmatize", "RuleCascade", "apply_cascade", "audit_precision",
    "parse_rules", "SyntheticConfig", "generate_lemma_lexicon",
    "generate_synthetic", "DecodeOptions", "Model", "TrainOptions", "decode",
    "decode_with_trace", "rescore", "train", "TagInventory", "TagSchema",
    "lemma_compatible", "parse_schema", "project", "validate",
]
