"""Seeded synthetic corpora and lexicons for testing and experiments.

All generators are deterministic for a fixed (config, seed).  The emitted
lexicon is exhaustive for the corpus: every token's gold tag is among its
lexicon tags.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from dataclasses import dataclass

from .corpus import Corpus, Sentence, Token
from .errors import ConfigError
from .lexicon import Lexicon
from .rules import Condition, Rule, RuleCascade

# Tag class letters cycle over A..T, keeping U free for punctuation.
_CLASS_LETTERS = "ABCDEFGHIJKLMNOPQRST"
_STEM_ALPHABET = "abcdefghijklm"
_SUFFIX_ALPHABET = "nopqrstuvwxyz"
MAX_TAGS_PER_WORD = 3  # tags of an ambiguous word: 2 to this many
MAX_SAFE_RULES = 20  # derive_safe_rules stops at this many rules


@dataclass(frozen=True)
class SyntheticConfig:
    tag_count: int = 30
    vocab_size: int = 500
    sentence_count: int = 200
    min_sentence_len: int = 4
    max_sentence_len: int = 12
    ambiguity_rate: float = 0.3

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be >= 1")
        if self.tag_count < 1:
            raise ConfigError("tag_count must be >= 1")
        if not 0.0 <= self.ambiguity_rate <= 1.0:
            raise ConfigError(f"ambiguity_rate {self.ambiguity_rate} outside [0, 1]")
        if self.sentence_count < 0:
            raise ConfigError("sentence_count must be >= 0")
        if not 1 <= self.min_sentence_len <= self.max_sentence_len:
            raise ConfigError("need 1 <= min_sentence_len <= max_sentence_len")


def synthetic_tags(count: int) -> list[str]:
    return [f"{_CLASS_LETTERS[i % len(_CLASS_LETTERS)]}{i:03d}" for i in range(count)]


def generate_synthetic(config: SyntheticConfig, seed: int) -> tuple[Corpus, Lexicon]:
    """Generate a gold-tagged corpus plus an exhaustive lexicon.

    The tag of an ambiguous token is a deterministic function of the word
    and the previous word, so the corpus is learnable from word-bigram
    context alone.
    """
    rng = random.Random(f"synthetic:{seed}")
    tags = synthetic_tags(config.tag_count)
    vocab = [f"w{i:04d}" for i in range(config.vocab_size)]

    word_tags: dict[str, list[str]] = {}
    for word in vocab:
        if rng.random() < config.ambiguity_rate:
            k = min(rng.randint(2, MAX_TAGS_PER_WORD), config.tag_count)
            if k < 2:
                word_tags[word] = [tags[0]]
                continue
            word_tags[word] = sorted(rng.sample(tags, k))
        else:
            word_tags[word] = [rng.choice(tags)]

    # Zipf-ish.  random.choices(weights=) builds this same running sum on
    # every call; built once, the draws are the same.
    cum_weights = list(itertools.accumulate(1.0 / (rank + 2)
                                            for rank in range(config.vocab_size)))

    word_tokens = {word: [Token(word, tag) for tag in word_tags[word]] for word in vocab}

    def pick_token(word: str, prev: str) -> Token:
        choices = word_tokens[word]
        if len(choices) == 1:
            return choices[0]
        h = zlib.crc32(f"{seed}:{prev}|{word}".encode("utf-8"))
        return choices[h % len(choices)]

    sentences = []
    for _ in range(config.sentence_count):
        length = rng.randint(config.min_sentence_len, config.max_sentence_len)
        words = rng.choices(vocab, cum_weights=cum_weights, k=length)
        prev = "<s>"
        toks = []
        for word in words:
            toks.append(pick_token(word, prev))
            prev = word
        sentences.append(Sentence(tuple(toks)))

    entries = {w: dict.fromkeys(word_tags[w]) for w in vocab}
    return Corpus(tuple(sentences)), Lexicon(entries)


def split_corpus(corpus: Corpus, fractions: tuple[float, ...]) -> list[Corpus]:
    """Split by sentence into contiguous parts; fractions must be finite,
    non-negative and sum to 1."""
    if not all(0 <= f < math.inf for f in fractions):
        raise ConfigError(f"split fractions must be finite and >= 0, not {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions sum to {sum(fractions)}, not 1")
    n = len(corpus.sentences)
    parts = []
    start = 0
    for i, frac in enumerate(fractions):
        end = n if i == len(fractions) - 1 else start + int(round(frac * n))
        parts.append(Corpus(corpus.sentences[start:end]))
        start = end
    return parts


def generate_lemma_lexicon(paradigm_count: int, forms_per_paradigm: int,
                           stems_per_paradigm: int, seed: int) -> Lexicon:
    """Lexicon of (wordform, tag, lemma) triples with shared suffix paradigms.

    Each paradigm owns its tags, a lemma suffix, and one form suffix per
    tag; wordforms are stem + form suffix, lemmas are stem + lemma suffix.
    Stems and suffixes draw from disjoint alphabets so suffix-rewrite rule
    extraction is exact and conflict-free.
    """
    if paradigm_count < 1 or forms_per_paradigm < 1 or stems_per_paradigm < 1:
        raise ConfigError("paradigm/form/stem counts must be >= 1")
    rng = random.Random(f"lemma-lexicon:{seed}")

    def suffix(min_len, max_len):
        return "".join(rng.choice(_SUFFIX_ALPHABET) for _ in range(rng.randint(min_len, max_len)))

    entries: dict[str, dict[str, str]] = {}
    stems_seen: set[str] = set()
    for p in range(paradigm_count):
        letter = _CLASS_LETTERS[p % len(_CLASS_LETTERS)]
        lemma_suffix = suffix(1, 3)
        forms = [(f"{letter}{p:03d}x{k:02d}", suffix(0, 4)) for k in range(forms_per_paradigm)]
        for _ in range(stems_per_paradigm):
            while True:
                stem = "".join(rng.choice(_STEM_ALPHABET)
                               for _ in range(rng.randint(3, 7)))
                if stem not in stems_seen:
                    stems_seen.add(stem)
                    break
            lemma = stem + lemma_suffix
            for tag, form_suffix in forms:
                surface = stem + form_suffix
                readings = entries.get(surface)
                if readings is None:
                    readings = entries[surface] = {}
                readings[tag] = lemma
    return Lexicon(entries)


def derive_safe_rules(corpus: Corpus, lexicon: Lexicon) -> RuleCascade:
    """Build up to MAX_SAFE_RULES RETAIN rules that are 100% precise on the
    given corpus.

    For ambiguous word types whose observed gold tags are a proper subset of
    their lexicon tags, retain exactly the observed set.  By construction
    audit_precision reports removed_gold_count 0 on this corpus.
    """
    observed: dict[str, set[str]] = {}
    for tok in corpus.tokens():
        if tok.gold_tag is not None:
            observed.setdefault(tok.surface, set()).add(tok.gold_tag)
    rules = []
    for surface in sorted(observed):
        tags = lexicon.tags(surface)
        if tags is None or len(tags) < 2:
            continue
        kept = observed[surface]
        if kept < tags:
            rules.append(Rule(
                f"retain-{surface}",
                (Condition(0, "SURFACE-IN", (surface,)),),
                "RETAIN",
                tuple(sorted(kept)),
            ))
            if len(rules) >= MAX_SAFE_RULES:
                break
    return RuleCascade(tuple(rules))
