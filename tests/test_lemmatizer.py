import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_lexicon
from morphtag.errors import DataError
from morphtag.lemmatizer import (LemmaRule, LemmaRuleSet, dump_rules,
                                 generate_rules, lemma_impact, lemmatize)
from morphtag.synthetic import generate_lemma_lexicon


class TestGeneration:
    def test_aorist_to_infinitive_stem(self):
        lex = make_lexicon({"четох": {"Vpitf-o1s": "чета"}})
        rules = generate_rules(lex)
        assert rules.rules() == [LemmaRule("Vpitf-o1s", "ох", "а")]

    def test_identity_reading(self):
        lex = make_lexicon({"чета": {"Vpitf-r1s": "чета"}})
        rules = generate_rules(lex)
        assert rules.rules() == [LemmaRule("Vpitf-r1s", "", "")]

    def test_disjoint_forms(self):
        lex = make_lexicon({"съм": {"Vx": "бъда"}})
        assert generate_rules(lex).rules() == [LemmaRule("Vx", "съм", "бъда")]

    def test_deduplication_counts(self):
        lex = make_lexicon({"четох": {"V1": "чета"}, "плетох": {"V1": "плета"}})
        rules = generate_rules(lex)
        assert rules.counts == {LemmaRule("V1", "ох", "а"): 2}

    def test_conflict_detected(self):
        # both forms map -ох to different endings under the same tag
        lex = make_lexicon({"плетох": {"V1": "плетя"},
                            "четох": {"V1": "чета"}})
        with pytest.raises(DataError) as exc:
            generate_rules(lex)
        # readings go in sorted (surface, tag) order: плетох sets the rule,
        # четох is the first reading that contradicts it
        assert str(exc.value) == ("conflicting rules for (V1, -ох): "
                                  "-> 'я' vs -> 'а' (from четох)")

    def test_lemmaless_reading_rejected(self):
        with pytest.raises(DataError):
            generate_rules(make_lexicon({"а": ["X"]}))


class TestApplication:
    def test_generalizes_to_unseen_form(self):
        lex = make_lexicon({"четох": {"V1": "чета"}})
        rules = generate_rules(lex)
        assert lemmatize("плетох", "V1", rules) == "плета"

    def test_longest_suffix_wins(self):
        rules = LemmaRuleSet()
        rules.add(LemmaRule("V1", "х", "м"))
        rules.add(LemmaRule("V1", "ох", "а"))
        assert lemmatize("четох", "V1", rules) == "чета"
        assert lemmatize("видях", "V1", rules) == "видям"

    def test_lexicon_lookup_preferred(self):
        lex = make_lexicon({"съм": {"Vx": "бъда"}})
        rules = LemmaRuleSet()
        rules.add(LemmaRule("Vx", "м", "к"))
        assert lemmatize("съм", "Vx", rules, lexicon=lex) == "бъда"
        assert lemmatize("съм", "Vx", rules) == "сък"

    def test_identity_fallback(self):
        assert lemmatize("слово", "N1", LemmaRuleSet()) == "слово"
        # A known tag whose rules match no suffix of the surface.
        rules = LemmaRuleSet()
        rules.add(LemmaRule("N1", "ове", ""))
        assert rules.match("слово", "N1") is None
        assert lemmatize("слово", "N1", rules) == "слово"

    def test_empty_old_end_appends(self):
        rules = LemmaRuleSet()
        rules.add(LemmaRule("N1", "", "та"))
        assert lemmatize("вода", "N1", rules) == "водата"

    def test_rules_are_per_tag(self):
        rules = LemmaRuleSet()
        rules.add(LemmaRule("V1", "ох", "а"))
        assert lemmatize("четох", "V2", rules) == "четох"

    @settings(max_examples=30)
    @given(st.integers(0, 2 ** 31))
    def test_roundtrip_over_generated_lexicon(self, seed):
        lex = generate_lemma_lexicon(paradigm_count=6, forms_per_paradigm=4,
                                     stems_per_paradigm=5, seed=seed)
        rules = generate_rules(lex)
        for surface, readings in lex.items():
            for tag, lemma in readings.items():
                assert lemmatize(surface, tag, rules) == lemma


class TestPinned:
    @pytest.mark.parametrize("seed, digest", [
        (3, "04443708246f4b5b2caee19de04d475c87225fa4c181741d4fb5135b02b55d33"),
        (11, "e78dccc4be6e42174147c95a6229eaf6f210ef1bf8e727fb4a9616bdb3d1172b"),
    ])
    def test_rules_and_lemmas_pinned(self, seed, digest):
        """sha256 of the compiled rules with their counts, then of the
        rule-only lemma of every reading of a generated lemma lexicon."""
        lex = generate_lemma_lexicon(12, 6, 8, seed)
        rules = generate_rules(lex)
        lemmas = [lemmatize(surface, tag, rules)
                  for surface, readings in sorted(lex.items()) for tag in sorted(readings)]
        text = dump_rules(rules) + "\n".join(lemmas)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSerialization:
    def test_dump_text(self):
        """One `tag<TAB>old<TAB>new<TAB>count` line per rule, sorted, with
        identical rules counted once each."""
        lex = make_lexicon({"четох": {"V1": "чета"}, "плетох": {"V1": "плета"},
                            "съм": {"Vx": "бъда"}})
        assert dump_rules(generate_rules(lex)) == "V1\tох\tа\t2\nVx\tсъм\tбъда\t1\n"
        assert dump_rules(LemmaRuleSet()) == ""

    def test_conflicting_rule(self):
        rules = LemmaRuleSet()
        rules.add(LemmaRule("V1", "ох", "а"))
        with pytest.raises(DataError, match=r"-ох\): -> 'а' vs -> 'б' \(from x\)"):
            rules.add(LemmaRule("V1", "ох", "б"), source="x")
        assert rules.counts == {LemmaRule("V1", "ох", "а"): 1}


class TestLemmaImpact:
    def test_counts(self, schema):
        gold = ["Vpitf-o3s", "Ncmsf", "Ansi"]
        pred = ["Vpitf-r3s", "Ncmsf", "Dm"]
        errors, harmless, fraction = lemma_impact(gold, pred, schema)
        assert (errors, harmless) == (2, 1)
        assert fraction == pytest.approx(0.5)

    def test_no_errors(self, schema):
        assert lemma_impact(["Dm"], ["Dm"], schema) == (0, 0, 0.0)

    def test_length_mismatch(self, schema):
        with pytest.raises(ValueError):
            lemma_impact(["Dm"], [], schema)
