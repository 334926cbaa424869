import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_lexicon
from morphtag.corpus import Sentence, Token
from morphtag.errors import DataError, FormatError
from morphtag.lexicon import ambiguity_stats
from morphtag.rules import (Condition, Rule, RuleCascade, _sweep, _visits, apply_cascade,
                            audit_precision, format_rules, parse_rules)
from morphtag.synthetic import SyntheticConfig, derive_safe_rules, generate_synthetic

NUMERAL_RULE = """
RULE ncmt-after-numeral
IF 0 CLASS-IS Ncmsh;Ncmt
IF -1 NUMERAL
THEN RETAIN Ncmt
END
"""

YA_RULES = """
RULE ya-interjection
IF 0 SURFACE-IN я
IF 0 SENT-INITIAL
IF 1 SURFACE-IN ,
THEN RETAIN I
END

RULE ya-pronoun
IF 0 SURFACE-IN я
THEN RETAIN P
END
"""


def sent(*surfaces):
    return Sentence(tuple(Token(s, None) for s in surfaces))


class TestParse:
    def test_structure(self):
        cascade = parse_rules(NUMERAL_RULE)
        assert len(cascade) == 1
        rule = cascade.rules[0]
        assert rule.rule_id == "ncmt-after-numeral"
        assert rule.action == "RETAIN"
        assert rule.patterns == ("Ncmt",)
        assert [c.kind for c in rule.conditions] == ["CLASS-IS", "NUMERAL"]

    def test_comments_and_blanks(self):
        cascade = parse_rules("# header\n\n" + NUMERAL_RULE + "# trailer\n")
        assert len(cascade) == 1

    def test_class_is_canonicalized(self):
        a = parse_rules("RULE r\nIF 0 CLASS-IS B;A\nTHEN RETAIN A\nEND\n")
        b = parse_rules("RULE r\nIF 0 CLASS-IS A;B\nTHEN RETAIN A\nEND\n")
        assert a.rules[0].conditions == b.rules[0].conditions

    def test_duplicate_id(self):
        with pytest.raises(DataError):
            parse_rules("RULE r\nIF 0 NUMERAL\nTHEN RETAIN A\nEND\n" * 2)

    @pytest.mark.parametrize("text", [
        "IF 0 NUMERAL\n",                                        # IF outside block
        "RULE r\nIF 3 NUMERAL\nTHEN RETAIN A\nEND\n",            # offset window
        "RULE r\nIF x NUMERAL\nTHEN RETAIN A\nEND\n",            # non-integer offset
        "RULE r\nIF 0 FROBNICATE\nTHEN RETAIN A\nEND\n",         # unknown condition
        "RULE r\nIF 0 NUMERAL extra\nTHEN RETAIN A\nEND\n",      # stray argument
        "RULE r\nIF 0 SURFACE-IN\nTHEN RETAIN A\nEND\n",         # missing argument
        "RULE r\nIF 0 NUMERAL\nTHEN KEEP A\nEND\n",              # bad action
        "RULE r\nIF 0 NUMERAL\nEND\n",                           # no THEN
        "RULE r\nIF 1 NUMERAL\nTHEN RETAIN A\nEND\n",            # no offset-0 cond
        "RULE r\nIF 0 NUMERAL\nTHEN RETAIN A\n",                 # unterminated
        "RULE r\nRULE s\n",                                      # nested RULE
        "bogus\n",                                               # unknown keyword
        "RULE r\nIF 0\nTHEN RETAIN A\nEND\n",                    # no condition
        "RULE r\nIF 0 CLASS-IS ;\nTHEN RETAIN A\nEND\n",         # empty argument
        "THEN RETAIN A\n",                                       # THEN outside block
        "RULE r\nIF 0 NUMERAL\nTHEN RETAIN ,\nEND\n",            # empty pattern set
    ])
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            parse_rules(text)

    def test_second_then_rejected(self):
        with pytest.raises(FormatError) as exc:
            parse_rules("RULE r\nIF 0 NUMERAL\nTHEN RETAIN A\nTHEN REMOVE B\nEND\n", "r.dsl")
        assert str(exc.value) == "r.dsl:4: rule 'r' has a second THEN action"

    def test_roundtrip(self):
        cascade = parse_rules(YA_RULES + "\n" + NUMERAL_RULE)
        assert parse_rules(format_rules(cascade)) == cascade


class TestApply:
    def test_numeral_context(self):
        cascade = parse_rules(NUMERAL_RULE)
        out = apply_cascade(cascade, sent("5", "лв"),
                            [{"Mc"}, {"Ncmsh", "Ncmt"}])
        assert out == [{"Mc"}, {"Ncmt"}]

    def test_no_numeral_no_fire(self):
        cascade = parse_rules(NUMERAL_RULE)
        out = apply_cascade(cascade, sent("на", "лв"),
                            [{"R"}, {"Ncmsh", "Ncmt"}])
        assert out[1] == {"Ncmsh", "Ncmt"}

    def test_digit_surface_counts_as_numeral(self):
        cascade = parse_rules(NUMERAL_RULE)
        out = apply_cascade(cascade, sent("1984", "лв"),
                            [{"Ncmsi"}, {"Ncmsh", "Ncmt"}])
        assert out[1] == {"Ncmt"}

    def test_order_sensitivity(self):
        # the specific interjection reading must precede the general
        # pronoun rule or it can never fire
        cands = [{"I", "Ppetas1"}, {"U,"}, {"Vpitf-r2s"}]
        s = sent("я", ",", "ела")
        out = apply_cascade(parse_rules(YA_RULES), s, cands)
        assert out[0] == {"I"}
        flipped = YA_RULES.split("\n\n")
        reordered = parse_rules("\n\n".join(reversed(flipped)))
        out2 = apply_cascade(reordered, s, cands)
        assert out2[0] == {"Ppetas1"}

    def test_never_empties(self):
        cascade = parse_rules("RULE r\nIF 0 SURFACE-IN a\nTHEN REMOVE X\nEND\n")
        out = apply_cascade(cascade, sent("a"), [{"X1", "X2"}])
        assert out == [{"X1", "X2"}]

    def test_input_not_mutated(self):
        cascade = parse_rules(NUMERAL_RULE)
        cands = [{"Mc"}, {"Ncmsh", "Ncmt"}]
        apply_cascade(cascade, sent("5", "лв"), cands)
        assert cands[1] == {"Ncmsh", "Ncmt"}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            apply_cascade(parse_rules(""), sent("a"), [set()])

    def test_remove_action(self):
        cascade = parse_rules("RULE r\nIF 0 SURFACE-IN a\nTHEN REMOVE X\nEND\n")
        out = apply_cascade(cascade, sent("a"), [{"X1", "Y"}])
        assert out == [{"Y"}]

    def test_boundary_conditions(self):
        cascade = parse_rules(
            "RULE r\nIF 0 SENT-FINAL\nTHEN RETAIN Y\nEND\n")
        out = apply_cascade(cascade, sent("a", "b"), [{"X", "Y"}, {"X", "Y"}])
        assert out == [{"X", "Y"}, {"Y"}]

    def test_left_to_right_within_a_rule(self):
        # the firing at position 1 changes the left context position 2 tests
        cascade = parse_rules(
            "RULE r\nIF 0 SURFACE-IN a\nIF -1 CLASS-IS A1;B1\nTHEN REMOVE A\nEND\n")
        out = apply_cascade(cascade, sent("a", "a", "a"), [{"A1", "B1"}] * 3)
        assert out == [{"A1", "B1"}, {"B1"}, {"A1", "B1"}]

    @settings(max_examples=60)
    @given(st.integers(0, 2 ** 31))
    def test_reductive_fuzz(self, seed):
        rng = random.Random(seed)
        tags = ["A1", "A2", "B1", "B2", "C1"]
        words = ["a", "b", "c", "5"]
        n = rng.randint(1, 6)
        s = sent(*(rng.choice(words) for _ in range(n)))
        cands = [set(rng.sample(tags, rng.randint(1, len(tags))))
                 for _ in range(n)]
        blocks = []
        for k in range(rng.randint(1, 4)):
            offset = rng.randint(-2, 2)
            conds = [f"IF 0 SURFACE-IN {rng.choice(words)}"]
            if offset != 0:
                conds.append(f"IF {offset} HAS-PREFIX {rng.choice('ABC')}")
            action = rng.choice(["RETAIN", "REMOVE"])
            pats = ",".join(rng.sample(["A", "B", "C", "A1"], rng.randint(1, 2)))
            blocks.append(f"RULE r{k}\n" + "\n".join(conds)
                          + f"\nTHEN {action} {pats}\nEND\n")
        cascade = parse_rules("\n".join(blocks))
        out = apply_cascade(cascade, s, cands)
        for before, after in zip(cands, out):
            assert after and after <= before


class TestAudit:
    def test_safe_rule(self):
        lex = make_lexicon({"5": ["Mc"], "лв": ["Ncmsh", "Ncmt"]})
        corpus = make_corpus(["5/Mc", "лв/Ncmt"], ["лв/Ncmsh"])
        report = audit_precision(parse_rules(NUMERAL_RULE), corpus, lex)
        assert report["ncmt-after-numeral"] == (1, 0)

    def test_unsafe_rule_counts_gold_removals(self):
        lex = make_lexicon({"a": ["X", "Y"]})
        corpus = make_corpus(["a/X"], ["a/Y"], ["a/Y"])
        bad = parse_rules("RULE drop-y\nIF 0 SURFACE-IN a\nTHEN REMOVE Y\nEND\n")
        assert audit_precision(bad, corpus, lex)["drop-y"] == (3, 2)

    def test_match_without_change_not_fired(self):
        lex = make_lexicon({"a": ["X"]})
        corpus = make_corpus(["a/X"])
        noop = parse_rules("RULE keep-x\nIF 0 SURFACE-IN a\nTHEN RETAIN X\nEND\n")
        assert audit_precision(noop, corpus, lex)["keep-x"] == (0, 0)


def reference_cascade(cascade, sentence, candidates):
    """Every rule tested at every position with Rule.matches."""
    sets = [set(c) for c in candidates]
    for rule in cascade:
        for i in range(len(sets)):
            if rule.matches(sentence, i, sets):
                filtered = rule.filtered(sets[i])
                if filtered:
                    sets[i] = filtered
    return sets


def reference_audit(cascade, corpus, lexicon):
    report = {rule.rule_id: [0, 0] for rule in cascade}
    for s in corpus:
        sets = [set(lexicon.tags(t.surface) or {t.gold_tag}) for t in s.tokens]
        for rule in cascade:
            for i in range(len(sets)):
                if rule.matches(s, i, sets):
                    filtered = rule.filtered(sets[i])
                    if filtered and filtered != sets[i]:
                        report[rule.rule_id][0] += 1
                        gold = s.tokens[i].gold_tag
                        if gold in sets[i] and gold not in filtered:
                            report[rule.rule_id][1] += 1
                        sets[i] = filtered
    return {rid: tuple(counts) for rid, counts in report.items()}


SWEEP_WORDS = ("a", "b", "c", "5", "12", "x7")
SWEEP_TAGS = ("A1", "A2", "B1", "B2", "Mc", "Mo", "C")


@st.composite
def sweep_conditions(draw):
    offset = draw(st.integers(-2, 2))
    kind = draw(st.sampled_from(("SURFACE-IN", "CLASS-IS", "HAS-PREFIX",
                                 "SENT-INITIAL", "SENT-FINAL", "NUMERAL")))
    if kind == "SURFACE-IN":
        values = tuple(draw(st.lists(st.sampled_from(SWEEP_WORDS), min_size=1,
                                     max_size=3, unique=True)))
    elif kind == "CLASS-IS":
        tags = draw(st.lists(st.sampled_from(SWEEP_TAGS), min_size=1,
                             max_size=3, unique=True))
        values = (";".join(sorted(tags)),)
    elif kind == "HAS-PREFIX":
        values = (draw(st.sampled_from(("A", "B", "M", "A1", "C"))),)
    else:
        values = ()
    return Condition(offset, kind, values)


@st.composite
def sweep_cascades(draw):
    rules = []
    for k in range(draw(st.integers(1, 6))):
        conds = draw(st.lists(sweep_conditions(), min_size=1, max_size=4))
        rules.append(Rule(f"r{k}", tuple(conds),
                          draw(st.sampled_from(("RETAIN", "REMOVE"))),
                          tuple(draw(st.lists(st.sampled_from(("A", "B", "M", "A1", "C")),
                                              min_size=1, max_size=2, unique=True)))))
    return RuleCascade(tuple(rules))


sweep_sentences = st.lists(
    st.tuples(st.sampled_from(SWEEP_WORDS),
              st.lists(st.sampled_from(SWEEP_TAGS), min_size=1, max_size=4, unique=True)),
    min_size=1, max_size=8)


class TestSweepMatchesReference:
    """apply_cascade and audit_precision against a walk of every rule at
    every position, over every condition kind at offsets -2..+2."""

    @settings(max_examples=200)
    @given(sweep_cascades(), sweep_sentences)
    def test_apply_cascade(self, cascade, tokens):
        s = sent(*(w for w, _ in tokens))
        cands = [set(tags) for _, tags in tokens]
        assert apply_cascade(cascade, s, cands) == reference_cascade(cascade, s, cands)

    @settings(max_examples=150)
    @given(sweep_cascades(), st.lists(sweep_sentences, min_size=1, max_size=3),
           st.dictionaries(st.sampled_from(SWEEP_WORDS),
                           st.lists(st.sampled_from(SWEEP_TAGS), min_size=1,
                                    max_size=4, unique=True)))
    def test_audit_precision(self, cascade, sentences, mapping):
        corpus = make_corpus(*[[(w, tags[0]) for w, tags in s] for s in sentences])
        lex = make_lexicon(mapping)
        assert audit_precision(cascade, corpus, lex) == reference_audit(cascade, corpus, lex)


AMBIGUITY_WORDS = SWEEP_WORDS + (",", "!")
AMBIGUITY_TAGS = SWEEP_TAGS + ("U,", "U!")


def reference_ambiguity(lexicon, corpus, rules, punct_class):
    """The per-token recount: a copied set per token, then the cascade."""
    n = ambiguous = total = 0
    for s in corpus:
        sets = [set(lexicon.tags(t.surface) or {t.gold_tag or t.surface}) for t in s.tokens]
        if rules is not None:
            sets = reference_cascade(rules, s, sets)
        for tok, cands in zip(s.tokens, sets):
            if punct_class is not None:
                if tok.gold_tag is not None:
                    if tok.gold_tag.startswith(punct_class):
                        continue
                elif all(t.startswith(punct_class) for t in cands):
                    continue
            n += 1
            total += len(cands)
            ambiguous += len(cands) > 1
    return (0.0, 1.0) if n == 0 else (ambiguous / n, total / n)


ambiguity_corpora = st.lists(
    st.lists(st.tuples(st.sampled_from(AMBIGUITY_WORDS),
                       st.none() | st.sampled_from(AMBIGUITY_TAGS)),
             min_size=1, max_size=8),
    max_size=4)
ambiguity_lexicons = st.dictionaries(
    st.sampled_from(AMBIGUITY_WORDS),
    st.lists(st.sampled_from(AMBIGUITY_TAGS), min_size=1, max_size=4, unique=True))


class TestAmbiguityStatsMatchesReference:
    """ambiguity_stats, with and without a cascade, against a per-token
    recount, to the last bit.  "!" is always in the lexicon with punctuation
    tags only; other words may be out of it, and gold tags may be missing."""

    @settings(max_examples=200)
    @given(st.none() | sweep_cascades(), ambiguity_corpora, ambiguity_lexicons,
           st.sampled_from(("U", None)))
    def test_ambiguity_stats(self, cascade, sentences, mapping, punct_class):
        corpus = make_corpus(*sentences)
        lex = make_lexicon({**mapping, "!": ["U!"]})
        assert (ambiguity_stats(lex, corpus, cascade, punct_class)
                == reference_ambiguity(lex, corpus, cascade, punct_class))

    def test_all_punctuation_token_without_gold(self):
        lex = make_lexicon({"!": ["U!"], "a": ["A1", "A2"]})
        corpus = make_corpus(["a", "!", "b", "a/A1"])
        for punct_class in ("U", None):
            assert (ambiguity_stats(lex, corpus, None, punct_class)
                    == reference_ambiguity(lex, corpus, None, punct_class))
        assert ambiguity_stats(lex, corpus, None, "U") == (2 / 3, 5 / 3)
        assert ambiguity_stats(lex, corpus, None, None) == (2 / 4, 6 / 4)


class TestUnvisitedSentences:
    """The audits walk only the sentences that some rule can visit;
    `ambiguity_stats` counts the others per (surface, gold tag).  A cascade
    with an always-visited rule (SENT-INITIAL) skips no sentence.  Both ways
    the results are those of the per-token recount."""

    @pytest.mark.parametrize("always", [False, True])
    def test_generated_corpus(self, always):
        corpus, lex = generate_synthetic(
            SyntheticConfig(tag_count=12, vocab_size=300, sentence_count=150,
                            ambiguity_rate=0.5), 3)
        cascade = derive_safe_rules(corpus, lex)
        if always:
            first = parse_rules("RULE first\nIF 0 SENT-INITIAL\nTHEN REMOVE A\nEND\n")
            cascade = RuleCascade(cascade.rules + first.rules)
        visited = sum(1 for s in corpus if _visits(cascade, s))
        assert (visited == len(corpus)) if always else (0 < visited < len(corpus))
        for punct_class in ("U", None):
            assert (ambiguity_stats(lex, corpus, cascade, punct_class)
                    == reference_ambiguity(lex, corpus, cascade, punct_class))
        report = audit_precision(cascade, corpus, lex)
        assert report == reference_audit(cascade, corpus, lex)
        if always:
            assert report["first"][0] > 0 and report["first"][1] > 0


def _lexicon_state(lex):
    return {s: (dict(readings), lex.tags(s)) for s, readings in lex.items()}


class TestNoMutation:
    """The cascade and the audits share the caller's and the lexicon's sets
    instead of copying them, so none of them may write into one."""

    @settings(max_examples=100)
    @given(sweep_cascades(), sweep_sentences, ambiguity_lexicons)
    def test_inputs_unchanged(self, cascade, tokens, mapping):
        s = sent(*(w for w, _ in tokens))
        cands = [set(tags) for _, tags in tokens]
        before = copy.deepcopy(cands)
        out = apply_cascade(cascade, s, cands)
        assert cands == before
        assert all(o is c or o <= c for o, c in zip(out, cands))
        corpus = make_corpus([(w, tags[0]) for w, tags in tokens])
        lex = make_lexicon(mapping)
        state = copy.deepcopy(_lexicon_state(lex))
        audit_precision(cascade, corpus, lex)
        ambiguity_stats(lex, corpus)
        ambiguity_stats(lex, corpus, cascade)
        assert _lexicon_state(lex) == state
        assert corpus == make_corpus([(w, tags[0]) for w, tags in tokens])

    def test_repeated_set_object(self):
        shared = {"A1", "B1"}
        cands = [shared] * 3
        cascade = parse_rules("RULE r\nIF 0 SURFACE-IN a\nTHEN REMOVE A\nEND\n"
                              "RULE q\nIF 0 SENT-FINAL\nTHEN RETAIN A\nEND\n")
        out = apply_cascade(cascade, sent("a", "b", "a"), cands)
        assert out == [{"B1"}, {"A1", "B1"}, {"B1"}]
        assert shared == {"A1", "B1"}
        assert all(c is shared for c in cands)
        assert out[1] is shared and out is not cands

    def test_lexicon_sets_are_shared(self):
        lex = make_lexicon({"a": ["A1", "B1"]})
        corpus = make_corpus(["a/A1", "a/B1", "a/A1"])
        cascade = parse_rules("RULE r\nIF 0 SURFACE-IN a\nIF 1 SENT-FINAL\n"
                              "THEN REMOVE B\nEND\n")
        state = copy.deepcopy(_lexicon_state(lex))
        assert audit_precision(cascade, corpus, lex) == {"r": (1, 1)}
        assert ambiguity_stats(lex, corpus, cascade) == (2 / 3, 5 / 3)
        assert _lexicon_state(lex) == state


class TestIndexedSweep:
    """A cascade visits only the rules a sentence's surfaces name and the
    rules without a SURFACE-IN condition, in cascade order."""

    def test_two_surface_conditions(self):
        cascade = parse_rules("RULE r\nIF 0 SURFACE-IN a\nIF 1 SURFACE-IN b\n"
                              "THEN RETAIN A\nEND\n")
        cands = [{"A1", "B1"}] * 4
        s = sent("a", "c", "a", "b")
        assert [(r.rule_id, i) for r, i in _sweep(cascade, s, cands)] == [("r", 2)]
        assert apply_cascade(cascade, s, cands) == [{"A1", "B1"}] * 2 + [{"A1"}, {"A1", "B1"}]
        # the value the rule is not indexed under, alone, matches nowhere
        assert list(_sweep(cascade, sent("b", "b"), cands[:2])) == []
        assert list(_sweep(cascade, sent("c", "a"), cands[:2])) == []

    def test_rules_under_one_value_keep_cascade_order(self):
        text = ("RULE drop-a\nIF 0 SURFACE-IN a\nTHEN REMOVE A\nEND\n"
                "RULE keep-a\nIF 0 SURFACE-IN x,a\nTHEN RETAIN A\nEND\n")
        cascade = parse_rules(text)
        cands = [{"A1", "B1"}, {"A1", "B1"}]
        s = sent("b", "a")
        assert ([(r.rule_id, i) for r, i in _sweep(cascade, s, cands)]
                == [("drop-a", 1), ("keep-a", 1)])
        assert apply_cascade(cascade, s, cands) == [{"A1", "B1"}, {"B1"}]
        swapped = RuleCascade(cascade.rules[::-1])
        assert apply_cascade(swapped, s, cands) == [{"A1", "B1"}, {"A1"}]

    @pytest.mark.parametrize("always, cands, expected", [
        # CLASS-IS sees the class drop-a left
        ("IF 0 CLASS-IS B1;Mc\nTHEN RETAIN B", [{"A1", "B1", "Mc"}, {"Ncf", "Ncm"}],
         [{"B1"}, {"Ncf", "Ncm"}]),
        # NUMERAL holds at 0 once drop-a has left numeral tags only
        ("IF -1 NUMERAL\nIF 0 HAS-PREFIX N\nTHEN RETAIN Ncm", [{"A1", "Mc"}, {"Ncf", "Ncm"}],
         [{"Mc"}, {"Ncm"}]),
        # SENT-INITIAL would empty the set drop-a left, so does not fire
        ("IF 0 SENT-INITIAL\nTHEN REMOVE M", [{"A1", "Mc"}, {"Ncf", "Ncm"}],
         [{"Mc"}, {"Ncf", "Ncm"}]),
    ])
    def test_always_visited_rule_between_indexed_rules(self, always, cands, expected):
        cascade = parse_rules("RULE drop-a\nIF 0 SURFACE-IN a\nTHEN REMOVE A\nEND\n"
                              f"RULE always\n{always}\nEND\n"
                              "RULE keep-a\nIF 0 SURFACE-IN a\nTHEN RETAIN A\nEND\n")
        s = sent("a", "b")
        out = apply_cascade(cascade, s, cands)
        assert out == expected == reference_cascade(cascade, s, cands)
        assert [r.rule_id for r, _ in _sweep(cascade, s, [{"Mc"}, {"Ncf", "Ncm"}])
                if r.rule_id != "always"] == ["drop-a", "keep-a"]

    def test_direct_construction_is_indexed_alike(self):
        corpus, lexicon = generate_synthetic(
            SyntheticConfig(tag_count=8, vocab_size=60, sentence_count=40), 3)
        derived = derive_safe_rules(corpus, lexicon)
        assert len(derived) > 0
        parsed = parse_rules(format_rules(derived))
        for direct in (derived, RuleCascade(parsed.rules), RuleCascade(list(parsed.rules))):
            assert direct._by_surface == parsed._by_surface
            assert direct._always == parsed._always
        for s in corpus:
            sets = [{"x"}] * len(s.tokens)
            assert list(_sweep(derived, s, sets)) == list(_sweep(parsed, s, sets))

    def test_equality_ignores_the_index(self):
        rules = parse_rules(YA_RULES + NUMERAL_RULE).rules
        assert RuleCascade(rules) == RuleCascade(rules)
        assert hash(RuleCascade(rules)) == hash(RuleCascade(rules))
        assert RuleCascade(rules) != RuleCascade(rules[:1])
        assert repr(RuleCascade(rules[:1])) == f"RuleCascade(rules={rules[:1]!r})"
        assert RuleCascade(rules)._by_surface == {"я": [0, 1]}
        assert RuleCascade(rules)._always == (2,)
