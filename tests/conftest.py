from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from morphtag.corpus import Corpus, Sentence, Token
from morphtag.tagger import _RawRows

settings.register_profile("default", deadline=None)
settings.load_profile("default")

CRITERIA = {
    "test_criterion_01": "lemmatizer round-trips 10k+ generated triples in <5s",
    "test_criterion_02": "aorist worked example: четох + Vpitf-o1s -> чета",
    "test_criterion_03": "MFT baselines match brute-force recount on 100 corpora",
    "test_criterion_04": "tag-class backoff assigns Ncmt to unseen class member",
    "test_criterion_05": "rule engine reductive; shipped rules precise and ordered",
    "test_criterion_06": "guided learner >=99.5% train acc, reproducible, PA bound",
    "test_criterion_07": "grid: lexicon features help, hard rules never hurt, beams run",
    "test_criterion_08": "projected accuracies dominate full-tag accuracy",
    "test_criterion_09": "chi-squared reference values and significance",
    "test_criterion_10": "averaged weights equal naive snapshot mean",
    "test_criterion_11": "ambiguity stats exact; safe cascades never raise them",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = rep.nodeid.rsplit("::", 1)[-1]
            for prefix in CRITERIA:
                if name.startswith(prefix):
                    ok = outcomes.get(prefix, True) and status == "passed"
                    outcomes[prefix] = ok
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for prefix in sorted(CRITERIA):
        if prefix in outcomes:
            verdict = "PASS" if outcomes[prefix] else "FAIL"
            terminalreporter.write_line(
                f"{verdict} criterion {prefix[-2:]}: {CRITERIA[prefix]}")
from morphtag.lexicon import Lexicon
from morphtag.tagset import parse_schema

SCHEMA_TEXT = """
punct U
N 4,5 ntype=1 gender=2 number=3 article=4 lemma=ntype,gender syntax=gender,number
V * vtype=1 aspect=2 transitivity=3 vform=4 tense=6 person=7 number=8 lemma=aspect,transitivity syntax=person,number
A * gender=1 number=2 article=3 syntax=gender,number
P * ptype=1
D * dtype=1
M * mtype=1
T * ttype=1
C * ctype=1
I *
U *
"""


@pytest.fixture(scope="session")
def schema():
    return parse_schema(SCHEMA_TEXT)


def make_corpus(*sentences):
    """sentences are lists of (surface, tag) pairs or 'surface/tag' strings."""
    sents = []
    for sent in sentences:
        toks = []
        for item in sent:
            if isinstance(item, str):
                surface, _, tag = item.partition("/")
                toks.append(Token(surface, tag or None))
            else:
                toks.append(Token(*item))
        sents.append(Sentence(tuple(toks)))
    return Corpus(tuple(sents))


def make_lexicon(mapping):
    """mapping: surface -> iterable of tags, or surface -> dict tag->lemma."""
    return Lexicon({surface: dict(tags) if isinstance(tags, dict) else dict.fromkeys(tags)
                    for surface, tags in mapping.items()})


@dataclass(frozen=True)
class Update:
    """One passive-aggressive update: gold and predicted tag ids, the step
    tau, and the gold minus the predicted score of the updated features'
    rows right after it."""

    gold_id: int
    predicted_id: int
    tau: float
    margin_after: float


@pytest.fixture
def update_log(monkeypatch):
    """A list that receives an `Update` for every PA update that `train`
    makes while the test runs."""
    log = []
    update = _RawRows.update

    def recording(self, fids, g, c, step):
        update(self, fids, g, c, step)
        scores = sum((self[fid] for fid in fids), np.zeros(self.T))
        log.append(Update(g, c, step, float(scores[g] - scores[c])))
    monkeypatch.setattr(_RawRows, "update", recording)
    return log
