import errno
import hashlib
import os
import re
import stat
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morphtag
from conftest import make_corpus
from morphtag.baselines import load_guesser
from morphtag.corpus import (Sentence, Token, read_vertical, stats, text_lines, write_text,
                             write_vertical)
from morphtag.errors import ConfigError, DataError, FormatError
from morphtag.experiment import parse_spec
from morphtag.lexicon import Lexicon, dump_lexicon, load_lexicon
from morphtag.rules import format_rules, parse_rules
from morphtag.synthetic import (SyntheticConfig, derive_safe_rules, generate_lemma_lexicon,
                                generate_synthetic, split_corpus, synthetic_tags)
from morphtag.tagset import parse_schema


class TestToken:
    def test_whitespace_is_str_isspace_over_every_code_point(self):
        """A surface is rejected exactly when a character of it is
        whitespace by str.isspace, at every position in the surface."""
        rejected = []
        for cp in range(0x110000):
            ch = chr(cp)
            try:
                Token(f"a{ch}")
            except ValueError:
                rejected.append(ch)
        assert rejected == [ch for ch in map(chr, range(0x110000)) if ch.isspace()]
        for ch in rejected:
            for surface in (ch, f"{ch}a", f"a{ch}b"):
                with pytest.raises(ValueError):
                    Token(surface)

    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError):
            Token("")

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="empty sentence"):
            Sentence(())


class TestReadVertical:
    def test_single_token(self):
        corpus = read_vertical("Той\tPpe-os3m\n\n")
        assert len(corpus.sentences) == 1
        assert corpus.sentences[0].tokens[0].surface == "Той"
        assert corpus.sentences[0].tokens[0].gold_tag == "Ppe-os3m"

    def test_empty_input(self):
        assert len(read_vertical("").sentences) == 0

    def test_blank_line_splitting(self):
        corpus = read_vertical("a\tX\nb\tY\n\nc\tX\n")
        assert [len(s) for s in corpus.sentences] == [2, 1]

    def test_trailing_sentence_without_blank(self):
        corpus = read_vertical("a\tX")
        assert len(corpus.sentences) == 1

    def test_untagged_token(self):
        corpus = read_vertical("a\n\n")
        assert corpus.sentences[0].tokens[0].gold_tag is None

    def test_crlf_tolerated(self):
        corpus = read_vertical("a\tX\r\n\r\nb\tY\r\n")
        assert len(corpus.sentences) == 2

    def test_too_many_fields(self):
        with pytest.raises(FormatError) as exc:
            read_vertical("a\tX\tY\tZ\n")
        assert exc.value.line == 1

    def test_empty_surface(self):
        with pytest.raises(FormatError):
            read_vertical("\tX\n")


# Each malformed line kind of the two tab-separated formats: the parser, the
# text, the error and its full message (path and line number included).
MALFORMED_LINES = [
    (read_vertical, "a\tX\n\nb\tX\tY\n", FormatError,
     "f.tsv:3: expected at most 2 tab-separated fields, got 3"),
    (read_vertical, "a\tX\n\tX\n", FormatError, "f.tsv:2: empty surface form"),
    (read_vertical, " \n\t\na b\tX\n", FormatError, "f.tsv:3: bad token surface 'a b'"),
    (load_lexicon, "a\tX\nb\n", FormatError,
     "f.tsv:2: expected 2 or 3 tab-separated fields, got 1"),
    (load_lexicon, " \n\t\na\tX\tl\tz\n", FormatError,
     "f.tsv:3: expected 2 or 3 tab-separated fields, got 4"),
    (load_lexicon, "\tX\n", FormatError, "f.tsv:1: empty surface or tag"),
    (load_lexicon, "a\tX\na\t\n", FormatError, "f.tsv:2: empty surface or tag"),
    (load_lexicon, "a\tX\tl1\n \t\na\tX\tl2\n", DataError,
     "f.tsv:3: conflicting lemmas for ('a', 'X'): 'l1' vs 'l2'"),
]


@pytest.mark.parametrize("parse, text, error, message", MALFORMED_LINES)
def test_malformed_line_message(parse, text, error, message):
    with pytest.raises(error) as exc:
        parse(text, "f.tsv")
    assert str(exc.value) == message


def test_whitespace_only_lines_skipped():
    corpus = read_vertical("a\tX\n \t\nb\tY\n\t\n\nc\n", "f.tsv")
    assert [s.surfaces() for s in corpus] == [["a"], ["b"], ["c"]]
    assert dump_lexicon(load_lexicon(" \na\tX\n\t \nb\tY\tl\n", "f.tsv")) == "a\tX\nb\tY\tl\n"


# Every text format, as (parser, a valid file, the same file with a form
# feed inside line 1 that makes it malformed).  str.splitlines breaks a line
# at a form feed; split that way, none of these would fail at line 1.
LINE_RULE_FORMATS = {
    "corpus": (read_vertical, "a\tX\nb\tY\n\nc\tX\n", "a\x0cb\tX\n"),
    "lexicon": (load_lexicon, "a\tX\na\tY\tl\n", "a\tX\x0cb\tY\tZ\n"),
    "guesser": (load_guesser, "# table\na\tX\nDEFAULT\tY\n", "a\tX\x0cb\tY\nDEFAULT\tZ\n"),
    "rules": (parse_rules, "RULE r\nIF 0 SURFACE-IN a\nTHEN RETAIN X\nEND\n",
              "RULE r\x0cIF 0 SURFACE-IN a\nTHEN RETAIN X\nEND\n"),
    "spec": (parse_spec, "train=a.tsv\ntest=b.tsv\nseed=1\n", "seed=1\x0ctrain=a.tsv\ntest=b.tsv\n"),
    "schema": (parse_schema, "punct U\nA *\n", "punct U\x0cA *\n"),
}
# The formats with "#" comments, which all read them through content_lines.
COMMENT_FORMATS = ("rules", "spec", "schema")


class TestLineRule:
    def test_text_lines(self):
        assert text_lines("a\r\nb\rc\x0cd\x85e\u2028f\n\r\n") == [
            "a", "b\rc\x0cd\x85e\u2028f", "", ""]
        assert text_lines("a\r\r\n") == ["a\r", ""] and text_lines("") == [""]

    @pytest.mark.parametrize("name", LINE_RULE_FORMATS)
    def test_crlf_reads_as_lf(self, name):
        parse, text, _ = LINE_RULE_FORMATS[name]
        lf, crlf = parse(text, path="f"), parse(text.replace("\n", "\r\n"), path="f")
        if isinstance(lf, Lexicon):
            lf, crlf = lf.entries, crlf.entries
        assert crlf == lf

    @pytest.mark.parametrize("name", LINE_RULE_FORMATS)
    def test_form_feed_stays_in_its_line(self, name):
        parse, _, text = LINE_RULE_FORMATS[name]
        with pytest.raises(FormatError) as exc:
            parse(text, path="f")
        assert exc.value.line == 1 and str(exc.value).startswith("f:1: ")

    @pytest.mark.parametrize("name", COMMENT_FORMATS)
    def test_comments_read_as_nothing(self, name):
        """A trailing comment, a comment-only line and a blank line add
        nothing, and a later line keeps its number in an error."""
        parse, text, _ = LINE_RULE_FORMATS[name]
        lines = text.splitlines()
        commented = "# head\n\n" + "".join(f"{line}  # note # two\n  # own line\n"
                                           for line in lines)
        assert parse(commented, path="f") == parse(text, path="f")
        with pytest.raises(FormatError) as exc:
            parse(commented + "bogus  # a later error\n", path="f")
        line = 3 + 2 * len(lines)
        assert exc.value.line == line and str(exc.value).startswith(f"f:{line}: ")
        assert str(exc.value).endswith("'bogus'")


class TestWriteVertical:
    def test_empty(self):
        assert write_vertical(read_vertical("")) == ""

    def test_single_sentence_layout(self):
        corpus = make_corpus(["a/X", "b/Y"])
        assert write_vertical(corpus) == "a\tX\nb\tY\n\n"

    @settings(max_examples=50)
    @given(st.integers(0, 2 ** 31))
    def test_roundtrip_generated(self, seed):
        cfg = SyntheticConfig(tag_count=5, vocab_size=30, sentence_count=8,
                              min_sentence_len=1, max_sentence_len=6)
        corpus, _ = generate_synthetic(cfg, seed)
        assert read_vertical(write_vertical(corpus)) == corpus

    def test_roundtrip_bare_and_tagged(self):
        """A bare surface is an untagged token, written back as a bare line."""
        text = "a\nb\tX\n\nc\td\ne\n\n"
        corpus = read_vertical(text)
        assert [tok.gold_tag for tok in corpus.tokens()] == [None, "X", "d", None]
        assert write_vertical(corpus) == text
        assert read_vertical(write_vertical(corpus)) == corpus


class TestWriteText:
    """write_text replaces a regular file whole, so a failed write leaves
    the old bytes and no temporary file; other targets are written in
    place."""

    OLD = "old\tA\n\n"

    @staticmethod
    def _python(code: str, *args) -> subprocess.CompletedProcess:
        """Run `code` with `args` in a fresh interpreter that imports this
        morphtag."""
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.path.dirname(os.path.dirname(morphtag.__file__))}
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        """A CLI run whose file size limit is below the corpus it writes,
        and which ignores SIGXFSZ, fails the write with EFBIG: exit 3 and
        one line naming the target."""
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(self.OLD, encoding="utf-8")
        run = self._python(
            "import resource, signal, sys\n"
            "from morphtag.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))\n"
            "sys.exit(main(sys.argv[1:]))",
            "gen-synthetic", "--sentences", "200", "--out-corpus", str(corpus),
            "--out-lexicon", str(tmp_path / "lexicon.tsv"))
        assert run.returncode == 3, run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and f"cannot write {corpus}: [Errno 27]" in lines[0]
        assert corpus.read_text(encoding="utf-8") == self.OLD
        assert os.listdir(tmp_path) == ["corpus.tsv"]

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.tsv"
        path.write_text(self.OLD, encoding="utf-8")

        def fail(src, dst):
            raise OSError(errno.EIO, "Input/output error")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(ConfigError, match=re.escape(f"cannot write {path}: [Errno 5]")):
            write_text(path, "new\n")
        assert path.read_text(encoding="utf-8") == self.OLD
        assert os.listdir(tmp_path) == ["out.tsv"]

    def test_mode_as_open_gives_it(self, tmp_path):
        """A new file gets 0666 less the umask, not a temporary file's 0600;
        a replaced file keeps its own mode."""
        new, old = tmp_path / "new.tsv", tmp_path / "old.tsv"
        old.write_text(self.OLD, encoding="utf-8")
        old.chmod(0o604)
        umask = os.umask(0o027)
        try:
            write_text(new, "new\n")
            write_text(old, "new\n")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o640
        assert stat.S_IMODE(old.stat().st_mode) == 0o604
        assert old.read_text(encoding="utf-8") == "new\n"

    def test_fifo_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text(encoding="utf-8")),
                                  daemon=True)
        reader.start()
        write_text(fifo, "through the fifo\n")
        reader.join(timeout=30)
        assert not reader.is_alive() and got == ["through the fifo\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode) and os.listdir(tmp_path) == ["fifo"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_written_in_place(self):
        """/dev/stdout on a pipe."""
        run = self._python("from morphtag.corpus import write_text\n"
                           "write_text('/dev/stdout', 'to stdout\\n')")
        assert run.returncode == 0 and run.stdout == "to stdout\n" and run.stderr == ""

    def test_symlink_keeps_its_link(self, tmp_path):
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "out.tsv", tmp_path / "link.tsv"
        target.write_text(self.OLD, encoding="utf-8")
        link.symlink_to(target)
        write_text(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="utf-8") == "new\n"
        assert os.listdir(tmp_path / "data") == ["out.tsv"]

    def test_missing_directory(self, tmp_path):
        path = tmp_path / "no-such-dir" / "out.tsv"
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot write {path}: [Errno 2] No such file or directory: '{path}'")):
            write_text(path, "new\n")
        assert os.listdir(tmp_path) == []


class TestStats:
    def test_empty(self):
        st_ = stats(read_vertical(""))
        assert (st_.sentence_count, st_.token_count, st_.type_count,
                st_.tag_type_count) == (0, 0, 0, 0)

    def test_counts(self):
        corpus = make_corpus(["a/X", "a/X", "b/Y"])
        st_ = stats(corpus)
        assert (st_.sentence_count, st_.token_count, st_.type_count,
                st_.tag_type_count) == (1, 3, 2, 2)

    def test_missing_gold_rejected(self):
        with pytest.raises(DataError):
            stats(read_vertical("a\n\n"))

    def test_sentence_permutation_invariant(self):
        c1 = make_corpus(["a/X"], ["b/Y", "c/Z"])
        c2 = make_corpus(["b/Y", "c/Z"], ["a/X"])
        assert stats(c1) == stats(c2)


class TestSyntheticGenerator:
    def test_deterministic(self):
        cfg = SyntheticConfig(tag_count=8, vocab_size=50, sentence_count=10)
        c1, l1 = generate_synthetic(cfg, 7)
        c2, l2 = generate_synthetic(cfg, 7)
        assert c1 == c2 and l1.entries == l2.entries

    @pytest.mark.parametrize("seed, digest", [
        (3, "6513ee167ed8afc6536ef94c2c75522b548eae1134ed75082ef7b25d02f0bb05"),
        (11, "cb78d8827432fab3791f4531c9c3f54b47844a7cc06130cc49cd7f0676e65377"),
    ])
    def test_output_pinned(self, seed, digest):
        """sha256 of the corpus, the lexicon and the derived safe rules.  The
        corpus has words with three tags, and the rules reach their cap."""
        cfg = SyntheticConfig(tag_count=12, vocab_size=300, sentence_count=150,
                              ambiguity_rate=0.5)
        corpus, lexicon = generate_synthetic(cfg, seed)
        cascade = derive_safe_rules(corpus, lexicon)
        assert len(cascade) == 20
        assert max(len(r) for r in lexicon.entries.values()) == 3
        text = write_vertical(corpus) + dump_lexicon(lexicon) + format_rules(cascade)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed, digest", [
        (3, "5784f18f587bb3ed330dfdbd7e734aef89dd158161020d5b2fe3353dffe6afb0"),
        (11, "ea7a44a3c030f4b414f7baea2e8adc7de0c6d0d3ca9ad0a72b84676d76cdb06a"),
    ])
    def test_lemma_lexicon_pinned(self, seed, digest):
        """sha256 of the lemma lexicon's file; a surface can carry several
        readings (up to four at seed 11)."""
        lexicon = generate_lemma_lexicon(12, 6, 8, seed)
        assert max(len(r) for r in lexicon.entries.values()) > 1
        assert hashlib.sha256(dump_lexicon(lexicon).encode()).hexdigest() == digest

    def test_seeds_differ(self):
        cfg = SyntheticConfig(tag_count=8, vocab_size=50, sentence_count=10)
        assert generate_synthetic(cfg, 7)[0] != generate_synthetic(cfg, 8)[0]

    def test_zero_ambiguity(self):
        cfg = SyntheticConfig(tag_count=8, vocab_size=50, sentence_count=5,
                              ambiguity_rate=0.0)
        _, lexicon = generate_synthetic(cfg, 3)
        assert all(len(r) == 1 for r in lexicon.entries.values())

    def test_ambiguity_rate_hit(self):
        cfg = SyntheticConfig(tag_count=30, vocab_size=2000, sentence_count=1000,
                              ambiguity_rate=0.3)
        _, lexicon = generate_synthetic(cfg, 5)
        ambiguous = sum(1 for r in lexicon.entries.values() if len(r) > 1)
        assert abs(ambiguous / len(lexicon.entries) - 0.3) < 0.03

    def test_lexicon_exhaustive(self):
        cfg = SyntheticConfig(tag_count=10, vocab_size=40, sentence_count=20)
        corpus, lexicon = generate_synthetic(cfg, 1)
        for tok in corpus.tokens():
            assert tok.gold_tag in lexicon.tags(tok.surface)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(vocab_size=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(ambiguity_rate=1.5)
        for bad in (dict(tag_count=0), dict(sentence_count=-1),
                    dict(min_sentence_len=5, max_sentence_len=4)):
            with pytest.raises(ConfigError):
                SyntheticConfig(**bad)
        with pytest.raises(ConfigError, match="counts must be >= 1"):
            generate_lemma_lexicon(0, 6, 8, 3)

    def test_one_tag_fully_ambiguous(self):
        """With one tag, an ambiguous word cannot get two: every word has
        the one tag."""
        cfg = SyntheticConfig(tag_count=1, vocab_size=30, sentence_count=10,
                              ambiguity_rate=1.0)
        corpus, lexicon = generate_synthetic(cfg, 3)
        tag = synthetic_tags(1)[0]
        assert len(lexicon.entries) == 30
        assert all(lexicon.tags(w) == {tag} for w in lexicon.entries)
        assert {tok.gold_tag for tok in corpus.tokens()} == {tag}

    def test_split(self):
        cfg = SyntheticConfig(tag_count=5, vocab_size=20, sentence_count=10)
        corpus, _ = generate_synthetic(cfg, 2)
        train, test = split_corpus(corpus, (0.8, 0.2))
        assert len(train.sentences) == 8 and len(test.sentences) == 2
        assert train.sentences + test.sentences == corpus.sentences
        with pytest.raises(ConfigError, match="sum to"):
            split_corpus(corpus, (0.8, 0.1))
