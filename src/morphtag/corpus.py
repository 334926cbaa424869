"""Tagged corpora in the vertical one-token-per-line format, plus statistics.

Format: each non-blank line is `surface<TAB>tag` or a bare `surface`; a
blank or whitespace-only line ends a sentence.  UTF-8, LF canonical (CRLF
tolerated on read).  Every text format of the package breaks lines the same
way, with `text_lines`; the three formats with "#" comments (rule files,
grid specs and tag schemas) drop comments and blank lines the same way,
with `content_lines`.
"""

from __future__ import annotations

import contextlib
import os
import re
import secrets
import stat
from dataclasses import dataclass

from .errors import ConfigError, DataError, FormatError


# `\s` matches exactly the characters for which str.isspace() is true.
_has_space = re.compile(r"\s").search


@dataclass(frozen=True)
class Token:
    surface: str
    gold_tag: str | None = None

    def __post_init__(self):
        if not self.surface or _has_space(self.surface):
            raise ValueError(f"bad token surface {self.surface!r}")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("empty sentence")

    def __len__(self):
        return len(self.tokens)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def tokens(self):
        for sent in self.sentences:
            yield from sent.tokens


@dataclass(frozen=True)
class CorpusStats:
    sentence_count: int
    token_count: int
    type_count: int
    tag_type_count: int


def read_text(path) -> str:
    """Whole UTF-8 file; a file that cannot be opened is a ConfigError, one
    that is not UTF-8 a FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8: {exc}", path=path) from None


def text_lines(text: str) -> list[str]:
    """The lines of a text file, split at "\n" alone; a line loses one
    trailing "\r", so CRLF reads as LF.  Unlike str.splitlines, a form
    feed, a lone "\r" or any other Unicode line boundary stays inside its
    line, so line numbers count "\n" characters."""
    lines = text.split("\n")
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return lines


def content_lines(text: str):
    """(line number, content) for each line of a format with "#" comments:
    a line loses everything from its first "#" on and the whitespace around
    what is left, and a line left empty is skipped.  Lines break as in
    `text_lines` and are numbered from 1."""
    for lineno, raw in enumerate(text_lines(text), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def write_text(path, text: str):
    """Write a whole UTF-8 file; a file that cannot be written is a
    ConfigError naming `path`.

    A regular file is never left half written: the text goes to a new file
    in the target's directory, which then replaces the target, and a failed
    write removes the new file and leaves the target as it was.  The new
    file gets the mode `open(path, "w")` would give it, the old file's or
    0666 less the umask.  A symlink keeps its link, and the file it points
    to is replaced; other hard links to a replaced file keep its old text.
    A target that exists and is not a regular file, such as /dev/stdout on
    a pipe or a terminal, or a FIFO, is written in place, and so is a file
    that its resolved name no longer names (/dev/stdout redirected to a
    deleted file)."""
    try:
        try:
            st = os.stat(path)
        except FileNotFoundError:
            st = None
        target = os.path.realpath(path)
        if st is not None and not (stat.S_ISREG(st.st_mode) and os.path.exists(target)
                                   and os.path.samestat(st, os.stat(target))):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        mode = None if st is None else stat.S_IMODE(st.st_mode)
        directory, name = os.path.split(target)
        tmp = os.path.join(directory, f".{name}.{secrets.token_hex(6)}.tmp")
        # "x" never opens a file that is already there, and creates one with
        # mode 0666 less the umask, as "w" does.
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                if mode is not None:
                    os.fchmod(fh.fileno(), mode)
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # The message an open(path, "w") that failed would give.
        raise ConfigError(f"cannot write {path}: "
                          f"{OSError(exc.errno, exc.strerror, str(path))}") from None


def read_vertical(text: str, path=None) -> Corpus:
    """Parse a vertical-format corpus; a trailing sentence without a final
    blank line is accepted."""
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    parsed: dict[str, Token] = {}  # line -> its token; corpora repeat most lines
    for lineno, line in enumerate(text_lines(text), 1):
        tok = parsed.get(line)
        if tok is None:
            if not line or line.isspace():
                if tokens:
                    sentences.append(Sentence(tuple(tokens)))
                    tokens = []
                continue
            fields = line.split("\t")
            if len(fields) > 2:
                raise FormatError(f"expected at most 2 tab-separated fields, got {len(fields)}",
                                  lineno, path)
            surface = fields[0]
            if not surface:
                raise FormatError("empty surface form", lineno, path)
            tag = fields[1] if len(fields) == 2 and fields[1] else None
            try:
                tok = parsed[line] = Token(surface, tag)
            except ValueError as exc:
                raise FormatError(str(exc), lineno, path) from None
        tokens.append(tok)
    if tokens:
        sentences.append(Sentence(tuple(tokens)))
    return Corpus(tuple(sentences))


def write_vertical(corpus: Corpus) -> str:
    """Inverse of read_vertical: read_vertical(write_vertical(c)) == c."""
    lines: list[str] = []
    for sent in corpus.sentences:
        for tok in sent.tokens:
            if tok.gold_tag is None:
                lines.append(tok.surface)
            else:
                lines.append(f"{tok.surface}\t{tok.gold_tag}")
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def stats(corpus: Corpus) -> CorpusStats:
    """Exact sentence/token/type/tag-type counts; every token must carry a
    gold tag.  Type counting is case-sensitive on the raw surface."""
    surfaces: set[str] = set()
    tags: set[str] = set()
    n_tokens = 0
    for tok in corpus.tokens():
        if tok.gold_tag is None:
            raise DataError(f"token {tok.surface!r} has no gold tag")
        surfaces.add(tok.surface)
        tags.add(tok.gold_tag)
        n_tokens += 1
    return CorpusStats(len(corpus.sentences), n_tokens, len(surfaces), len(tags))
