"""Tags, the tag inventory, positional feature schemas, and coarse projections.

A tag is an opaque non-empty string whose first character is an uppercase
letter naming its POS class (e.g. "Ncmsf", "Vpitf-r3s").  The schema is
data-driven: each POS class declares named character positions plus two
masks, one for lemma-determining features and one for syntax-relevant ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import content_lines
from .errors import FormatError, SchemaError


def is_valid_tag(text: str) -> bool:
    """Basic well-formedness: non-empty, uppercase class letter, no whitespace."""
    if not text:
        return False
    if not text[0].isalpha() or not text[0].isupper():
        return False
    return not any(ch.isspace() for ch in text)


def project(tag: str, depth: int) -> str:
    """Coarsen a tag to its first `depth` characters.

    depth 1 keeps the bare POS class, depth 2 adds one feature; a depth
    beyond the tag length returns the whole tag.
    """
    if depth < 1:
        raise ValueError(f"projection depth must be >= 1, got {depth}")
    return tag[:depth]


@dataclass(frozen=True)
class ClassLayout:
    """Positional layout of one POS class."""

    letter: str
    lengths: frozenset[int] | None  # None = any length
    fields: dict[str, tuple[int, ...]] = field(default_factory=dict)
    lemma_mask: frozenset[str] = frozenset()
    syntax_mask: frozenset[str] = frozenset()

    def __post_init__(self):
        seen: set[int] = set()
        for name, positions in self.fields.items():
            for pos in positions:
                if pos in seen:
                    raise SchemaError(
                        f"class {self.letter}: position {pos} used by more than one field"
                    )
                if pos < 1:
                    raise SchemaError(
                        f"class {self.letter}: field {name} uses position {pos} "
                        "(the class letter at position 0 cannot be a field)"
                    )
                seen.add(pos)
        for mask_name, mask in (("lemma", self.lemma_mask), ("syntax", self.syntax_mask)):
            unknown = mask - self.fields.keys()
            if unknown:
                raise SchemaError(
                    f"class {self.letter}: {mask_name} mask names unknown fields {sorted(unknown)}"
                )


@dataclass(frozen=True)
class TagSchema:
    """Per-POS-class positional layouts plus the punctuation class, if any."""

    classes: dict[str, ClassLayout]
    punct_class: str | None = None

    def layout(self, tag: str) -> ClassLayout:
        if not tag:
            raise SchemaError("empty tag has no POS class")
        cls = self.classes.get(tag[0])
        if cls is None:
            raise SchemaError(f"unknown POS class {tag[0]!r}")
        return cls


def validate(tag: str, schema: TagSchema) -> bool:
    """True iff the POS class is known and the tag length matches its layout."""
    if not is_valid_tag(tag):
        return False
    cls = schema.classes.get(tag[0])
    if cls is None:
        return False
    if cls.lengths is not None and len(tag) not in cls.lengths:
        return False
    return True


def lemma_compatible(gold: str, predicted: str, schema: TagSchema) -> bool:
    """True iff a tagging error at this position cannot hurt lemmatization.

    Requires the same POS class and agreement on every lemma-determining
    field of that class.
    """
    if not gold or not predicted:
        return False
    if gold[0] != predicted[0]:
        return False
    cls = schema.layout(gold)
    for name in cls.lemma_mask:
        for pos in cls.fields[name]:
            a = gold[pos] if pos < len(gold) else None
            b = predicted[pos] if pos < len(predicted) else None
            if a != b:
                return False
    return True


def parse_schema(text: str, path=None) -> TagSchema:
    """Parse a schema file.

    Grammar (one declaration per line, '#' comments, blank lines ignored):

        punct <letter>
        <letter> <lengths> [<field>=<pos>[,<pos>...]]... [lemma=<f1>,..] [syntax=<f1>,..]

    where <lengths> is '*' (any) or a comma-separated list of integers >= 1,
    and positions are 0-based character indices into the tag string.  A
    name given twice in a class line, or a second punct line, is an error.
    """
    classes: dict[str, ClassLayout] = {}
    punct: str | None = None
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "punct":
            if len(parts) != 2 or len(parts[1]) != 1:
                raise FormatError("punct declaration needs one class letter", lineno, path)
            if punct is not None:
                raise FormatError("repeated punct declaration", lineno, path)
            punct = parts[1]
            continue
        letter = parts[0]
        if len(letter) != 1 or not letter.isupper():
            raise FormatError(f"bad class letter {letter!r}", lineno, path)
        if letter in classes:
            raise FormatError(f"duplicate class {letter!r}", lineno, path)
        if len(parts) < 2:
            raise FormatError("class line needs a length declaration", lineno, path)
        if parts[1] == "*":
            lengths = None
        else:
            try:
                lengths = frozenset(int(x) for x in parts[1].split(","))
            except ValueError:
                raise FormatError(f"bad lengths {parts[1]!r}", lineno, path) from None
            if min(lengths) < 1:
                raise FormatError(f"tag lengths must be >= 1, got {parts[1]!r}", lineno, path)
        fields: dict[str, tuple[int, ...]] = {}
        masks: dict[str, frozenset[str]] = {}  # ClassLayout's lemma_mask, syntax_mask
        for token in parts[2:]:
            if "=" not in token:
                raise FormatError(f"expected name=value, got {token!r}", lineno, path)
            name, value = token.split("=", 1)
            if name in fields or f"{name}_mask" in masks:
                raise FormatError(f"duplicate field {name!r}", lineno, path)
            if name in ("lemma", "syntax"):
                masks[f"{name}_mask"] = frozenset(x for x in value.split(",") if x)
            else:
                try:
                    fields[name] = tuple(int(x) for x in value.split(","))
                except ValueError:
                    raise FormatError(f"bad positions in {token!r}", lineno, path) from None
        try:
            classes[letter] = ClassLayout(letter, lengths, fields, **masks)
        except SchemaError as exc:
            raise FormatError(str(exc), lineno, path) from None
    return TagSchema(classes, punct)


class TagInventory:
    """Ordered tag set with a dense-id bijection (ids contiguous from 0).
    `ids` is the list of every id and `tag_set` the frozenset of every tag,
    each built once and shared by every caller, which never mutates it."""

    def __init__(self, tags):
        self.tags: list[str] = []
        self.index: dict[str, int] = {}
        for tag in tags:
            if not is_valid_tag(tag):
                raise ValueError(f"invalid tag {tag!r}")
            if tag in self.index:
                raise ValueError(f"duplicate tag {tag!r}")
            self.index[tag] = len(self.tags)
            self.tags.append(tag)
        if not self.tags:
            raise ValueError("empty tag inventory")
        self.ids = list(range(len(self.tags)))
        self.tag_set = frozenset(self.tags)

    def __len__(self):
        return len(self.tags)

    def id(self, tag: str) -> int:
        """The id of `tag`; ValueError if it is not in the inventory."""
        i = self.index.get(tag)
        if i is None:
            raise ValueError(f"tag {tag!r} is not in the tag inventory")
        return i
