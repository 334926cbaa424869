import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphtag.errors import FormatError, SchemaError
from morphtag.tagset import (TagInventory, lemma_compatible, parse_schema,
                             project, validate)

tags = st.text(alphabet="abcdefsimnoprt-123", min_size=0, max_size=9).map(lambda s: "N" + s)


class TestProject:
    def test_first_letter(self):
        assert project("Ncmsf", 1) == "N"

    def test_two_letters(self):
        assert project("Ncmsf", 2) == "Nc"

    def test_depth_beyond_length(self):
        assert project("V", 5) == "V"

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            project("N", 0)

    @given(tags, st.integers(1, 5), st.integers(1, 5))
    def test_prefix_monotone(self, tag, d1, d2):
        lo, hi = sorted((d1, d2))
        assert project(tag, hi).startswith(project(tag, lo))


class TestLemmaCompatible:
    def test_identity(self, schema):
        assert lemma_compatible("Ncmsf", "Ncmsf", schema)

    def test_verb_shared_aspect_transitivity(self, schema):
        # aspect (pos 2) and transitivity (pos 3) agree, tense differs
        assert lemma_compatible("Vpitf-o3s", "Vpitf-r3s", schema)

    def test_verb_differing_aspect(self, schema):
        assert not lemma_compatible("Vpitf-r3s", "Vpptf-r3s", schema)

    def test_different_pos_class(self, schema):
        assert not lemma_compatible("Ansi", "Dm", schema)
        assert not lemma_compatible("", "Ansi", schema)
        assert not lemma_compatible("Ansi", "", schema)

    def test_unknown_class_raises(self, schema):
        with pytest.raises(SchemaError):
            lemma_compatible("Zzz", "Zzz", schema)
        with pytest.raises(SchemaError, match="empty tag has no POS class"):
            schema.layout("")

    @given(tags, tags)
    def test_symmetric(self, schema, a, b):
        assert lemma_compatible(a, b, schema) == lemma_compatible(b, a, schema)

    @given(tags)
    def test_reflexive(self, schema, tag):
        assert lemma_compatible(tag, tag, schema)


class TestValidate:
    def test_known_class_and_length(self, schema):
        assert validate("Ncmsf", schema)

    def test_wrong_length(self, schema):
        assert not validate("Ncmsfxx", schema)

    def test_empty(self, schema):
        assert not validate("", schema)

    def test_unknown_class(self, schema):
        assert not validate("Zzz", schema)

    def test_whitespace_rejected(self, schema):
        assert not validate("N cm", schema)


class TestSchemaParsing:
    def test_overlapping_positions_rejected(self):
        with pytest.raises(FormatError):
            parse_schema("N * a=1 b=1\n")

    def test_mask_must_name_fields(self):
        with pytest.raises(FormatError):
            parse_schema("N * a=1 lemma=b\n")

    def test_duplicate_class_rejected(self):
        with pytest.raises(FormatError):
            parse_schema("N * a=1\nN * b=2\n")

    @pytest.mark.parametrize("text, line, message", [
        ("punct U\nN * a=1\npunct V\n", 3, "repeated punct declaration"),
        ("N * a=1 b=2 lemma=a lemma=b\n", 1, "duplicate field 'lemma'"),
        ("N * a=1\nV * a=1 b=2 syntax=a syntax=b\n", 2, "duplicate field 'syntax'"),
        ("N 0,-3 a=1\n", 1, "tag lengths must be >= 1, got '0,-3'"),
        ("N 5,0\n", 1, "tag lengths must be >= 1, got '5,0'"),
        ("N * a=1\nnn * b=2\n", 2, "bad class letter 'nn'"),
        ("N\n", 1, "class line needs a length declaration"),
        ("N 5,x a=1\n", 1, "bad lengths '5,x'"),
        ("N * a=1 b\n", 1, "expected name=value, got 'b'"),
        ("N * a=1,x\n", 1, "bad positions in 'a=1,x'"),
        ("N * a=1\nV * a=0\n", 2, "class V: field a uses position 0 "
                                  "(the class letter at position 0 cannot be a field)"),
    ])
    def test_repeated_setting_or_length_below_one(self, text, line, message):
        """Every malformed line is reported as path:line and its fault."""
        with pytest.raises(FormatError) as exc:
            parse_schema(text, "s.txt")
        assert str(exc.value) == f"s.txt:{line}: {message}"

    def test_punct_class(self, schema):
        assert schema.punct_class == "U"
        assert parse_schema("N * a=1\n").punct_class is None


class TestTagInventory:
    def test_dense_contiguous_ids(self):
        inv = TagInventory(["Nc", "Vp", "Ak"])
        assert [inv.id(t) for t in inv.tags] == [0, 1, 2]
        with pytest.raises(ValueError, match="tag 'Q' is not in the tag inventory"):
            inv.id("Q")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            TagInventory(["Nc", "Nc"])

    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            TagInventory(["nc"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TagInventory([])
