"""Parsing, evaluation, formatting, and the two generator alphabets."""

import pytest
from hypothesis import given

from planegroups import (
    Alphabet,
    GeneratorSymbol,
    GroupId,
    Word,
    WordSyntaxError,
    defining_relations,
    evaluate_word,
    format_element,
    generator,
    generator_names,
    identity,
    parse_element,
    parse_word,
    translation,
)
from planegroups.oracle import ball

from conftest import ALL_GROUPS, group_and_elements


def test_parse_basic():
    word = parse_word("t1^5*t2^3*a", GroupId.G1)
    assert word == Word(
        (GeneratorSymbol("t1", 5), GeneratorSymbol("t2", 3), GeneratorSymbol("a", 1))
    )


def test_parse_whitespace_separators():
    assert parse_word("t1 t2", GroupId.G0) == parse_word("t1*t2", GroupId.G0)
    assert parse_word("  t1 *  t2 ", GroupId.G0) == parse_word("t1*t2", GroupId.G0)


def test_parse_empty_is_identity():
    assert parse_word("", GroupId.G3) == Word()
    assert parse_element("", GroupId.G3) == identity(GroupId.G3)
    assert parse_element("   ", GroupId.G3) == identity(GroupId.G3)
    assert parse_element("1", GroupId.G3) == identity(GroupId.G3)


def test_parse_zero_exponent_drops_factor():
    assert parse_word("t1^0*t2", GroupId.G0) == Word((GeneratorSymbol("t2", 1),))


def test_parse_negative_exponents():
    assert parse_element("c1^-2*c2", GroupId.G5, Alphabet.ORIGINAL) == generator(
        GroupId.G5, "t1"
    )


@pytest.mark.parametrize(
    "text,offset",
    [
        ("^2", 0),
        ("a^", 2),
        ("a^+", 2),
        ("a^x", 2),
        ("t1**t2", 3),
        ("t1*", 3),
        ("* a", 0),
        ("a$b", 1),
        # the grammar is ASCII: other Unicode digits are not exponents
        ("t1^\u00b2", 3),
        ("t1^\u0661", 3),
        ("t1\u3000t2", 2),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(WordSyntaxError) as info:
        parse_word(text, GroupId.G1)
    assert info.value.offset == offset


def test_unknown_generator_reports_name_and_offset():
    with pytest.raises(WordSyntaxError) as info:
        parse_word("t1*c", GroupId.G1)
    assert info.value.offset == 3
    assert "'c'" in str(info.value)


def test_alphabet_legality():
    parse_word("a", GroupId.G1)
    with pytest.raises(WordSyntaxError):
        parse_word("a1", GroupId.G1)  # original name in the new alphabet
    parse_word("a1", GroupId.G1, Alphabet.ORIGINAL)
    with pytest.raises(WordSyntaxError):
        parse_word("t1", GroupId.G1, Alphabet.ORIGINAL)
    with pytest.raises(WordSyntaxError):
        parse_word("t1", GroupId.G0, Alphabet.ORIGINAL)  # G0 has no original names


def test_generator_names():
    assert generator_names(GroupId.G6) == ("t1", "t2", "a", "c")
    assert generator_names(GroupId.G2, Alphabet.ORIGINAL) == ("c1", "c2", "c3")
    assert generator_names(GroupId.G0, Alphabet.ORIGINAL) == ()


def test_evaluate_rejects_foreign_letters():
    word = Word((GeneratorSymbol("q7", 1),))
    with pytest.raises(ValueError):
        evaluate_word(word, GroupId.G4)


def test_format_examples():
    assert format_element(identity(GroupId.G0)) == "1"
    assert format_element(translation(GroupId.G4, 2, -1)) == "t1^2*t2^-1"
    assert format_element(parse_element("t1^2*t2^-1*c^3", GroupId.G4)) == "t1^2*t2^-1*c^3"
    assert format_element(parse_element("a*c", GroupId.G6)) == "a*c"
    assert format_element(parse_element("t2*a", GroupId.G1)) == "t2*a"


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_round_trip_exhaustive(gid):
    for x in ball(gid, 2):
        assert parse_element(format_element(x), gid) == x


@given(group_and_elements(1, span=200))
def test_round_trip_random(data):
    _, x = data
    assert parse_element(format_element(x), x.group) == x


@pytest.mark.parametrize("gid", ALL_GROUPS)
@pytest.mark.parametrize("alphabet", list(Alphabet))
def test_defining_relations_evaluate_to_identity(gid, alphabet):
    for relator in defining_relations(gid, alphabet):
        assert parse_element(relator, gid, alphabet).is_identity(), relator


# Substitution soundness and completeness: the original generators must
# satisfy their presentation (checked above) and generate everything the
# new alphabet names.
COMPLETENESS_WITNESSES = {
    GroupId.G1: {"t1": "a1^2", "t2": "a1^-1*a2^-1", "a": "a1"},
    GroupId.G2: {"t1": "c2*c1", "t2": "c2*c3", "c": "c1"},
    GroupId.G3: {"t1": "c1^-1*c2", "t2": "c1*c2*c1", "c": "c1^-1"},
    GroupId.G4: {"t1": "c2*c1^-1", "t2": "c1*c2*c1^2", "c": "c1"},
    GroupId.G5: {"t1": "c1^-2*c2", "t2": "c1^-1*c2*c1^-1", "c": "c1"},
    GroupId.G6: {"t1": "a^2", "t2": "c*a*c*a", "a": "a", "c": "c"},
}


@pytest.mark.parametrize("gid", sorted(COMPLETENESS_WITNESSES, key=lambda g: g.name))
def test_original_generators_express_new_ones(gid):
    witnesses = COMPLETENESS_WITNESSES[gid]
    assert set(witnesses) == set(generator_names(gid))
    for name, original_word in witnesses.items():
        assert parse_element(original_word, gid, Alphabet.ORIGINAL) == generator(gid, name)


def test_original_evaluation_example():
    assert parse_element("a1^-1*a2^-1", GroupId.G1, Alphabet.ORIGINAL) == translation(
        GroupId.G1, 0, 1
    )


def test_generator_symbol_requires_nonzero_exponent():
    with pytest.raises(ValueError):
        GeneratorSymbol("t1", 0)
