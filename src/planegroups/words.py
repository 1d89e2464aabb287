"""Word parsing, evaluation and canonical formatting.

A word is a ``*``- or whitespace-separated product of factors ``gen`` or
``gen^k`` with k a signed integer; the empty string denotes the identity.
Two alphabets are available per group:

* ``new``: the lattice generators t1, t2 together with the point generators
  (a for G1, c for G2..G5, a and c for G6);
* ``original``: the generators of the classical one-relator or rotation
  presentations that the lattice presentation rewrites (a1, a2 for G1;
  c1, c2, c3 for G2; c1, c2 for G3..G5; a, c for G6).

Formatting always emits the canonical ``new``-alphabet normal form
``t1^n1*t2^n2*w`` with zero exponents and trivial point parts omitted, and
``1`` for the identity; parsing that output returns the element unchanged.
"""

from __future__ import annotations

import enum
import string
from dataclasses import dataclass

from .elements import GroupElement, GroupId, identity

__all__ = [
    "Alphabet",
    "GeneratorSymbol",
    "Word",
    "WordSyntaxError",
    "parse_word",
    "parse_element",
    "evaluate_word",
    "format_element",
    "generator",
    "generator_names",
    "defining_relations",
]


class Alphabet(enum.Enum):
    NEW = "new"
    ORIGINAL = "original"


@dataclass(frozen=True)
class GeneratorSymbol:
    """One factor of a word: a generator name and a nonzero exponent."""

    name: str
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent == 0:
            raise ValueError("generator exponent must be nonzero")


@dataclass(frozen=True)
class Word:
    letters: tuple[GeneratorSymbol, ...] = ()


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the character offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


def _new_generators(gid: GroupId) -> dict[str, GroupElement]:
    gens = {
        "t1": GroupElement(gid, (1, 0), 0),
        "t2": GroupElement(gid, (0, 1), 0),
    }
    if gid is GroupId.G1:
        gens["a"] = GroupElement(gid, (0, 0), 1)
    elif gid in (GroupId.G2, GroupId.G3, GroupId.G4, GroupId.G5):
        gens["c"] = GroupElement(gid, (0, 0), 1)
    elif gid is GroupId.G6:
        gens["a"] = GroupElement(gid, (0, 0), 1)
        gens["c"] = GroupElement(gid, (0, 0), 2)
    return gens


# Original generators, written in normal form.  These invert the rewriting
# t1, t2, a, c -> old generators: e.g. for G2, t1 = c2*c1 and t2 = c2*c3 give
# c2 = t1*c and c3 = c*t2; for G3 the order-3 generator is c = c1^-1.  The
# test suite re-derives both directions mechanically.
def _original_generators(gid: GroupId) -> dict[str, GroupElement]:
    if gid is GroupId.G1:
        return {
            "a1": GroupElement(gid, (0, 0), 1),
            "a2": GroupElement(gid, (-1, -1), 1),
        }
    if gid is GroupId.G2:
        return {
            "c1": GroupElement(gid, (0, 0), 1),
            "c2": GroupElement(gid, (1, 0), 1),
            "c3": GroupElement(gid, (1, -1), 1),
        }
    if gid is GroupId.G3:
        return {
            "c1": GroupElement(gid, (0, 0), 2),
            "c2": GroupElement(gid, (-1, -1), 2),
        }
    if gid is GroupId.G4:
        return {
            "c1": GroupElement(gid, (0, 0), 1),
            "c2": GroupElement(gid, (1, 0), 1),
        }
    if gid is GroupId.G5:
        return {
            "c1": GroupElement(gid, (0, 0), 1),
            "c2": GroupElement(gid, (-1, 1), 2),
        }
    if gid is GroupId.G6:
        return {
            "a": GroupElement(gid, (0, 0), 1),
            "c": GroupElement(gid, (0, 0), 2),
        }
    return {}  # G0 has no distinct original alphabet


_GENERATORS: dict[tuple[GroupId, Alphabet], dict[str, GroupElement]] = {}
for _gid in GroupId:
    _GENERATORS[(_gid, Alphabet.NEW)] = _new_generators(_gid)
    _GENERATORS[(_gid, Alphabet.ORIGINAL)] = _original_generators(_gid)


def generator_names(group: GroupId, alphabet: Alphabet = Alphabet.NEW) -> tuple[str, ...]:
    return tuple(_GENERATORS[(group, alphabet)])


def generator(group: GroupId, name: str, alphabet: Alphabet = Alphabet.NEW) -> GroupElement:
    try:
        return _GENERATORS[(group, alphabet)][name]
    except KeyError:
        raise ValueError(
            f"unknown generator {name!r} for {group.name} ({alphabet.value} alphabet)"
        ) from None


# str.isalpha, isdigit and isspace accept non-ASCII characters such as
# "\u00b2", which int() then rejects or reads as another number.
_LETTERS = frozenset(string.ascii_letters)
_DIGITS = frozenset(string.digits)
_SPACES = frozenset(string.whitespace)


def parse_word(text: str, group: GroupId, alphabet: Alphabet = Alphabet.NEW) -> Word:
    """Parse word text, validating generator names against (group, alphabet).

    Errors carry the character offset (index into ``text``) of the offending
    character.  Letters, digits and whitespace are ASCII only.  The bare token
    ``1`` is accepted as the identity so that formatter output parses back.
    """
    legal = _GENERATORS[(group, alphabet)]
    letters: list[GeneratorSymbol] = []
    i = 0
    n = len(text)
    while i < n and text[i] in _SPACES:
        i += 1
    while i < n:
        start = i
        ch = text[i]
        if ch == "1":
            name = "1"
            i += 1
        elif ch in _LETTERS:
            while i < n and text[i] in _LETTERS:
                i += 1
            while i < n and text[i] in _DIGITS:
                i += 1
            name = text[start:i]
        else:
            raise WordSyntaxError("empty generator name", start)
        exponent = 1
        if i < n and text[i] == "^":
            i += 1
            sign_start = i
            if i < n and text[i] in "+-":
                i += 1
            if i >= n or text[i] not in _DIGITS:
                raise WordSyntaxError("malformed exponent", sign_start)
            while i < n and text[i] in _DIGITS:
                i += 1
            exponent = int(text[sign_start:i])
        if name != "1":
            if name not in legal:
                raise WordSyntaxError(
                    f"unknown generator {name!r} for {group.name}"
                    f" ({alphabet.value} alphabet)",
                    start,
                )
            if exponent != 0:
                letters.append(GeneratorSymbol(name, exponent))
        saw_separator = False
        while i < n and text[i] in _SPACES:
            i += 1
            saw_separator = True
        if i < n and text[i] == "*":
            i += 1
            saw_separator = True
            while i < n and text[i] in _SPACES:
                i += 1
            if i >= n:
                raise WordSyntaxError("empty generator name", i)
        if i < n and not saw_separator:
            raise WordSyntaxError("expected '*' or whitespace between factors", i)
    return Word(tuple(letters))


def evaluate_word(word: Word, group: GroupId, alphabet: Alphabet = Alphabet.NEW) -> GroupElement:
    legal = _GENERATORS[(group, alphabet)]
    result = identity(group)
    for letter in word.letters:
        if letter.name not in legal:
            raise ValueError(
                f"unknown generator {letter.name!r} for {group.name}"
                f" ({alphabet.value} alphabet)"
            )
        result = result * legal[letter.name] ** letter.exponent
    return result


def parse_element(text: str, group: GroupId, alphabet: Alphabet = Alphabet.NEW) -> GroupElement:
    """Parse and evaluate in one step."""
    return evaluate_word(parse_word(text, group, alphabet), group, alphabet)


def format_element(x: GroupElement) -> str:
    """Canonical text form; parsing it back (new alphabet) returns x."""
    return str(x)


_COMM = "t1*t2*t1^-1*t2^-1"

_NEW_RELATIONS: dict[GroupId, tuple[str, ...]] = {
    GroupId.G0: (_COMM,),
    GroupId.G1: ("a^2*t1^-1", _COMM, "a*t2*a^-1*t2"),
    GroupId.G2: ("c^2", _COMM, "c*t1*c^-1*t1", "c*t2*c^-1*t2"),
    GroupId.G3: ("c^3", _COMM, "c*t1*c^-1*t2^-1", "c*t2*c^-1*t2*t1"),
    GroupId.G4: ("c^4", _COMM, "c*t1*c^-1*t2^-1", "c*t2*c^-1*t1"),
    GroupId.G5: ("c^6", _COMM, "c*t1*c^-1*t2^-1", "c*t2*c^-1*t2^-1*t1"),
    GroupId.G6: (
        "a^2*t1^-1",
        _COMM,
        "a*t2*a^-1*t2",
        "c^2",
        "c*t1*c^-1*t1",
        "c*t2*c^-1*t2",
        "c*a*c^-1*a*t2^-1",
    ),
}

_ORIGINAL_RELATIONS: dict[GroupId, tuple[str, ...]] = {
    GroupId.G0: (),
    GroupId.G1: ("a1^2*a2^2",),
    GroupId.G2: ("c1^2", "c2^2", "c3^2", "c1*c2*c3*c1*c2*c3"),
    GroupId.G3: ("c1^3", "c2^3", "c1*c2*c1*c2*c1*c2"),
    GroupId.G4: ("c1^4", "c2^4", "c1*c2*c1*c2"),
    GroupId.G5: ("c1^6", "c2^3", "c1*c2*c1*c2"),
    GroupId.G6: ("c^2", "a^2*c*a^2*c"),
}


def defining_relations(group: GroupId, alphabet: Alphabet = Alphabet.NEW) -> tuple[str, ...]:
    """Relator words (each must evaluate to the identity) for the group."""
    table = _NEW_RELATIONS if alphabet is Alphabet.NEW else _ORIGINAL_RELATIONS
    return table[group]
