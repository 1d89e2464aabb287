"""Go/no-go acceptance checks, one per shipped guarantee.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.  Every check is exact (integer and rational arithmetic only); the
whole test suite completes in about 30 seconds single-threaded (Python 3.11,
2-vCPU Linux host).
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction

from planegroups import (
    EUCLIDEAN_SIGNATURES,
    GroupId,
    Kind,
    Signature,
    SubgroupKind,
    center,
    centralizer,
    classify,
    commutes,
    euler_factor,
    generator,
    generator_names,
    identity,
    parse_element,
    translation,
)
from planegroups.cli import main
from planegroups.oracle import (
    AffineIsometry,
    affine_image,
    ball,
    check_faithful,
    verify_centralizer,
)
from planegroups.words import Alphabet, defining_relations, parse_word

from golden_cases import CASES
from test_words import COMPLETENESS_WITNESSES

NONTRIVIAL_GROUPS = [g for g in GroupId if g is not GroupId.G0]


def _report(number, name, ok, detail=""):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, detail or name


def _affine_word_image(text, gid, alphabet=Alphabet.NEW):
    """Evaluate a word by composing affine maps, bypassing normal forms."""
    result = AffineIsometry.identity_map()
    for letter in parse_word(text, gid, alphabet).letters:
        factor = affine_image(generator(gid, letter.name, alphabet))
        if letter.exponent < 0:
            factor = factor.inverse()
        for _ in range(abs(letter.exponent)):
            result = result * factor
    return result


def test_criterion_1_relation_suite():
    ok = True
    for gid in NONTRIVIAL_GROUPS:
        for word in defining_relations(gid):
            if not parse_element(word, gid).is_identity():
                ok = False
            if not _affine_word_image(word, gid).is_identity():
                ok = False
    _report(1, "relation suite", ok)


def test_criterion_2_centralizer_oracle_equivalence():
    # Subjects range over ball radius 4 (a superset of the |n| <= 2 box and
    # at least 100 non-identity subjects per group); candidates over |n| <= 5.
    ok = True
    details = []
    for gid in NONTRIVIAL_GROUPS:
        subjects = [u for u in ball(gid, 4) if not u.is_identity()]
        if len(subjects) < 100:
            ok = False
            details.append(f"{gid.name}: only {len(subjects)} subjects")
        for u in subjects:
            report = verify_centralizer(u, 5)
            if not report.agree:
                ok = False
                details.append(f"{u!r}: {report.witnesses[:3]}")
    _report(2, "centralizer oracle equivalence", ok, "; ".join(details))


def test_criterion_3_center_corollary():
    ok = True
    for gid in GroupId:
        box = list(ball(gid, 4))
        brute = {x for x in box if all(commutes(x, y) for y in box)}
        declared = {x for x in box if center(gid).contains(x)}
        if brute != declared:
            ok = False
        if gid is GroupId.G0:
            ok = ok and brute == set(box)
        elif gid is GroupId.G1:
            ok = ok and brute == {translation(gid, k, 0) for k in range(-4, 5)}
        else:
            ok = ok and brute == {identity(gid)}
    _report(3, "center corollary", ok)


def test_criterion_4_normal_form_uniqueness():
    ok = all(check_faithful(gid, 4) for gid in GroupId)
    _report(4, "normal-form uniqueness", ok)


def test_criterion_5_classifier_enumeration():
    ok = True
    euclidean_found = {}
    for orientable in (True, False):
        for genus in range(0 if orientable else 1, 4):
            for orders in _order_tuples(max_len=6, max_order=12):
                sig = Signature(orientable, genus, orders)
                chi = euler_factor(sig)
                result = classify(sig)
                expected = (
                    Kind.FINITE if chi > 0
                    else Kind.EUCLIDEAN if chi == 0
                    else Kind.HYPERBOLIC
                )
                if result.kind is not expected:
                    ok = False
                if result.kind is Kind.EUCLIDEAN:
                    euclidean_found[(orientable, genus, orders)] = result.euclidean_group
    if euclidean_found != EUCLIDEAN_SIGNATURES:
        ok = False
    spot = Signature(True, 0, (2, 2, 5))
    ok = ok and euler_factor(spot) == Fraction(1, 5)
    ok = ok and euler_factor(Signature(True, 0, (3, 3, 3))) == 0
    ok = ok and euler_factor(Signature(True, 0, (2, 3, 7))) == Fraction(-1, 42)
    _report(5, "classifier enumeration", ok)


def _order_tuples(max_len, max_order):
    yield ()
    stack = [(o,) for o in range(2, max_order + 1)]
    while stack:
        t = stack.pop()
        yield t
        if len(t) < max_len:
            stack.extend(t + (o,) for o in range(t[-1], max_order + 1))


# Every element with a given nontrivial point part in G2-G5 is torsion of
# the same order, namely the order of the point part.
PREDICTED_ORDERS = {
    GroupId.G2: {1: 2},
    GroupId.G3: {1: 3, 2: 3},
    GroupId.G4: {1: 4, 2: 2, 3: 4},
    GroupId.G5: {1: 6, 2: 3, 3: 2, 4: 3, 5: 6},
}


def _iterated_order(value, multiply, is_one, cap=8):
    for k in range(1, cap + 1):
        if is_one(value):
            return k
        value = multiply(value)
    return None


def test_criterion_6_torsion_orders():
    ok = True
    for gid, predicted in PREDICTED_ORDERS.items():
        for u in ball(gid, 2):
            if u.w == 0:
                continue
            want = predicted[u.w]
            by_normal_form = _iterated_order(u, lambda x: x * u, lambda x: x.is_identity())
            f = affine_image(u)
            by_affine = _iterated_order(f, lambda x: x * f, lambda x: x.is_identity())
            if not (u.order() == by_normal_form == by_affine == want):
                ok = False
            descriptor = centralizer(u)
            if descriptor.kind is not SubgroupKind.CYCLIC:
                ok = False
            elif descriptor.generators[0].order() is None:
                ok = False
    _report(6, "torsion orders", ok)


def test_criterion_7_generator_substitution_soundness():
    ok = True
    for gid in NONTRIVIAL_GROUPS:
        for word in defining_relations(gid, Alphabet.ORIGINAL):
            if not parse_element(word, gid, Alphabet.ORIGINAL).is_identity():
                ok = False
            if not _affine_word_image(word, gid, Alphabet.ORIGINAL).is_identity():
                ok = False
        # the original generators also reach every normal-form generator
        witnesses = COMPLETENESS_WITNESSES[gid]
        if set(witnesses) != set(generator_names(gid)):
            ok = False
        for name, word in witnesses.items():
            if parse_element(word, gid, Alphabet.ORIGINAL) != generator(gid, name):
                ok = False
    _report(7, "generator substitution soundness", ok)


def test_criterion_8_reversing_centralizers_are_infinite_cyclic():
    ok = True
    for gid in GroupId:
        for u in ball(gid, 2):
            if u.order() is not None or u.orientation_character() != -1:
                continue
            descriptor = centralizer(u)
            if descriptor.kind is not SubgroupKind.CYCLIC:
                ok = False
            elif descriptor.generators[0].order() is not None:
                ok = False
    _report(8, "reversing centralizers infinite cyclic", ok)


def test_criterion_9_cli_golden_transcripts():
    ok = True
    details = []
    for name, argv, expected in CASES:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        if code != 0 or buffer.getvalue() != expected:
            ok = False
            details.append(name)
    _report(9, "cli golden transcripts", ok, f"mismatched: {details}")
