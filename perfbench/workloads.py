"""The four workloads: seeded inputs, one operation, and its checker.

Each workload object offers

* ``inputs(rng)``: an endless iterator of inputs.  It walks the workload's
  input set in an order drawn from ``rng`` and reshuffles for every pass, so
  the same seed gives the same sequence and any prefix is a fair sample;
* ``run(item)``: one operation, the only code inside the timed region;
* ``check(item, answer)``: True when the answer is right, judged against a
  reference that does not reuse the code path under test;
* ``finish(attempted)``: failures found only at the end of a run;
* ``wrong_answers(rng)``: (item, answer) pairs that are deliberately wrong,
  used by the self-test to prove the checker can fail.

The program under test is reached only through ``planegroups`` attribute
lookups made at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import planegroups as pg
from planegroups.oracle import affine_image

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _passes(rng, items):
    """Yield the items in a fresh seeded order, pass after pass."""
    order = list(items)
    while True:
        rng.shuffle(order)
        yield from order


# --------------------------------------------------------------------------
# oracle-sweep


class OracleSweep:
    """One op is ``verify_centralizer(u, CANDIDATE_RADIUS)`` for a subject u
    from the radius-3 ball of one of the seven groups."""

    name = "oracle-sweep"
    SUBJECT_RADIUS = 3
    CANDIDATE_RADIUS = 3
    block = 16
    min_ops = 0

    def __init__(self) -> None:
        self.subjects = [u for g in pg.GroupId for u in pg.ball(g, self.SUBJECT_RADIUS)]

    @classmethod
    def size(cls) -> str:
        side = 2 * cls.SUBJECT_RADIUS + 1
        cand = 2 * cls.CANDIDATE_RADIUS + 1
        return (
            f"{side * side * 22} subjects (|n1|,|n2| <= {cls.SUBJECT_RADIUS}, all point"
            f" parts of G0..G6), {cand * cand} x |P| candidates each"
        )

    def inputs(self, rng):
        return _passes(rng, self.subjects)

    def run(self, u):
        return pg.verify_centralizer(u, self.CANDIDATE_RADIUS)

    def check(self, u, report) -> bool:
        return (
            report.agree is True
            and report.witnesses == ()
            and report.subject == u
            and report.box_radius == self.CANDIDATE_RADIUS
        )

    def finish(self, attempted: int) -> int:
        return 0

    def wrong_answers(self, rng):
        u = rng.choice(self.subjects)
        right = self.run(u)
        yield u, pg.VerificationReport(u.group, u, right.box_radius, False, (u,))
        yield u, pg.VerificationReport(u.group, u, right.box_radius, True, (u,))


# --------------------------------------------------------------------------
# query-mix: the reference model is the affine image of each generator,
# composed as exact integer maps x -> M x + o/2 (offsets doubled so that the
# half-period glides stay integral); powers by square-and-multiply.

_NEW_GENS = {
    "G0": {"t1": (1, 0, 0), "t2": (0, 1, 0)},
    "G1": {"t1": (1, 0, 0), "t2": (0, 1, 0), "a": (0, 0, 1)},
    "G2": {"t1": (1, 0, 0), "t2": (0, 1, 0), "c": (0, 0, 1)},
    "G3": {"t1": (1, 0, 0), "t2": (0, 1, 0), "c": (0, 0, 1)},
    "G4": {"t1": (1, 0, 0), "t2": (0, 1, 0), "c": (0, 0, 1)},
    "G5": {"t1": (1, 0, 0), "t2": (0, 1, 0), "c": (0, 0, 1)},
    "G6": {"t1": (1, 0, 0), "t2": (0, 1, 0), "a": (0, 0, 1), "c": (0, 0, 2)},
}
# The classical presentations' generators in normal form (n1, n2, point part).
_ORIGINAL_GENS = {
    "G1": {"a1": (0, 0, 1), "a2": (-1, -1, 1)},
    "G2": {"c1": (0, 0, 1), "c2": (1, 0, 1), "c3": (1, -1, 1)},
    "G3": {"c1": (0, 0, 2), "c2": (-1, -1, 2)},
    "G4": {"c1": (0, 0, 1), "c2": (1, 0, 1)},
    "G5": {"c1": (0, 0, 1), "c2": (-1, 1, 2)},
    "G6": {"a": (0, 0, 1), "c": (0, 0, 2)},
}
_LABELS = {
    "G0": ("",),
    "G1": ("", "a"),
    "G2": ("", "c"),
    "G3": ("", "c", "c^2"),
    "G4": ("", "c", "c^2", "c^3"),
    "G5": ("", "c", "c^2", "c^3", "c^4", "c^5"),
    "G6": ("", "a", "c", "a*c"),
}
_IDENT = (1, 0, 0, 1, 0, 0)


def _compose(a, b):
    """The map a after b."""
    a11, a12, a21, a22, a1, a2 = a
    b11, b12, b21, b22, b1, b2 = b
    return (
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
        a11 * b1 + a12 * b2 + a1,
        a21 * b1 + a22 * b2 + a2,
    )


def _invert(a):
    a11, a12, a21, a22, a1, a2 = a
    det = a11 * a22 - a12 * a21  # +-1, so 1/det == det
    m11, m12, m21, m22 = a22 * det, -a12 * det, -a21 * det, a11 * det
    return (m11, m12, m21, m22, -(m11 * a1 + m12 * a2), -(m21 * a1 + m22 * a2))


def _power(a, k):
    if k < 0:
        a, k = _invert(a), -k
    result = _IDENT
    while k:
        if k & 1:
            result = _compose(result, a)
        a = _compose(a, a)
        k >>= 1
    return result


def _format(n1, n2, label):
    parts = []
    if n1:
        parts.append("t1" if n1 == 1 else f"t1^{n1}")
    if n2:
        parts.append("t2" if n2 == 1 else f"t2^{n2}")
    if label:
        parts.append(label)
    return "*".join(parts) if parts else "1"


class _AffineModel:
    """Per-group point-part images taken from ``oracle.affine_image``."""

    def __init__(self) -> None:
        self.linear_to_part = {}
        self.base = {}
        for g in pg.GroupId:
            for w in range(g.point_order):
                img = affine_image(pg.GroupElement(g, (0, 0), w))
                (m11, m12), (m21, m22) = img.linear
                self.linear_to_part[(g.name, (m11, m12, m21, m22))] = w
                self.base[(g.name, w)] = (
                    (m11, m12, m21, m22),
                    (int(2 * img.offset[0]), int(2 * img.offset[1])),
                )
        self.gens = {}
        for g, table in _NEW_GENS.items():
            self.gens[(g, "new")] = {n: self.image(g, *c) for n, c in table.items()}
            original = _ORIGINAL_GENS.get(g, {})
            self.gens[(g, "original")] = {n: self.image(g, *c) for n, c in original.items()}

    def image(self, group, n1, n2, w):
        m, (b1, b2) = self.base[(group, w)]
        return (*m, b1 + 2 * n1, b2 + 2 * n2)

    def word(self, group, alphabet, letters):
        gens = self.gens[(group, alphabet)]
        result = _IDENT
        for name, k in letters:
            result = _compose(result, _power(gens[name], k))
        return result

    def text(self, group, a):
        """Canonical normal-form text of the map a, or None if a is not in the group."""
        w = self.linear_to_part.get((group, a[:4]))
        if w is None:
            return None
        d1 = a[4] - self.base[(group, w)][1][0]
        d2 = a[5] - self.base[(group, w)][1][1]
        if d1 % 2 or d2 % 2:
            return None
        return _format(d1 // 2, d2 // 2, _LABELS[group][w])

    def part_order(self, a):
        m, k = a[:4] + (0, 0), 1
        while m[:4] != _IDENT[:4]:
            m = _compose(m, a[:4] + (0, 0))
            k += 1
        return k


class QueryMix:
    """One op is one text request: parse, evaluate, compute, format."""

    name = "query-mix"
    VERBS = ("normalize", "mul", "inv", "pow", "order", "commutes", "centralizer", "member")
    TWO_WORDS = ("mul", "commutes", "member")
    SEPARATORS = ("*", "*", " * ", " ", "  ")
    MAX_FACTORS = 16
    MAX_EXPONENT = 10**30
    MALFORMED_SHARE = 0.03
    block = 60
    min_ops = 0

    def __init__(self) -> None:
        self.model = _AffineModel()

    @classmethod
    def size(cls) -> str:
        return (
            f"requests drawn per op: {len(cls.VERBS)} verbs, 7 groups, both alphabets,"
            f" 1-{cls.MAX_FACTORS} factors, |exponent| log-uniform in 1..1e30,"
            f" {cls.MALFORMED_SHARE:.0%} malformed"
        )

    # ---- inputs

    def _exponent(self, rng):
        bits = rng.randint(1, self.MAX_EXPONENT.bit_length())
        k = min(rng.getrandbits(bits) | (1 << (bits - 1)), self.MAX_EXPONENT)
        return k if rng.random() < 0.5 else -k

    def _letters(self, rng, names, count):
        return [(rng.choice(names), self._exponent(rng)) for _ in range(count)]

    def _text(self, rng, letters, fault=None):
        """Word text for ``letters``; with a fault, also the offset at which
        the parser must report it."""
        pieces, offset = [], None
        at = rng.randrange(len(letters)) if fault else -1
        for j, (name, k) in enumerate(letters):
            if j:
                pieces.append("*" if (j == at and fault == "empty") else rng.choice(self.SEPARATORS))
            pos = sum(map(len, pieces))
            token = name if k == 1 else f"{name}^{k}"
            if j == at:
                if fault == "unknown":
                    token, offset = "x" + token[len(name):], pos
                elif fault == "exponent":
                    token = name + "^"
                    offset = pos + len(token)
                else:  # "empty": a second '*' where a generator must start
                    token, offset = "*", pos
            pieces.append(token)
        return "".join(pieces), offset

    def _power_letters(self, letters, k):
        inverse = [(n, -e) for n, e in reversed(letters)]
        return (letters if k > 0 else inverse) * abs(k)

    def _request(self, rng):
        verb = rng.choice(self.VERBS)
        group = rng.choice(tuple(_NEW_GENS))
        alphabet = "original" if group != "G0" and rng.random() < 0.5 else "new"
        names = tuple(self.model.gens[(group, alphabet)])
        if verb in self.TWO_WORDS:
            first = self._letters(rng, names, rng.randint(1, 5))
            if rng.random() < 0.5:  # a power of the subject: always a member
                most = self.MAX_FACTORS // len(first)
                k = rng.choice([s * e for e in range(1, min(most, 3) + 1) for s in (1, -1)])
                second = self._power_letters(first, k)
            else:
                second = self._letters(rng, names, rng.randint(1, self.MAX_FACTORS))
            words = [first, second]
        else:
            words = [self._letters(rng, names, rng.randint(1, self.MAX_FACTORS))]
        fault = None
        if rng.random() < self.MALFORMED_SHARE:
            fault = rng.choice(("unknown", "exponent", "empty"))
        texts = []
        offset = None
        for i, letters in enumerate(words):
            text, off = self._text(rng, letters, fault if i == 0 else None)
            texts.append(text)
            if i == 0:
                offset = off
        fields = [verb, group, alphabet, *texts]
        exponent = None
        if verb == "pow":
            exponent = self._exponent(rng)
            fields.append(str(exponent))
        spec = (verb, group, alphabet, words, exponent, offset)
        return "|".join(fields), spec

    def inputs(self, rng):
        while True:
            yield self._request(rng)

    # ---- the op

    def run(self, item):
        request = item[0]
        verb, gname, alpha, *args = request.split("|")
        group = pg.GroupId[gname]
        alphabet = pg.Alphabet(alpha)
        try:
            x = pg.evaluate_word(pg.parse_word(args[0], group, alphabet), group, alphabet)
            if verb in self.TWO_WORDS:
                y = pg.evaluate_word(pg.parse_word(args[1], group, alphabet), group, alphabet)
        except pg.WordSyntaxError as exc:
            return ("syntax-error", exc.offset)
        if verb == "normalize":
            return str(x)
        if verb == "mul":
            return str(x * y)
        if verb == "inv":
            return str(x.inverse())
        if verb == "pow":
            return str(x ** int(args[1]))
        if verb == "order":
            k = x.order()
            return "Infinite" if k is None else str(k)
        if verb == "commutes":
            return "true" if pg.commutes(x, y) else "false"
        if verb == "member":
            return "true" if pg.centralizer(x).contains(y) else "false"
        sub = pg.centralizer(x)
        gens = tuple((g.v[0], g.v[1], g.w) for g in sub.generators)
        return (sub.kind.value + "".join(f"{':' if i == 0 else ','} {g}" for i, g in enumerate(sub.generators)), gens)

    # ---- the checker

    def check(self, item, answer) -> bool:
        verb, group, alphabet, words, exponent, offset = item[1]
        if offset is not None:
            return answer == ("syntax-error", offset)
        model = self.model
        a = model.word(group, alphabet, words[0])
        if verb == "normalize":
            return answer == model.text(group, a)
        if verb == "inv":
            return answer == model.text(group, _invert(a))
        if verb == "pow":
            return answer == model.text(group, _power(a, exponent))
        if verb == "order":
            m = model.part_order(a)
            if _power(a, m) != _IDENT:
                return answer == "Infinite"
            k = next(j for j in range(1, m + 1) if _power(a, j) == _IDENT)
            return answer == str(k)
        if verb in self.TWO_WORDS:
            b = model.word(group, alphabet, words[1])
            if verb == "mul":
                return answer == model.text(group, _compose(a, b))
            commuting = _compose(a, b) == _compose(b, a)
            return answer == ("true" if commuting else "false")
        # centralizer: the text names the kind and generators, and each
        # generator commutes with the subject
        if not isinstance(answer, tuple) or len(answer) != 2:
            return False
        text, gens = answer
        kind = text.split(":")[0]
        images = [model.image(group, *g) for g in gens]
        expected = kind + "".join(
            f"{':' if i == 0 else ','} {model.text(group, img)}" for i, img in enumerate(images)
        )
        if text != expected or any(_compose(a, g) != _compose(g, a) for g in images):
            return False
        if kind == "Whole":
            lattice = model.gens[(group, "new")].values()
        elif kind == "Lattice":
            lattice = [model.gens[(group, "new")][n] for n in ("t1", "t2")]
        else:
            return kind in ("Cyclic", "KleinBottle") and len(gens) == (1 if kind == "Cyclic" else 2)
        return all(_compose(a, g) == _compose(g, a) for g in lattice)

    def finish(self, attempted: int) -> int:
        return 0

    def wrong_answers(self, rng):
        """One wrong answer per verb, plus a misplaced syntax-error offset."""
        seen = set()
        while len(seen) < len(self.VERBS) + 1:
            item = self._request(rng)
            verb, offset = item[1][0], item[1][5]
            key = "syntax" if offset is not None else verb
            if key in seen:
                continue
            seen.add(key)
            right = self.run(item)
            if offset is not None:
                yield item, ("syntax-error", offset + 1)
            elif verb == "centralizer":
                text, gens = right
                if gens:  # a generator moved by one lattice step
                    n1, n2, w = gens[0]
                    yield item, (text, ((n1 + 1, n2, w),) + gens[1:])
                else:
                    yield item, ("Trivial", ())
            elif right in ("true", "false"):
                yield item, "false" if right == "true" else "true"
            elif verb == "order":
                yield item, "7"
            else:
                yield item, right + "*t1" if right != "1" else "t1"


# --------------------------------------------------------------------------
# classify-enum: the reference sign of chi uses integers only.

_FLAT = {
    (True, 1, ()): "G0",
    (False, 2, ()): "G1",
    (True, 0, (2, 2, 2, 2)): "G2",
    (True, 0, (3, 3, 3)): "G3",
    (True, 0, (2, 4, 4)): "G4",
    (True, 0, (2, 3, 6)): "G5",
    (False, 1, (2, 2)): "G6",
}


def _cone_multisets(low, high, most):
    def grow(prefix, start):
        yield prefix
        if len(prefix) < most:
            for a in range(start, high + 1):
                yield from grow(prefix + (a,), a)

    return list(grow((), low))


class ClassifyEnum:
    """One op is ``classify(Signature(...))``."""

    name = "classify-enum"
    GENUS = range(0, 4)
    CONES = (2, 12, 6)  # orders from 2 to 12, at most 6 of them
    BOUNDARY = range(0, 3)
    block = 8000
    min_ops = 0

    def __init__(self) -> None:
        cones = _cone_multisets(*self.CONES)
        self.signatures = [
            (orientable, genus, orders, boundary)
            for orientable in (True, False)
            for genus in self.GENUS
            if orientable or genus >= 1
            for orders in cones
            for boundary in self.BOUNDARY
        ]
        self.flat_seen = set()

    @classmethod
    def size(cls) -> str:
        low, high, most = cls.CONES
        closed = len(_cone_multisets(low, high, most)) * (2 * len(cls.GENUS) - 1)
        return (
            f"{closed * len(cls.BOUNDARY)} signatures ({closed} closed-base): genus"
            f" {cls.GENUS[0]}-{cls.GENUS[-1]}, <= {most} cone orders in {low}..{high},"
            f" boundary {cls.BOUNDARY[0]}-{cls.BOUNDARY[-1]}"
        )

    def inputs(self, rng):
        return _passes(rng, self.signatures)

    def run(self, sig):
        c = pg.classify(pg.Signature(*sig))
        return (
            c.kind.value,
            c.euclidean_group.name if c.euclidean_group else None,
            str(c.finite_name) if c.finite_name else None,
        )

    def check(self, sig, answer) -> bool:
        orientable, genus, orders, boundary = sig
        kind, group, finite = answer
        if boundary:
            infinite = (2 * genus if orientable else genus) + boundary - 1
            if infinite == 0 and len(orders) <= 1:
                name = f"Cyclic({orders[0] if orders else 1})"
                return (kind, group, finite) == ("Finite", None, name)
            return (kind, group, finite) == ("FreeProductInfinite", None, None)
        lcm = math.lcm(*orders) if orders else 1
        base = 2 - 2 * genus if orientable else 2 - genus
        chi = base * lcm - sum(lcm - lcm // a for a in orders)
        if chi > 0:
            return kind == "Finite" and group is None and finite is not None
        if chi < 0:
            return (kind, group, finite) == ("Hyperbolic", None, None)
        key = (orientable, genus, orders)
        self.flat_seen.add(key)
        return kind == "Euclidean" and group == _FLAT.get(key) and finite is None

    def finish(self, attempted: int) -> int:
        """After a full pass, the flat hits must be exactly the seven groups."""
        table = {k: v.name for k, v in pg.EUCLIDEAN_SIGNATURES.items()}
        if table != _FLAT:
            return 1
        if attempted >= len(self.signatures) and self.flat_seen != set(_FLAT):
            return 1
        return 0

    def wrong_answers(self, rng):
        yield (True, 0, (2, 3, 7), 0), ("Finite", None, "Icosahedral")
        yield (True, 0, (2, 3, 6), 0), ("Euclidean", "G3", None)
        yield (True, 0, (4,), 1), ("Finite", None, "Cyclic(1)")
        yield (True, 0, (2, 3), 1), ("Finite", None, "Cyclic(6)")


# --------------------------------------------------------------------------
# cli-oneshot


def load_golden_cases():
    path = ROOT / "tests" / "golden_cases.py"
    spec = importlib.util.spec_from_file_location("golden_cases", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


class CliOneshot:
    """One op is one ``python -m planegroups.cli ...`` process."""

    name = "cli-oneshot"
    TIMEOUT_S = 30
    block = 5
    min_ops = 100  # so that >= 10 samples lie beyond the 90th percentile

    def __init__(self, traced: bool = False) -> None:
        self.cases = load_golden_cases()
        self.traced = traced
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        if traced:
            self.prefix = [sys.executable, str(HERE / "cli_child.py")]
        else:
            self.prefix = [sys.executable, "-m", "planegroups.cli"]
        self.child_traces = []

    @classmethod
    def size(cls) -> str:
        return f"{len(load_golden_cases())} golden argv cases from tests/golden_cases.py"

    def inputs(self, rng):
        return _passes(rng, self.cases)

    def run(self, case):
        done = subprocess.run(
            [*self.prefix, *case[1]],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            timeout=self.TIMEOUT_S,
        )
        if self.traced:
            self.child_traces.append(json.loads(done.stderr.decode().splitlines()[-1]))
        return done.stdout, done.returncode

    def check(self, case, answer) -> bool:
        return answer == (case[2].encode(), 0)

    def finish(self, attempted: int) -> int:
        return 0

    def wrong_answers(self, rng):
        case = rng.choice(self.cases)
        expected = case[2].encode()
        yield case, (expected[:-1] + b"?", 0)
        yield case, (expected, 1)


WORKLOADS = {w.name: w for w in (OracleSweep, QueryMix, ClassifyEnum, CliOneshot)}
