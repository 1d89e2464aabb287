"""Exact normal-form arithmetic in the seven plane crystallographic groups
without reflections.

The groups handled here are the discrete cocompact isometry groups of the
euclidean plane whose elements are translations, rotations and glide
reflections only: the torus group G0 and the six extensions G1..G6 of the
translation lattice by a finite point group.  In wallpaper terms these are
p1, pg, p2, p3, p4, p6 and pgg.

Every element factors uniquely as

    t1^n1 * t2^n2 * w

with (n1, n2) integers and w one of finitely many point-part representatives.
The product of two normal forms is

    (v, w) * (v', w') = (v + M_w v' + tau(w, w'), w w')

where M_w is the integer matrix giving the conjugation action of w on the
lattice and tau is a 2-cocycle correcting the coset representatives.  The
extension splits for G2..G5 (tau = 0); the glide relations a^2 = t1 of G1 and
G6 and c*a*c^-1 = t2*a^-1 of G6 force the nonzero entries of tau.  All
arithmetic is exact: plain Python integers, no floating point anywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "GroupId",
    "GroupElement",
    "TwistData",
    "identity",
    "translation",
    "mat_mul",
    "mat_vec",
    "mat_det",
    "mat_inv",
]

Vec = tuple[int, int]
Mat = tuple[Vec, Vec]
PowerRow = tuple[Mat, Vec, int]

_ID: Mat = ((1, 0), (0, 1))
_ZERO: Vec = (0, 0)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_mul(a: Mat, b: Mat) -> Mat:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_det(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_inv(m: Mat) -> Mat:
    """Inverse of a 2x2 integer matrix with determinant +-1."""
    det = mat_det(m)
    if det not in (1, -1):
        raise ValueError(f"matrix {m} is not invertible over the integers")
    # adjugate divided by det; 1/det == det here
    return ((m[1][1] * det, -m[0][1] * det), (-m[1][0] * det, m[0][0] * det))


class GroupId(enum.Enum):
    """The seven plane crystallographic groups containing no reflection."""

    G0 = "G0"  # p1: the torus group, free abelian of rank 2
    G1 = "G1"  # pg: the Klein bottle group, one glide axis
    G2 = "G2"  # p2: half turns
    G3 = "G3"  # p3: order-3 rotations
    G4 = "G4"  # p4: quarter turns
    G5 = "G5"  # p6: order-6 rotations
    G6 = "G6"  # pgg: half turns plus two perpendicular glides

    @property
    def twist(self) -> "TwistData":
        return _TWIST[self]

    @property
    def point_order(self) -> int:
        return len(_TWIST[self].labels)

    def point_label(self, w: int) -> str:
        """Printable form of point part w; empty string for the identity."""
        return _TWIST[self].labels[w]


@dataclass(frozen=True)
class TwistData:
    """Tables driving the twisted product of one group.

    ``action[w]`` is the matrix M_w, ``table[w1][w2]`` the index of the point
    part of w1*w2, and ``cocycle[w1][w2]`` the translation correction tau.
    The remaining fields are derived at construction time.  ``powers[w][r]``
    is the row (S_r, c_r, w^r), 0 <= r <= m with m the order of w, such that
    x^r = (S_r v + c_r, w^r) for every x = (v, w).
    """

    labels: tuple[str, ...]
    action: tuple[Mat, ...]
    table: tuple[tuple[int, ...], ...]
    cocycle: tuple[tuple[Vec, ...], ...]
    inverse_part: tuple[int, ...]
    action_inv: tuple[Mat, ...]
    action_det: tuple[int, ...]
    part_order: tuple[int, ...]
    powers: tuple[tuple[PowerRow, ...], ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def power(self, v: Vec, w: int, k: int) -> tuple[Vec, int]:
        """Normal form (v', w^k) of x^k for x = (v, w) and any integer k.

        Row m of the power table is the pure translation x^m, so with
        k = q*m + r (floor division, hence also for negative k)
        x^k = (x^m)^q * x^r = (q*(S_m v + c_m) + S_r v + c_r, w^r).
        No products are formed, whatever the size of k.
        """
        rows = self.powers[w]
        q, r = divmod(k, len(rows) - 1)
        n1, n2 = v
        ((a, b), (c, d)), (e, f), _ = rows[-1]
        ((ar, br), (cr, dr)), (er, fr), wr = rows[r]
        return (
            (
                q * (a * n1 + b * n2 + e) + ar * n1 + br * n2 + er,
                q * (c * n1 + d * n2 + f) + cr * n1 + dr * n2 + fr,
            ),
            wr,
        )

    def validate(self) -> None:
        """Check the structural laws that make the twisted product a group."""
        n = self.size
        parts = range(n)
        if self.action[0] != _ID:
            raise ValueError("point part 0 must act trivially")
        for w in parts:
            if self.action_det[w] not in (1, -1):
                raise ValueError(f"action of part {w} is not in GL(2, Z)")
            if self.table[0][w] != w or self.table[w][0] != w:
                raise ValueError("point part 0 must be the identity of the table")
            if self.cocycle[0][w] != _ZERO or self.cocycle[w][0] != _ZERO:
                raise ValueError("cocycle must be normalized against the identity")
            if sorted(self.table[w]) != list(parts):
                raise ValueError(f"table row {w} is not a permutation")
            if sorted(self.table[x][w] for x in parts) != list(parts):
                raise ValueError(f"table column {w} is not a permutation")
        for i in parts:
            for j in parts:
                # the action must factor through the point group
                if mat_mul(self.action[i], self.action[j]) != self.action[self.table[i][j]]:
                    raise ValueError(f"action is not multiplicative at ({i}, {j})")
                for k in parts:
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError(f"table is not associative at ({i}, {j}, {k})")
                    lhs = _vadd(self.cocycle[i][j], self.cocycle[self.table[i][j]][k])
                    rhs = _vadd(
                        mat_vec(self.action[i], self.cocycle[j][k]),
                        self.cocycle[i][self.table[j][k]],
                    )
                    if lhs != rhs:
                        raise ValueError(f"cocycle identity fails at ({i}, {j}, {k})")


def _vadd(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def _power_rows(
    action: tuple[Mat, ...],
    table: tuple[tuple[int, ...], ...],
    cocycle: tuple[tuple[Vec, ...], ...],
    w: int,
) -> tuple[PowerRow, ...]:
    """Rows (S_r, c_r, w^r) for r = 0..m, m the order of w.

    From x^(r+1) = x^r * x: S_(r+1) = S_r + M_(w^r), c_(r+1) = c_r + tau(w^r, w).
    """
    s, c, wr = ((0, 0), (0, 0)), _ZERO, 0
    rows = [(s, c, wr)]
    for _ in range(len(table)):
        s = (_vadd(s[0], action[wr][0]), _vadd(s[1], action[wr][1]))
        c = _vadd(c, cocycle[wr][w])
        wr = table[wr][w]
        rows.append((s, c, wr))
        if wr == 0:
            return tuple(rows)
    raise ValueError(f"point part {w} has no finite order in the table")


def _make_twist(
    labels: tuple[str, ...],
    action: tuple[Mat, ...],
    table: tuple[tuple[int, ...], ...],
    cocycle: tuple[tuple[Vec, ...], ...],
) -> TwistData:
    inverse_part = tuple(row.index(0) for row in table)
    powers = tuple(_power_rows(action, table, cocycle, w) for w in range(len(labels)))
    data = TwistData(
        labels=labels,
        action=action,
        table=table,
        cocycle=cocycle,
        inverse_part=inverse_part,
        action_inv=tuple(mat_inv(m) for m in action),
        action_det=tuple(mat_det(m) for m in action),
        part_order=tuple(len(rows) - 1 for rows in powers),
        powers=powers,
    )
    data.validate()
    return data


def _zero_cocycle(n: int) -> tuple[tuple[Vec, ...], ...]:
    return tuple((_ZERO,) * n for _ in range(n))


def _rotation_twist(k: int, gen: Mat) -> TwistData:
    """Split extension by the cyclic group of order k generated by ``gen``."""
    labels = [""]
    action = [_ID]
    for i in range(1, k):
        labels.append("c" if i == 1 else f"c^{i}")
        action.append(mat_mul(action[-1], gen))
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return _make_twist(tuple(labels), tuple(action), table, _zero_cocycle(k))


_M_GLIDE: Mat = ((1, 0), (0, -1))  # M_a for G1 and G6
_M_HALF: Mat = ((-1, 0), (0, -1))  # half turn, M_c for G2 and G6
_M_THIRD: Mat = ((0, -1), (1, -1))  # M_c for G3
_M_QUARTER: Mat = ((0, -1), (1, 0))  # M_c for G4
_M_SIXTH: Mat = ((0, -1), (1, 1))  # M_c for G5
_M_CROSS_GLIDE: Mat = ((-1, 0), (0, 1))  # M_ac for G6


def _glide_twist() -> TwistData:
    # G1: parts {1, a}; a^2 = t1 gives the lone cocycle entry.
    return _make_twist(
        labels=("", "a"),
        action=(_ID, _M_GLIDE),
        table=((0, 1), (1, 0)),
        cocycle=((_ZERO, _ZERO), (_ZERO, (1, 0))),
    )


def _pgg_twist() -> TwistData:
    # G6: parts {1, a, c, ac}.  The cocycle entries follow from a^2 = t1,
    # c*a*c^-1 = t2*a^-1 and the consequence (ac)^2 = t2^-1.
    return _make_twist(
        labels=("", "a", "c", "a*c"),
        action=(_ID, _M_GLIDE, _M_HALF, _M_CROSS_GLIDE),
        table=(
            (0, 1, 2, 3),
            (1, 0, 3, 2),
            (2, 3, 0, 1),
            (3, 2, 1, 0),
        ),
        cocycle=(
            (_ZERO, _ZERO, _ZERO, _ZERO),
            (_ZERO, (1, 0), _ZERO, (1, 0)),
            (_ZERO, (-1, 1), _ZERO, (-1, 1)),
            (_ZERO, (0, -1), _ZERO, (0, -1)),
        ),
    )


_TWIST: dict[GroupId, TwistData] = {
    GroupId.G0: _rotation_twist(1, _ID),
    GroupId.G1: _glide_twist(),
    GroupId.G2: _rotation_twist(2, _M_HALF),
    GroupId.G3: _rotation_twist(3, _M_THIRD),
    GroupId.G4: _rotation_twist(4, _M_QUARTER),
    GroupId.G5: _rotation_twist(6, _M_SIXTH),
    GroupId.G6: _pgg_twist(),
}


@dataclass(frozen=True, slots=True, repr=False)
class GroupElement:
    """An element in normal form: translation exponents plus a point part.

    Instances are immutable and hashable; equality is structural equality of
    normal forms, which coincides with equality in the group.
    """

    group: GroupId
    v: Vec
    w: int = 0

    def __post_init__(self) -> None:
        n1, n2 = self.v
        w = self.w
        # exact type tests: bool and float parts are rejected, not coerced
        if type(n1) is not int or type(n2) is not int or type(w) is not int:
            raise TypeError(f"normal form parts must be integers, got {self.v!r}, {w!r}")
        object.__setattr__(self, "v", (n1, n2))
        if not 0 <= w < self.group.point_order:
            raise ValueError(f"invalid point part {w!r} for {self.group.name}")

    def is_identity(self) -> bool:
        return self.w == 0 and self.v == (0, 0)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.group is not other.group:
            raise ValueError(
                f"cannot multiply elements of {self.group.name} and {other.group.name}"
            )
        tw = _TWIST[self.group]
        m = tw.action[self.w]
        tau = tw.cocycle[self.w][other.w]
        y1, y2 = other.v
        return GroupElement(
            self.group,
            (
                self.v[0] + m[0][0] * y1 + m[0][1] * y2 + tau[0],
                self.v[1] + m[1][0] * y1 + m[1][1] * y2 + tau[1],
            ),
            tw.table[self.w][other.w],
        )

    def inverse(self) -> "GroupElement":
        tw = _TWIST[self.group]
        wi = tw.inverse_part[self.w]
        tau = tw.cocycle[self.w][wi]
        mi = tw.action_inv[self.w]
        u = (self.v[0] + tau[0], self.v[1] + tau[1])
        return GroupElement(
            self.group,
            (-(mi[0][0] * u[0] + mi[0][1] * u[1]), -(mi[1][0] * u[0] + mi[1][1] * u[1])),
            wi,
        )

    def __pow__(self, k: int) -> "GroupElement":
        if not isinstance(k, int):
            return NotImplemented
        v, w = _TWIST[self.group].power(self.v, self.w, k)
        return GroupElement(self.group, v, w)

    def order(self) -> int | None:
        """Smallest k >= 1 with x^k = 1, or None when no power is trivial.

        The point part of x^k is w^k, so a finite order must be a multiple of
        the order m of w in the point group; x^m is then a pure translation,
        trivial or of infinite order.  Hence a single bounded check decides.
        """
        tw = _TWIST[self.group]
        m = tw.part_order[self.w]
        return m if tw.power(self.v, self.w, m)[0] == _ZERO else None

    def orientation_character(self) -> int:
        """+1 on orientation-preserving elements, -1 on glide cosets."""
        return _TWIST[self.group].action_det[self.w]

    def __str__(self) -> str:
        n1, n2 = self.v
        parts = []
        if n1:
            parts.append("t1" if n1 == 1 else f"t1^{n1}")
        if n2:
            parts.append("t2" if n2 == 1 else f"t2^{n2}")
        label = _TWIST[self.group].labels[self.w]
        if label:
            parts.append(label)
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"GroupElement({self.group.name}, {self.v!r}, {self.w})"


def identity(group: GroupId) -> GroupElement:
    return GroupElement(group, (0, 0), 0)


def translation(group: GroupId, n1: int, n2: int) -> GroupElement:
    return GroupElement(group, (n1, n2), 0)
