"""Closed-form centralizers, centers, and decidable subgroup membership.

The centralizer of any element of the seven groups is one of five shapes:
the whole group, the translation lattice, a cyclic group with an explicit
generator, a Klein-bottle group on two explicit generators, or trivial.
``centralizer`` returns the shape by direct case analysis on the point part
of the subject; ``Subgroup.contains`` decides membership exactly, reducing
to integer linear equations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .elements import GroupElement, GroupId, mat_vec

__all__ = [
    "Subgroup",
    "SubgroupKind",
    "commutes",
    "centralizer",
    "center",
    "cyclic_exponent",
]


class SubgroupKind(enum.Enum):
    WHOLE = "Whole"
    LATTICE = "Lattice"
    CYCLIC = "Cyclic"
    KLEIN_BOTTLE = "KleinBottle"
    TRIVIAL = "Trivial"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup with decidable membership, described by kind + generators.

    CYCLIC carries one generator; KLEIN_BOTTLE carries (x, y) subject to
    x*y*x^-1 = y^-1 with x^2 and y independent lattice translations.  The
    other kinds carry no generators.
    """

    group: GroupId
    kind: SubgroupKind
    generators: tuple[GroupElement, ...] = ()

    @classmethod
    def whole(cls, group: GroupId) -> "Subgroup":
        return cls(group, SubgroupKind.WHOLE)

    @classmethod
    def lattice(cls, group: GroupId) -> "Subgroup":
        return cls(group, SubgroupKind.LATTICE)

    @classmethod
    def trivial(cls, group: GroupId) -> "Subgroup":
        return cls(group, SubgroupKind.TRIVIAL)

    @classmethod
    def cyclic(cls, gen: GroupElement) -> "Subgroup":
        if gen.is_identity():
            raise ValueError("cyclic subgroup generator must not be the identity")
        return cls(gen.group, SubgroupKind.CYCLIC, (gen,))

    @classmethod
    def klein_bottle(cls, x: GroupElement, y: GroupElement) -> "Subgroup":
        if x.group is not y.group:
            raise ValueError("generators must belong to the same group")
        if x * y * x.inverse() != y.inverse():
            raise ValueError("generators do not satisfy x*y*x^-1 = y^-1")
        xx = x * x
        if xx.w != 0 or y.w != 0:
            raise ValueError("x^2 and y must be lattice translations")
        if xx.v[0] * y.v[1] - xx.v[1] * y.v[0] == 0:
            raise ValueError("x^2 and y must span a rank-2 lattice")
        return cls(x.group, SubgroupKind.KLEIN_BOTTLE, (x, y))

    def contains(self, x: GroupElement) -> bool:
        if x.group is not self.group:
            raise ValueError(
                f"element of {x.group.name} tested against subgroup of {self.group.name}"
            )
        if self.kind is SubgroupKind.WHOLE:
            return True
        if self.kind is SubgroupKind.TRIVIAL:
            return x.is_identity()
        if self.kind is SubgroupKind.LATTICE:
            return x.w == 0
        if self.kind is SubgroupKind.CYCLIC:
            return cyclic_exponent(self.generators[0], x) is not None
        return self._klein_bottle_contains(x)

    __contains__ = contains

    def _klein_bottle_contains(self, h: GroupElement) -> bool:
        # Unique normal form x^m * y^n: even m gives point part 1, odd m the
        # point part of x; each case is one integer 2x2 linear system.
        x, y = self.generators
        p = (x * x).v
        q = y.v
        if h.w == 0:
            return _solve_pair(p, q, h.v) is not None
        if h.w == x.w:
            mq = mat_vec(x.group.twist.action[x.w], q)
            r = (h.v[0] - x.v[0], h.v[1] - x.v[1])
            return _solve_pair(p, mq, r) is not None
        return False


def _solve_pair(a: tuple[int, int], b: tuple[int, int], target: tuple[int, int]):
    """Integer solution (s, t) of s*a + t*b = target, or None."""
    det = a[0] * b[1] - a[1] * b[0]
    if det == 0:
        return None
    s_num = target[0] * b[1] - target[1] * b[0]
    t_num = a[0] * target[1] - a[1] * target[0]
    if s_num % det or t_num % det:
        return None
    return (s_num // det, t_num // det)


def commutes(x: GroupElement, y: GroupElement) -> bool:
    return x * y == y * x


def cyclic_exponent(g: GroupElement, h: GroupElement) -> int | None:
    """Some integer k with g^k = h, or None if h is not a power of g."""
    if g.is_identity():
        raise ValueError("cyclic membership needs a nontrivial base element")
    if h.group is not g.group:
        raise ValueError(
            f"cannot test {h.group.name} element against powers of a {g.group.name} element"
        )
    # g^(q*m + r) = (q*T + u_r, w^r) with m the order of the point part w and
    # T the translation g^m.  The point part of h fixes r = k mod m; then
    # h.v - u_r = q*T is one linear equation for q, trivial when T = 0.
    tw = g.group.twist
    m = tw.part_order[g.w]
    r = None
    wk = 0
    for k in range(m):
        if wk == h.w:
            r = k
            break
        wk = tw.table[wk][g.w]
    if r is None:
        return None
    step, _ = tw.power(g.v, g.w, m)
    u, _ = tw.power(g.v, g.w, r)
    d = (h.v[0] - u[0], h.v[1] - u[1])
    if step[0]:
        s, rem = divmod(d[0], step[0])
        if rem or d[1] != s * step[1]:
            return None
    elif step[1]:
        s, rem = divmod(d[1], step[1])
        if rem or d[0] != 0:
            return None
    else:
        # finite order: g^r is the only power with this point part
        return r if d == (0, 0) else None
    return r + m * s


def centralizer(u: GroupElement) -> Subgroup:
    """The centralizer of u, in closed form.

    The answer depends only on the point part of u and on divisibility
    conditions among its translation exponents.  The centralizer of the
    identity is the whole group by convention.
    """
    gid = u.group
    n1, n2 = u.v
    if u.is_identity() or gid is GroupId.G0:
        return Subgroup.whole(gid)

    if gid is GroupId.G1:
        if u.w == 0:
            # translations along the glide axis are central
            return Subgroup.whole(gid) if n2 == 0 else Subgroup.lattice(gid)
        return Subgroup.cyclic(GroupElement(gid, (0, n2), 1))

    if gid is GroupId.G2:
        if u.w == 0:
            return Subgroup.lattice(gid)
        return Subgroup.cyclic(u)

    if gid is GroupId.G3:
        if u.w == 0:
            return Subgroup.lattice(gid)
        if u.w == 1:
            return Subgroup.cyclic(u)
        return Subgroup.cyclic(GroupElement(gid, (n2, n2 - n1), 1))

    if gid is GroupId.G4:
        if u.w == 0:
            return Subgroup.lattice(gid)
        if u.w == 1:
            return Subgroup.cyclic(u)
        if u.w == 2:
            if (n1 + n2) % 2 == 0:
                # u is the square of a quarter turn
                root = GroupElement(gid, ((n1 + n2) // 2, (n2 - n1) // 2), 1)
                return Subgroup.cyclic(root)
            return Subgroup.cyclic(u)
        return Subgroup.cyclic(GroupElement(gid, (n2, -n1), 1))

    if gid is GroupId.G5:
        if u.w == 0:
            return Subgroup.lattice(gid)
        if u.w == 1:
            return Subgroup.cyclic(u)
        if u.w == 2:
            if (n1 - n2) % 3 == 0:
                root = GroupElement(gid, ((2 * n1 + n2) // 3, (n2 - n1) // 3), 1)
                return Subgroup.cyclic(root)
            return Subgroup.cyclic(u)
        if u.w == 3:
            if n1 % 2 == 0 and n2 % 2 == 0:
                root = GroupElement(gid, ((n1 + n2) // 2, -(n1 // 2)), 1)
                return Subgroup.cyclic(root)
            return Subgroup.cyclic(u)
        if u.w == 4:
            if (n1 - n2) % 3 == 0:
                root = GroupElement(gid, ((n1 + 2 * n2) // 3, -(2 * n1 + n2) // 3), 1)
                return Subgroup.cyclic(root)
            return Subgroup.cyclic(GroupElement(gid, (n1 + n2, -n1), 2))
        return Subgroup.cyclic(GroupElement(gid, (n2, -(n1 + n2)), 1))

    # G6
    if u.w == 0:
        # axis translations commute with one glide family each
        if n1 == 0:
            return Subgroup.klein_bottle(
                GroupElement(gid, (0, 0), 3), GroupElement(gid, (1, 0), 0)
            )
        if n2 == 0:
            return Subgroup.klein_bottle(
                GroupElement(gid, (0, 0), 1), GroupElement(gid, (0, 1), 0)
            )
        return Subgroup.lattice(gid)
    if u.w == 1:
        return Subgroup.cyclic(GroupElement(gid, (0, n2), 1))
    if u.w == 2:
        return Subgroup.cyclic(u)
    return Subgroup.cyclic(GroupElement(gid, (n1, 0), 3))


def center(group: GroupId) -> Subgroup:
    """The center: everything for G0, the glide-axis translations for G1,
    trivial for the rest."""
    if group is GroupId.G0:
        return Subgroup.whole(group)
    if group is GroupId.G1:
        return Subgroup.cyclic(GroupElement(group, (1, 0), 0))
    return Subgroup.trivial(group)
