"""Generic finite-group machinery.

A ``GroupContext`` packages identity, multiplication and inversion for some
hashable element type; everything else works uniformly on top of it:
breadth-first subgroup closures with O(1) membership, intersections and
double-coset membership.

Determinism: closures insert elements in BFS discovery order, so reports are
reproducible run to run.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .arith import Mat2
from .budgets import Budgets, active_budgets
from .errors import BudgetError, ValidationError


# ---------------------------------------------------------------------------
# semidirect elements


class SdElement(NamedTuple):
    """Element (a, h, sigma) of a quotient of the matrix semidirect product.

    ``a`` is the additive 2x2 part, ``h`` the determinant-1 part, both in
    quotient mode with a common modulus.  ``sigma`` is an optional point
    permutation carried along when the quotient tracks a coset action.
    The field names are the element's report keys.
    """

    a: Mat2
    h: Mat2
    sigma: Optional[tuple] = None


def perm_mul(p: tuple, q: tuple) -> tuple:
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def sd_mul(x: SdElement, y: SdElement) -> SdElement:
    """(a1 + h1*a2, h1*h2, sigma1 then sigma2), built without the NamedTuple constructor."""
    xa, xh, xs = x
    ya, yh, ys = y
    if (xs is None) != (ys is None):
        raise ValidationError("cannot combine elements with and without a permutation part")
    return tuple.__new__(SdElement, (xa + xh * ya, xh * yh, None if xs is None else perm_mul(xs, ys)))


def sd_inv(x: SdElement) -> SdElement:
    """(-h^-1 * a, h^-1, sigma^-1)."""
    hinv = x.h.inv_det1()
    sigma = None if x.sigma is None else perm_inv(x.sigma)
    return SdElement(-(hinv * x.a), hinv, sigma)


def sd_identity(m: int, degree: Optional[int] = None) -> SdElement:
    sigma = None if degree is None else tuple(range(degree))
    return SdElement(Mat2.zero(m), Mat2.identity(m), sigma)


# ---------------------------------------------------------------------------
# contexts and generated subgroups


class GroupContext:
    """A finite group given operationally: identity, multiplication, inversion.

    Elements must be hashable with structural equality.  ``generators``
    generate the whole group; full enumeration happens lazily and is cached.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, identity, mul: Callable, inv: Callable, generators: Sequence = (), name: str = ""):
        self.identity = identity
        self.mul = mul
        self.inv = inv
        self.generators = tuple(generators)
        self.name = name
        self._full: Optional[GeneratedSubgroup] = None

    def enumerate(self, budgets: Budgets | None = None) -> "GeneratedSubgroup":
        """Every element of the group, as the closure of its generators.

        The result is cached, but the closure cap is enforced against the
        result size either way, so budget behavior does not depend on what
        was already computed.
        """
        if self._full is None:
            self._full = subgroup_closure(self, self.generators, budgets)
        else:
            check_closure_cap(len(self._full), budgets, self.name or "the group")
        return self._full

    def __repr__(self):
        return f"GroupContext({self.name or hex(id(self))})"


class GeneratedSubgroup:
    """A subgroup as a generator list plus its full closure with fast membership."""

    __slots__ = ("generators", "elements", "_members")

    def __init__(self, generators: tuple, elements: tuple, members: frozenset):
        self.generators = generators
        self.elements = elements
        self._members = members

    def __contains__(self, x) -> bool:
        return x in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneratedSubgroup):
            return NotImplemented
        return self._members == other._members

    def __hash__(self):
        return hash(self._members)

    def as_set(self) -> frozenset:
        return self._members

    def __repr__(self):
        return f"GeneratedSubgroup(size={len(self.elements)}, ngens={len(self.generators)})"


def check_closure_cap(size: int, budgets: Budgets | None, what: str) -> None:
    """Raise BudgetError when ``what``, of known ``size``, exceeds the closure cap.

    Used wherever a size is known without closing (cached results, group
    orders), so the cap holds whether or not the elements already exist.
    """
    cap = active_budgets(budgets).closure_cap
    if size > cap:
        raise BudgetError(f"closure budget exceeded: {what} has {size} elements > {cap} (closure_cap)")


def subgroup_closure(ctx: GroupContext, gens: Iterable, budgets: Budgets | None = None) -> GeneratedSubgroup:
    """Breadth-first closure of ``gens`` under multiplication and inversion.

    Insertion order is the BFS discovery order with the identity first, which
    fixes the deterministic enumeration order used everywhere else.
    """
    budgets = active_budgets(budgets)
    cap = budgets.closure_cap
    gens = tuple(gens)
    step = []
    for g in gens:
        if g not in step:
            step.append(g)
        gi = ctx.inv(g)
        if gi not in step:
            step.append(gi)
    members = {ctx.identity}
    order = [ctx.identity]
    mul = ctx.mul
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        for g in step:
            y = mul(x, g)
            if y not in members:
                if len(order) >= cap:
                    raise BudgetError(
                        f"closure budget exceeded: more than {cap} elements "
                        f"in {ctx.name or 'the group'} (closure_cap)"
                    )
                members.add(y)
                order.append(y)
    return GeneratedSubgroup(gens, tuple(order), frozenset(members))


def subgroup_from_elements(elements: Iterable) -> GeneratedSubgroup:
    """Wrap an already-closed element collection (e.g. an intersection)."""
    elements = tuple(elements)
    return GeneratedSubgroup(elements, elements, frozenset(elements))


def subgroup_intersection(u: GeneratedSubgroup, v: GeneratedSubgroup) -> GeneratedSubgroup:
    """Intersection of two subgroups; scans the smaller closure."""
    small, big = (u, v) if len(u) <= len(v) else (v, u)
    return subgroup_from_elements(x for x in small.elements if x in big)


def product_member(ctx: GroupContext, g, u: GeneratedSubgroup, v: GeneratedSubgroup) -> bool:
    """Whether ``g`` lies in the double coset UV; scans the smaller factor."""
    mul, inv = ctx.mul, ctx.inv
    if len(u) <= len(v):
        for x in u.elements:
            if mul(inv(x), g) in v:
                return True
        return False
    for y in v.elements:
        if mul(g, inv(y)) in u:
            return True
    return False


# ---------------------------------------------------------------------------
# ready-made matrix contexts


# No command reaches sl2_context: modular.psl2_context, which bench/unitcost.py
# times, is built on it.
def sl2_context(m: int) -> GroupContext:
    """The determinant-1 matrix group over Z/m with its two standard generators."""
    from .arith import MAT_S, MAT_T  # local to keep module constants in one place

    identity = Mat2.identity(m)
    return GroupContext(
        identity,
        lambda x, y: x * y,
        lambda x: x.inv_det1(),
        (MAT_S.reduce(m), MAT_T.reduce(m)),
        name=f"SL2(Z/{m})",
    )
