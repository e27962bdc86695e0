"""Generic finite-group machinery.

A ``GroupContext`` packages identity, multiplication and inversion for some
hashable element type; on top of it: breadth-first closures under
multiplication by the generators, of at most ``closure_cap`` elements, with
O(1) membership, intersections and double-coset membership.

Determinism: closures insert elements in BFS discovery order, so reports are
reproducible run to run.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .arith import Mat2
from .budgets import DEFAULT_CLOSURE_CAP
from .errors import BudgetError, ValidationError, shown


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


# ---------------------------------------------------------------------------
# contexts and generated subgroups


class GroupContext:
    """A finite group given operationally: identity, multiplication, inversion.

    Elements must be hashable with structural equality.  ``generators``
    generate the whole group.  Instances are immutable after construction
    and safe to share.
    """

    def __init__(self, identity, mul: Callable, inv: Callable, generators: Sequence = (), name: str = ""):
        self.identity = identity
        self.mul = mul
        self.inv = inv
        self.generators = tuple(generators)
        self.name = name

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

    def as_set(self) -> frozenset:
        return self._members

    def __repr__(self):
        return f"GeneratedSubgroup(size={len(self.elements)}, ngens={len(self.generators)})"


def check_closure_cap(size: int, closure_cap: int, what: str) -> None:
    """Raise BudgetError when ``what``, of known ``size``, exceeds the closure cap.

    Used wherever a size is known without closing (group orders), so the
    cap holds whether or not the elements are ever listed.  A modulus in
    ``what`` is written with ``shown``, as the size and the cap are.
    """
    cap = shown(closure_cap)
    if size > closure_cap:
        raise BudgetError(f"closure budget exceeded: {what} has {shown(size)} elements > {cap} (closure_cap)")


def subgroup_closure(ctx: GroupContext, gens: Iterable, closure_cap: int = DEFAULT_CLOSURE_CAP) -> GeneratedSubgroup:
    """Breadth-first closure of ``gens`` under multiplication by the generators.

    In a finite group each g has some order n, so g^-1 = g^(n-1) and no
    inverse step is needed.  Insertion order is the BFS discovery order with
    the identity first, which fixes the enumeration order used everywhere.
    """
    gens = tuple(gens)
    step = tuple(dict.fromkeys(gens))
    members = {ctx.identity}
    order = [ctx.identity]
    mul = ctx.mul
    for x in order:
        for g in step:
            y = mul(x, g)
            if y not in members:
                if len(order) >= closure_cap:
                    raise BudgetError(
                        f"closure budget exceeded: more than {closure_cap} elements "
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
    """Whether ``g`` lies in the double coset UV; scans the smaller factor.

    U = U^-1, so g is in UV exactly when x·g is in V for some x in U; and g
    is in UV exactly when g^-1 is in VU, so a smaller V is scanned first.
    """
    mul = ctx.mul
    if len(v) < len(u):
        g, u, v = ctx.inv(g), v, u
    return any(mul(x, g) in v for x in u.elements)


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
