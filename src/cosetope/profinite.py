"""Finite quotient towers of the matrix semidirect product.

Open normal subgroups are represented extensionally, as kernels of concrete
finite quotients described by a ``QuotientSpec``; towers are explicit finite
lists of specs.  On top of that sit the tractability inclusion check between
subgroup images and a double-coset separability probe along a tower.

Negative searches are always reported as inconclusive: only positive
certificates are decisions.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional, Sequence

from .arith import Mat2, sl2_group_order
from .budgets import DEFAULT_CLOSURE_CAP
from .errors import ValidationError, shown
from .groupcore import (
    GeneratedSubgroup,
    GroupContext,
    SdElement,
    check_closure_cap,
    perm_inv,
    product_member,
    sd_inv,
    sd_mul,
    subgroup_closure,
    subgroup_from_elements,
    subgroup_intersection,
)
from .modular import (
    ONE_POINT, ModularWord, PermRep, discovery_tree, gamma_image_order, subgroup_generators, tree_word, word_eval
)


class QuotientSpec(NamedTuple):
    """One finite quotient: modulus ``m`` and an optional coset action."""

    m: int
    rep: Optional[PermRep] = None

    @classmethod
    def make(cls, m: int, rep: Optional[PermRep] = None) -> "QuotientSpec":
        if m < 2:
            raise ValidationError(f"modulus must be at least 2, got {shown(m)}")
        return cls(m, rep)


# congruence levels with useful divisibility structure at desk scale
DEFAULT_TOWER = tuple(QuotientSpec.make(m) for m in (2, 3, 4, 5, 6, 8, 12))


# ---------------------------------------------------------------------------
# elements of the ambient group and their projections


class GroupWord(NamedTuple):
    """An ambient group element: additive part ``a`` plus a word ``w``.
    The field names are its report keys and its generator-file keys."""

    a: Mat2
    w: ModularWord

    @classmethod
    def of_a(cls, a: Mat2) -> "GroupWord":
        return cls(a, ModularWord())

    @classmethod
    def of_word(cls, w: ModularWord) -> "GroupWord":
        return cls(Mat2.zero(), w)


# the four elementary additive matrices as ambient elements: they generate M2(Z)
ADDITIVE_UNITS = tuple(
    GroupWord.of_a(Mat2.ambient(*e)) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
)


def quotient_context(spec: QuotientSpec) -> GroupContext:
    """The finite quotient as a group context over SdElement.

    Its identity and generators are projections: in fixed positional
    order, the ``ADDITIVE_UNITS``, then S and T.  A modulus below 2 is
    refused by ``Mat2.of_mod``, through ``Mat2.reduce``.
    """
    ident = project(GroupWord.of_a(Mat2.zero()), spec)
    letters = [GroupWord.of_word(ModularWord.from_str(c)) for c in "ST"]
    gens = [project(g, spec) for g in (*ADDITIVE_UNITS, *letters)]
    mod = shown(spec.m)  # the name appears in budget messages
    name = f"M2(Z/{mod}) x| subgroup-image" if spec.rep is not None else f"M2(Z/{mod}) x| SL2(Z/{mod})"
    return GroupContext(ident, sd_mul, sd_inv, gens, name=name)


def spec_group_order(spec: QuotientSpec, closure_cap: int = DEFAULT_CLOSURE_CAP) -> int:
    """The order m^4 |L|: L, generated by the images of S and T, maps onto
    SL2(Z/m) with kernel sigma(Gamma(m)) (``gamma_image_order``), 1 if plain."""
    return spec.m ** 4 * sl2_group_order(spec.m) * gamma_image_order(spec.rep or ONE_POINT, spec.m, closure_cap)


def project(g: GroupWord, spec: QuotientSpec) -> SdElement:
    """The image of an ambient element in the quotient; a homomorphism."""
    sigma = spec.rep.word_perm(g.w) if spec.rep is not None else None
    return SdElement(g.a.reduce(spec.m), word_eval(g.w).reduce(spec.m), sigma)


def image_subgroup(
    gens: Sequence[GroupWord], spec: QuotientSpec, closure_cap: int = DEFAULT_CLOSURE_CAP
) -> GeneratedSubgroup:
    """Closure of the projections of ``gens`` in the quotient of ``spec``."""
    ctx = quotient_context(spec)
    return subgroup_closure(ctx, [project(g, spec) for g in gens], closure_cap)


def image_member(gens: Sequence[GroupWord], spec: QuotientSpec, closure_cap: int = DEFAULT_CLOSURE_CAP) -> Callable:
    """Membership in the image of the subgroup ``gens`` generate.  When ``gens``
    hold the ``ADDITIVE_UNITS``, the subgroup holds M2(Z), which is normal, so
    only the image P of the linear parts (0, w) of ``gens`` is closed, and
    (a, h, sigma) is tested as (0, h, sigma) in P; else the image is closed."""
    if not set(ADDITIVE_UNITS) <= set(gens):
        return image_subgroup(gens, spec, closure_cap).__contains__
    linear = image_subgroup([GroupWord.of_word(g.w) for g in gens if g not in ADDITIVE_UNITS], spec, closure_cap)
    zero = Mat2.zero(spec.m)
    return lambda x: x._replace(a=zero) in linear


# ---------------------------------------------------------------------------
# refinement kernels


def _point_map(fine: Optional[PermRep], coarse: PermRep) -> Optional[tuple]:
    """The coarse point under each fine point, or None when the fine
    subgroup does not lie in the coarse one: when one of its
    ``subgroup_generators`` moves the coarse basepoint.  A fine action of
    None is the one-point action of the whole group.  Fine point p maps to
    where p's ``tree_word``, followed point by point, takes coarse point 0;
    the map commutes with S and T, and it is onto.
    """
    fine = fine or ONE_POINT
    steps = {"S": coarse.perm_s, "s": coarse.perm_s, "T": coarse.perm_t, "t": perm_inv(coarse.perm_t)}

    def point(letters: str) -> int:
        return functools.reduce(lambda p, letter: steps[letter][p], letters, 0)

    if any(point(w.letters) for w in subgroup_generators(fine)):
        return None
    tree = discovery_tree(fine.perm_s, fine.perm_t)
    return tuple(point(tree_word(tree, p)) for p in range(fine.degree))


def element_restriction(fine: QuotientSpec, coarse: QuotientSpec):
    """The restriction homomorphism from the fine quotient to the coarse one,
    or None when the fine spec does not refine the coarse one.

    It refines it when m divides and the point map exists; a plain coarse
    quotient is the one-point action, onto which every action maps.  The
    coarse action of an element is read through the point map on the least
    fine point over each coarse point.
    """
    cm = coarse.m
    pmap = _point_map(fine.rep, coarse.rep or ONE_POINT)
    if fine.m % cm or pmap is None:
        return None
    if coarse.rep is None:
        return lambda x: SdElement(x.a.reduce(cm), x.h.reduce(cm), None)
    section = [pmap.index(c) for c in range(coarse.rep.degree)]

    def restrict(x: SdElement) -> SdElement:
        sigma = x.sigma or (0,)  # a plain fine quotient acts on one point
        return SdElement(x.a.reduce(cm), x.h.reduce(cm), tuple(pmap[sigma[j]] for j in section))

    return restrict


class RefinementKernel:
    """ker(fine -> coarse), given by its order alone: x lies in it when
    ``element_restriction`` sends x to the coarse identity.  It has no
    generators."""

    __slots__ = ("order",)
    generators = ()

    def __init__(self, order: int):
        self.order = order

    def __len__(self) -> int:
        return self.order


def kernel_of_refinement(
    fine: QuotientSpec, coarse: QuotientSpec, closure_cap: int = DEFAULT_CLOSURE_CAP
) -> RefinementKernel:
    """The kernel of the restriction from the fine quotient to the coarse one.

    Its caller, ``tractable_at``, passes a fine spec that refines the
    coarse one.  Restriction reduces the additive part mod c and sends the
    images of S and T to theirs, so it is onto, and the kernel's order is
    the ratio of the two ``spec_group_order``, (f/c)^4 |L_f| / |L_c|.  The
    order is checked against the closure cap; no kernel element is listed.
    """
    if fine == coarse:
        return RefinementKernel(1)
    order = spec_group_order(fine, closure_cap) // spec_group_order(coarse, closure_cap)
    check_closure_cap(order, closure_cap, f"refinement kernel {shown(fine.m)} -> {shown(coarse.m)}")
    return RefinementKernel(order)


# ---------------------------------------------------------------------------
# tractability inclusion


_VIOLATION_SAMPLE = 5


def tractable_at(
    h_gens: Sequence[GroupWord],
    k_gens: Sequence[GroupWord],
    hcapk_gens: Sequence[GroupWord],
    m_spec: QuotientSpec,
    candidates: Sequence[QuotientSpec],
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> dict:
    """First candidate quotient N where the intersection of images is tame.

    N must refine ``m_spec``.  Compute
    U = image(H) meet image(K) and test U inside image(HcapK) * ker(N -> M):
    restriction after projection is projection, so u lies in it exactly
    when its restriction lies in image_M(HcapK), closed once, at the first
    refining candidate.  Status "ok" when U lies inside, which ends the
    search, otherwise "violation" with a sample of violating elements.
    Per-candidate precondition failures are recorded, not fatal;
    ``report.tower`` never passes an empty candidate list.

    The result maps ``entries``, one per candidate tried, each holding
    ``spec``, ``status``, ``detail``, ``violations`` and ``sizes``; ``found``,
    the candidate where the inclusion was verified, or None; and
    ``counters``.  The inputs are the report's config, not repeated here.
    """
    entries = []
    found = target = None
    scanned = 0
    for cand in candidates:
        entry = {"spec": cand, "status": "precondition", "detail": "", "violations": [], "sizes": {}}
        entries.append(entry)
        restrict = element_restriction(cand, m_spec)
        if restrict is None:
            entry["detail"] = "candidate does not refine the target quotient"
            continue
        uh = image_subgroup(h_gens, cand, closure_cap)
        uk = uh if tuple(k_gens) == tuple(h_gens) else image_subgroup(k_gens, cand, closure_cap)
        bad = [p for p in (project(g, cand) for g in hcapk_gens) if p not in uh or p not in uk]
        if bad:
            entry["detail"] = "claimed intersection generators do not land in both images"
            entry["violations"] = bad[:_VIOLATION_SAMPLE]
            continue
        if target is None:
            target = image_subgroup(hcapk_gens, m_spec, closure_cap)
        inter = subgroup_intersection(uh, uk)
        kernel = kernel_of_refinement(cand, m_spec, closure_cap)
        for u in inter.elements:
            scanned += 1
            if restrict(u) not in target:
                entry["violations"].append(u)
                if len(entry["violations"]) >= _VIOLATION_SAMPLE:
                    break
        entry["sizes"] = {
            "image_h": len(uh),
            "image_k": len(uk),
            "image_intersection": len(inter),
            "kernel": kernel.order,
        }
        entry["status"] = "violation" if entry["violations"] else "ok"
        if entry["status"] == "ok":
            found = cand
            break
    return {"entries": entries, "found": found, "counters": {"elements_scanned": scanned}}


# ---------------------------------------------------------------------------
# separability probe


def thm_b_probe(
    h_gens: Sequence[GroupWord],
    k_gens: Sequence[GroupWord],
    l_gens: Optional[Sequence[GroupWord]],
    g: GroupWord,
    tower: Sequence[QuotientSpec],
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> Optional[dict]:
    """Probe separability of (H meet L)K along the tower.

    ``l_gens`` of None means L is the whole group.  At each level, image(H
    meet L) is the part of image(H) in image(L), which must hold image(H)
    meet image(K); ``image_member`` tests image(L) by its linear part when L
    holds M2(Z).  The first level whose double coset misses the image of
    ``g`` yields a certificate, replayable: a dict of the ``target`` double
    coset, the excluding quotient ``spec`` and its ``transcript``; the
    caller records ``g`` next to it.  None means inconclusive: the tower is
    exhausted without a decision; ``report.tower`` never passes an empty one.
    """
    for spec in tower:
        uh = image_subgroup(h_gens, spec, closure_cap)
        uk = image_subgroup(k_gens, spec, closure_cap)
        hp = uh
        if l_gens is not None:
            in_l = image_member(l_gens, spec, closure_cap)
            if not all(map(in_l, subgroup_intersection(uh, uk).elements)):
                raise ValidationError(
                    f"thm_b_probe: image(H) meet image(K) is not inside image(L) at modulus {shown(spec.m)}"
                )
            hp = subgroup_from_elements(filter(in_l, uh.elements))
        if not product_member(quotient_context(spec), project(g, spec), hp, uk):
            return {
                "target": "(H meet L)K" if l_gens is not None else "HK",
                "spec": spec,
                "transcript": {"image_hp": len(hp), "image_k": len(uk), "member": False},
            }
    return None
