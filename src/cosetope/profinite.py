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
from typing import NamedTuple, Optional, Sequence

from .arith import MAT_S, MAT_T, Mat2, is_prime, sl2_group_order
from .budgets import Budgets
from .errors import PreconditionError, ValidationError
from .groupcore import (
    GeneratedSubgroup,
    GroupContext,
    SdElement,
    check_closure_cap,
    perm_mul,
    product_member,
    sd_identity,
    sd_inv,
    sd_mul,
    short_int,
    subgroup_closure,
    subgroup_intersection,
)
from .modular import ONE_POINT, ModularWord, PermRep, perm_identity, word_eval


class Formation(NamedTuple):
    """The pro-p filter: it admits a quotient whose modulus is a power of the
    prime p and whose coset action's image is a p-group."""

    p: int

    @classmethod
    def make(cls, p: Optional[int]) -> "Formation":
        if p is None or not is_prime(p):
            raise ValidationError(f"pro-p formation needs a prime p, got {p!r}")
        return cls(p)

    def admits(self, spec: "QuotientSpec") -> bool:
        """Whether ``m`` is a power of p and the coset action's image a p-group.

        The image is generated by x, that of S, with x^2 = 1 and y, that of
        ST, with y^3 = 1, and a p-group holds only elements of p-power order:
        so it is one exactly when x = 1 unless p = 2, and y = 1 unless p = 3.
        """
        m = spec.m
        while m % self.p == 0:
            m //= self.p
        if m != 1:
            return False
        if spec.rep is None:
            return True
        ident = perm_identity(spec.rep.degree)
        x = spec.rep.perm_s
        y = perm_mul(x, spec.rep.perm_t)
        return (self.p == 2 or x == ident) and (self.p == 3 or y == ident)


class QuotientSpec(NamedTuple):
    """One finite quotient: modulus ``m``, optional coset action, optional formation filter."""

    m: int
    rep: Optional[PermRep] = None
    formation: Optional[Formation] = None

    @classmethod
    def make(cls, m: int, rep: Optional[PermRep] = None, formation: Optional[Formation] = None) -> "QuotientSpec":
        if m < 2:
            raise ValidationError(f"modulus must be at least 2, got {m}")
        return cls(m, rep, formation)


def default_tower() -> list:
    """Congruence levels with useful divisibility structure at desk scale."""
    return [QuotientSpec.make(m) for m in (2, 3, 4, 5, 6, 8, 12)]


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


@functools.lru_cache(maxsize=64)
def quotient_context(spec: QuotientSpec) -> GroupContext:
    """The finite quotient as a group context over SdElement.

    Generators, in fixed positional order: the four elementary additive
    matrices, then the images of S and T.  A modulus below 2 is refused by
    the identity's ``Mat2.zero``.
    """
    m = spec.m
    degree = spec.rep.degree if spec.rep is not None else None
    ident = sd_identity(m, degree)
    hid = Mat2.identity(m)
    sig_id = None if degree is None else perm_identity(degree)
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    gens = [SdElement(Mat2.of_mod(*e, m), hid, sig_id) for e in units]
    actions = (None, None) if spec.rep is None else (spec.rep.perm_s, spec.rep.perm_t)
    gens += [SdElement(Mat2.zero(m), h.reduce(m), sigma) for h, sigma in zip((MAT_S, MAT_T), actions)]
    mod = short_int(m)  # the name appears in budget messages
    name = f"M2(Z/{mod}) x| subgroup-image" if spec.rep is not None else f"M2(Z/{mod}) x| SL2(Z/{mod})"
    return GroupContext(ident, sd_mul, sd_inv, gens, name=name)


def spec_group_order(spec: QuotientSpec) -> Optional[int]:
    """Exact order when no coset action is attached; None otherwise."""
    if spec.rep is not None:
        return None
    return spec.m ** 4 * sl2_group_order(spec.m)


def project(g: GroupWord, spec: QuotientSpec) -> SdElement:
    """The image of an ambient element in the quotient; a homomorphism."""
    sigma = spec.rep.word_perm(g.w) if spec.rep is not None else None
    return SdElement(g.a.reduce(spec.m), word_eval(g.w).reduce(spec.m), sigma)


def image_subgroup(gens: Sequence[GroupWord], spec: QuotientSpec, budgets: Budgets = Budgets()) -> GeneratedSubgroup:
    """Closure of the projections of ``gens`` in the quotient of ``spec``."""
    ctx = quotient_context(spec)
    return subgroup_closure(ctx, [project(g, spec) for g in gens], budgets)


# ---------------------------------------------------------------------------
# refinement kernels


def _point_map(fine: Optional[PermRep], coarse: PermRep) -> Optional[tuple]:
    """The coarse point under each fine point, or None when the fine
    subgroup does not lie in the coarse one.

    A fine action of None is the one-point action of the whole group.  The
    map sends 0 to 0 and commutes with S and T, so a walk over the fine
    points from 0 carries the coarse point along; it exists exactly when no
    edge sends a point to two coarse points, and it is onto, as both actions
    are transitive.
    """
    fine = fine or ONE_POINT
    pmap = [-1] * fine.degree
    pmap[0] = 0
    queue = [0]
    for p in queue:
        for perm, coarse_perm in ((fine.perm_s, coarse.perm_s), (fine.perm_t, coarse.perm_t)):
            q, image = perm[p], coarse_perm[pmap[p]]
            if pmap[q] < 0:
                pmap[q] = image
                queue.append(q)
            elif pmap[q] != image:
                return None
    return tuple(pmap)


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


def kernel_of_refinement(fine: QuotientSpec, coarse: QuotientSpec, budgets: Budgets = Budgets()) -> RefinementKernel:
    """The kernel of the restriction from the fine quotient to the coarse one.

    Every quotient is M2(Z/f) x| L, with L generated by the images of S and
    T, and restriction reduces the additive part mod c.  So the kernel pairs
    every additive a = 0 mod c with every element of L that restricts to the
    coarse identity: its order is (f/c)^4 times |SL2(Z/f)| / |SL2(Z/c)|
    when the fine quotient carries no coset action, as reduction of SL2 is
    onto, and otherwise times the count of such elements in the closure of
    L, which runs under the closure cap.  The order is checked against the
    cap too, though no kernel element is listed.
    """
    restrict = element_restriction(fine, coarse)
    if restrict is None:
        raise PreconditionError("kernel_of_refinement: the first spec does not refine the second")
    f, c = fine.m, coarse.m
    if fine == coarse:
        return RefinementKernel(1)
    if fine.rep is None:
        linear = sl2_group_order(f) // sl2_group_order(c)
    else:
        fctx, cid = quotient_context(fine), quotient_context(coarse).identity
        linear = sum(1 for x in subgroup_closure(fctx, fctx.generators[4:], budgets) if restrict(x) == cid)
    order = (f // c) ** 4 * linear
    check_closure_cap(order, budgets, f"refinement kernel {short_int(f)} -> {short_int(c)}")
    return RefinementKernel(order)


# ---------------------------------------------------------------------------
# tractability inclusion


class TractabilityReport(NamedTuple):
    """Outcome of the inclusion search over a list of candidate quotients.

    When ``found`` is set, the inclusion image(H) meet image(K) inside
    image(H meet K) * kernel(found -> m_spec) was verified there, and the
    stored generator data makes that check replayable.  The field names
    are the report keys; each entry of ``entries`` holds ``spec``,
    ``status``, ``detail``, ``violations`` and ``sizes``.
    """

    m_spec: QuotientSpec
    h_gens: tuple
    k_gens: tuple
    hcapk_gens: tuple
    entries: list
    found: Optional[QuotientSpec]
    counters: dict


_VIOLATION_SAMPLE = 5


def tractable_at(
    h_gens: Sequence[GroupWord],
    k_gens: Sequence[GroupWord],
    hcapk_gens: Sequence[GroupWord],
    m_spec: QuotientSpec,
    candidates: Sequence[QuotientSpec],
    budgets: Budgets = Budgets(),
) -> TractabilityReport:
    """First candidate quotient N where the intersection of images is tame.

    N must lie in the formation of ``m_spec`` and refine it.  Compute
    U = image(H) meet image(K) and test U inside image(HcapK) * ker(N -> M),
    the preimage of the identity under restriction: u lies in it exactly
    when u lies in image(HcapK) or restricts as one of its elements does,
    whose restrictions are listed at the first u outside it.  Status "ok"
    when U lies inside, which ends the search, otherwise "violation"
    with a sample of violating elements.  Per-candidate precondition
    failures are recorded, not fatal.
    """
    keys = tuple(h_gens), tuple(k_gens), tuple(hcapk_gens)
    entries = []
    found = None
    scanned = 0
    for cand in candidates:
        entry = {"spec": cand, "status": "precondition", "detail": "", "violations": [], "sizes": {}}
        entries.append(entry)
        if m_spec.formation is not None and not m_spec.formation.admits(cand):
            entry.update(status="skipped-formation", detail="candidate is outside the configured formation")
            continue
        restrict = element_restriction(cand, m_spec)
        if restrict is None:
            entry["detail"] = "candidate does not refine the target quotient"
            continue
        images = {key: image_subgroup(key, cand, budgets) for key in dict.fromkeys(keys)}  # one closure each
        uh, uk, ui = (images[key] for key in keys)
        bad = [g for g in ui.generators if g not in uh or g not in uk]
        if bad:
            entry["detail"] = "claimed intersection generators do not land in both images"
            entry["violations"] = bad[:_VIOLATION_SAMPLE]
            continue
        inter = subgroup_intersection(uh, uk)
        kernel = kernel_of_refinement(cand, m_spec, budgets)
        restricted = None
        for u in inter.elements:
            scanned += 1
            if u in ui:
                continue
            if restricted is None:
                restricted = {restrict(x) for x in ui.elements}
            if restrict(u) not in restricted:
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
    counters = {"elements_scanned": scanned, "candidates_tried": len(entries)}
    return TractabilityReport(m_spec, *keys, entries, found, counters)


# ---------------------------------------------------------------------------
# separability probe


class SeparabilityCertificate(NamedTuple):
    """A finite quotient excluding an element from a double coset; replayable.
    The field names are the certificate's report keys."""

    element: GroupWord
    target: str
    spec: QuotientSpec
    transcript: dict


def thm_b_probe(
    h_gens: Sequence[GroupWord],
    k_gens: Sequence[GroupWord],
    l_gens: Optional[Sequence[GroupWord]],
    g: GroupWord,
    tower: Sequence[QuotientSpec],
    budgets: Budgets = Budgets(),
) -> Optional[SeparabilityCertificate]:
    """Probe separability of (H meet L)K along the tower.

    ``l_gens`` of None means L is the whole group.  At each level, compute
    the image of H meet L as image(H) meet image(L) and test whether the
    image of ``g`` lies in the resulting double coset; the first excluding
    level yields a certificate.  None means inconclusive: the tower is
    exhausted without a decision.
    """
    if not tower:
        raise ValidationError("thm_b_probe needs a nonempty tower")
    for spec in tower:
        uh = image_subgroup(h_gens, spec, budgets)
        uk = image_subgroup(k_gens, spec, budgets)
        if l_gens is None:
            hp = uh
        else:
            ul = image_subgroup(l_gens, spec, budgets)
            if any(x not in ul for x in subgroup_intersection(uh, uk).elements):
                raise PreconditionError(
                    f"thm_b_probe: image(H) meet image(K) is not inside image(L) at modulus {spec.m}"
                )
            hp = subgroup_intersection(uh, ul)
        if not product_member(quotient_context(spec), project(g, spec), hp, uk):
            return SeparabilityCertificate(
                element=g,
                target="(H meet L)K" if l_gens is not None else "HK",
                spec=spec,
                transcript={"image_hp": len(hp), "image_k": len(uk), "member": False},
            )
    return None
