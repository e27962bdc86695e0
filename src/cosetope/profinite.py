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
import itertools
import json
import os
from typing import NamedTuple, Optional, Sequence

from .arith import MAT_S, MAT_T, Mat2, is_prime, parse_int, sl2_group_order
from .budgets import Budgets, active_budgets
from .errors import PreconditionError, ValidationError
from .groupcore import (
    GeneratedSubgroup,
    GroupContext,
    SdElement,
    check_closure_cap,
    perm_inv,
    perm_mul,
    product_member,
    sd_identity,
    sd_inv,
    sd_mul,
    subgroup_closure,
    subgroup_from_elements,
    subgroup_intersection,
)
from .modular import ModularWord, PermRep, perm_identity, rep_contains, subgroup_generators, word_eval


class Formation(NamedTuple):
    """Which finite quotients are admitted: every one, or only p-power ones."""

    kind: str = "all"
    p: Optional[int] = None

    @classmethod
    def make(cls, kind: str, p: Optional[int] = None) -> "Formation":
        if kind == "all":
            return cls("all", None)
        if kind == "pro-p":
            if p is None or not is_prime(p):
                raise ValidationError(f"pro-p formation needs a prime p, got {p!r}")
            return cls("pro-p", p)
        raise ValidationError(f"unknown formation kind: {kind!r}")

    def admits(self, spec: "QuotientSpec", budgets: Budgets | None = None) -> bool:
        if self.kind == "all":
            return True
        m = spec.m
        while m % self.p == 0:
            m //= self.p
        if m != 1:
            return False
        if spec.rep is not None:
            size = _perm_group_order(spec.rep, budgets)
            while size % self.p == 0:
                size //= self.p
            if size != 1:
                return False
        return True


def _perm_group_order(rep: PermRep, budgets: Budgets | None) -> int:
    ident = perm_identity(rep.degree)
    ctx = GroupContext(ident, perm_mul, perm_inv, (rep.perm_s, rep.perm_t), name=f"perm image d={rep.degree}")
    return len(ctx.enumerate(budgets))


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

    def refined_by(self, fine: "QuotientSpec") -> bool:
        """Whether this quotient factors through ``fine`` (fine is at least as fine)."""
        if fine.m % self.m != 0:
            return False
        if self.rep is None:
            return True
        if fine.rep is None:
            return self.rep.degree == 1
        return all(rep_contains(self.rep, w) for w in subgroup_generators(fine.rep))

    def to_json(self) -> dict:
        rep, formation = self.rep, self.formation
        return {
            "m": self.m,
            "rep": rep.to_json() if rep is not None else None,
            "filter": {"type": formation.kind, "p": formation.p} if formation is not None else None,
        }

    @classmethod
    def from_json(cls, data: dict, base_dir: str = ".") -> "QuotientSpec":
        try:
            m = parse_int(data["m"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad quotient spec: {exc}") from exc
        _refuse_unknown_keys(data, ("m", "rep", "filter"), "quotient spec")
        rep = None
        raw_rep = data.get("rep")
        if isinstance(raw_rep, str):
            rep = load_rep(os.path.join(base_dir, raw_rep))
        elif isinstance(raw_rep, dict):
            rep = PermRep.from_json(raw_rep)
        elif raw_rep is not None:
            raise ValidationError("spec 'rep' must be a path, an object, or null")
        formation = None
        raw_filter = data.get("filter")
        if raw_filter is not None:
            if not isinstance(raw_filter, dict):
                raise ValidationError("spec 'filter' must be an object like {\"type\": \"pro-p\", \"p\": 2}, or null")
            _refuse_unknown_keys(raw_filter, ("type", "p"), "spec 'filter'")
            p = raw_filter.get("p")
            formation = Formation.make(raw_filter.get("type", "all"), parse_int(p) if p is not None else None)
        return cls.make(m, rep, formation)


def _refuse_unknown_keys(data: dict, known: tuple, what: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValidationError(f"{what} has unknown key {unknown[0]!r}; its keys are {', '.join(known)}")


def read_json(path: str, what: str):
    """The JSON value in the file at ``path``; ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON or UTF-8, or a NUL in the path
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from exc


def load_rep(path: str) -> PermRep:
    return PermRep.from_json(read_json(path, "permutation representation"))


def load_tower(path: str) -> list:
    data = read_json(path, "tower file")
    if not isinstance(data, list):
        raise ValidationError("a tower file holds a list of quotient specs")
    base_dir = os.path.dirname(os.path.abspath(path))
    return [QuotientSpec.from_json(entry, base_dir) for entry in data]


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
    def identity(cls) -> "GroupWord":
        return cls(Mat2.zero(), ModularWord())

    @classmethod
    def of_a(cls, a: Mat2) -> "GroupWord":
        return cls(a.lift(), ModularWord())

    @classmethod
    def of_word(cls, w: ModularWord) -> "GroupWord":
        return cls(Mat2.zero(), w)


@functools.lru_cache(maxsize=64)
def quotient_context(spec: QuotientSpec) -> GroupContext:
    """The finite quotient as a group context over SdElement.

    Generators, in fixed positional order: the four elementary additive
    matrices, then the images of S and T.  The positional order is shared by
    every spec, so refinement projections act generator-by-generator.
    """
    m = spec.m
    if m < 2:
        raise ValidationError(f"modulus must be at least 2, got {m}")
    degree = spec.rep.degree if spec.rep is not None else None
    ident = sd_identity(m, degree)
    hid = Mat2.identity(m)
    sig_id = None if degree is None else perm_identity(degree)
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    gens = [SdElement(Mat2.of_mod(*e, m), hid, sig_id) for e in units]
    actions = (None, None) if spec.rep is None else (spec.rep.perm_s, spec.rep.perm_t)
    gens += [SdElement(Mat2.zero(m), h.reduce(m), sigma) for h, sigma in zip((MAT_S, MAT_T), actions)]
    name = f"M2(Z/{m}) x| subgroup-image" if spec.rep is not None else f"M2(Z/{m}) x| SL2(Z/{m})"
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


def image_subgroup(gens: Sequence[GroupWord], spec: QuotientSpec, budgets: Budgets | None = None) -> GeneratedSubgroup:
    """Closure of the projections of ``gens`` in the quotient of ``spec``."""
    ctx = quotient_context(spec)
    return subgroup_closure(ctx, [project(g, spec) for g in gens], budgets)


# ---------------------------------------------------------------------------
# refinement kernels


def _coset_fibration(fine: PermRep, coarse: PermRep):
    """Point map fine -> coarse plus a section (one fine point per coarse point).

    The map sends 0 to 0 and commutes with S and T, so a walk over the fine
    points carries the coarse point along; fine refines coarse, so it is
    well defined.
    """
    pmap = [-1] * fine.degree
    pmap[0] = 0
    queue = [0]
    for p in queue:
        for perm, coarse_perm in ((fine.perm_s, coarse.perm_s), (fine.perm_t, coarse.perm_t)):
            if pmap[perm[p]] < 0:
                pmap[perm[p]] = coarse_perm[pmap[p]]
                queue.append(perm[p])
    section = [-1] * coarse.degree
    for p in range(fine.degree):
        if section[pmap[p]] < 0:
            section[pmap[p]] = p
    if any(v < 0 for v in section):
        raise ValidationError("coset fibration is not surjective; refinement is invalid")
    return tuple(pmap), tuple(section)


def element_restriction(fine: QuotientSpec, coarse: QuotientSpec):
    """The restriction homomorphism from the fine quotient to the coarse one."""
    if not coarse.refined_by(fine):
        raise PreconditionError("element_restriction: the first spec does not refine the second")
    cm = coarse.m
    if coarse.rep is None or fine.rep is None:
        # a plain fine quotient refines a coset action only of degree 1
        sigma = None if coarse.rep is None else perm_identity(coarse.rep.degree)

        def restrict(x: SdElement) -> SdElement:
            return SdElement(x.a.reduce(cm), x.h.reduce(cm), sigma)

        return restrict
    pmap, section = _coset_fibration(fine.rep, coarse.rep)

    def restrict(x: SdElement) -> SdElement:
        sigma = tuple(pmap[x.sigma[j]] for j in section)
        return SdElement(x.a.reduce(cm), x.h.reduce(cm), sigma)

    return restrict


def kernel_of_refinement(fine: QuotientSpec, coarse: QuotientSpec, budgets: Budgets | None = None) -> GeneratedSubgroup:
    """Elements of the fine quotient that map to the identity of the coarse one, identity first.

    Every quotient is M2(Z/f) x| L, with L generated by the images of S and
    T, and restriction reduces the additive part mod c.  So the kernel pairs
    every additive a = 0 mod c with every element of L that restricts to the
    coarse identity: when the fine quotient carries no coset action, the
    h = I mod c in SL2(Z/f), listed directly; otherwise those of the closure
    of L.
    """
    if not coarse.refined_by(fine):
        raise PreconditionError("kernel_of_refinement: the first spec does not refine the second")
    budgets = active_budgets(budgets)
    if fine == coarse:
        return subgroup_from_elements((quotient_context(fine).identity,))
    if fine.rep is None:
        return _congruence_kernel(fine.m, coarse.m, budgets)
    return _coset_action_kernel(fine, coarse, budgets)


def _multiples(f: int, c: int):
    """The entries (w, x, y, z) of each 2x2 matrix mod f that is 0 mod c, in lexicographic order."""
    return itertools.product(range(0, f, c), repeat=4)


def _kernel_product(f: int, c: int, linear, size: int, budgets: Budgets) -> GeneratedSubgroup:
    """Every (a, h, sigma) with a = 0 mod c and (h, sigma) in ``linear``.

    ``linear`` holds ``size`` pairs, the identity first, and runs outermost,
    so the kernel lists the identity first.  The closure cap is checked on
    the order (f/c)^4 * ``size`` before any element is built.
    """
    check_closure_cap((f // c) ** 4 * size, budgets, f"refinement kernel {f} -> {c}")
    additive = [Mat2(w, x, y, z, f) for w, x, y, z in _multiples(f, c)]
    return subgroup_from_elements(SdElement(a, h, sigma) for h, sigma in linear for a in additive)


def _congruence_kernel(f: int, c: int, budgets: Budgets) -> GeneratedSubgroup:
    """ker(M2(Z/f) x| SL2(Z/f) -> M2(Z/c) x| SL2(Z/c)) for c dividing f.

    Reduction of SL2 is onto, so |SL2(Z/f)| / |SL2(Z/c)| matrices h are
    I mod c; they are listed only once the cap has passed.
    """
    # 1 + w < f because c >= 2, so these entries are already canonical
    congruent = (Mat2(1 + w, x, y, 1 + z, f) for w, x, y, z in _multiples(f, c))
    linear = ((h, None) for h in congruent if h.det() == 1)
    return _kernel_product(f, c, linear, sl2_group_order(f) // sl2_group_order(c), budgets)


def _coset_action_kernel(fine: QuotientSpec, coarse: QuotientSpec, budgets: Budgets) -> GeneratedSubgroup:
    """The refinement kernel when the fine quotient carries a coset action.

    The closure of L, the images of S and T, runs under the closure cap;
    the elements that restrict to the coarse identity are its linear part.
    """
    fctx = quotient_context(fine)
    restrict = element_restriction(fine, coarse)
    cid = quotient_context(coarse).identity
    linear = [(x.h, x.sigma) for x in subgroup_closure(fctx, fctx.generators[4:], budgets) if restrict(x) == cid]
    return _kernel_product(fine.m, coarse.m, linear, len(linear), budgets)


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
    budgets: Budgets | None = None,
) -> TractabilityReport:
    """First candidate quotient where the intersection of images is tame.

    Runs ``tractable_candidate`` on each candidate in turn and succeeds on
    the first whose status is "ok".  Per-candidate precondition failures are
    recorded, not fatal.
    """
    budgets = active_budgets(budgets)
    entries = []
    found = None
    scanned = 0
    for cand in candidates:
        entry, count = tractable_candidate(h_gens, k_gens, hcapk_gens, m_spec, cand, budgets)
        entries.append(entry)
        scanned += count
        if entry["status"] == "ok":
            found = cand
            break
    counters = {"elements_scanned": scanned, "candidates_tried": len(entries)}
    return TractabilityReport(m_spec, tuple(h_gens), tuple(k_gens), tuple(hcapk_gens), entries, found, counters)


def tractable_candidate(
    h_gens: Sequence[GroupWord],
    k_gens: Sequence[GroupWord],
    hcapk_gens: Sequence[GroupWord],
    m_spec: QuotientSpec,
    cand: QuotientSpec,
    budgets: Budgets | None = None,
) -> tuple:
    """One candidate N of the inclusion search: (entry, elements scanned).

    N must lie in the formation of ``m_spec`` and refine it.  Compute
    U = image(H) meet image(K) and test U inside image(HcapK) * ker(N -> M):
    status "ok" when it holds, otherwise "violation" with a sample of
    violating elements.
    """
    budgets = active_budgets(budgets)
    entry = {"spec": cand, "status": "precondition", "detail": "", "violations": [], "sizes": {}}
    if m_spec.formation is not None and not m_spec.formation.admits(cand, budgets):
        entry.update(status="skipped-formation", detail="candidate is outside the configured formation")
        return entry, 0
    if not m_spec.refined_by(cand):
        entry["detail"] = "candidate does not refine the target quotient"
        return entry, 0
    ctx = quotient_context(cand)
    uh = image_subgroup(h_gens, cand, budgets)
    uk = image_subgroup(k_gens, cand, budgets)
    ui = image_subgroup(hcapk_gens, cand, budgets)
    bad = [g for g in ui.generators if g not in uh or g not in uk]
    if bad:
        entry["detail"] = "claimed intersection generators do not land in both images"
        entry["violations"] = bad[:_VIOLATION_SAMPLE]
        return entry, 0
    inter = subgroup_intersection(uh, uk)
    kernel = kernel_of_refinement(cand, m_spec, budgets)
    scanned = 0
    for u in inter.elements:
        scanned += 1
        if not product_member(ctx, u, ui, kernel):
            entry["violations"].append(u)
            if len(entry["violations"]) >= _VIOLATION_SAMPLE:
                break
    entry["sizes"] = {
        "image_h": len(uh),
        "image_k": len(uk),
        "image_intersection": len(inter),
        "kernel": len(kernel),
    }
    entry["status"] = "violation" if entry["violations"] else "ok"
    return entry, scanned


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
    budgets: Budgets | None = None,
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
        cert = probe_level(h_gens, k_gens, l_gens, g, spec, budgets)
        if cert is not None:
            return cert
    return None


def probe_level(
    h_gens: Sequence[GroupWord],
    k_gens: Sequence[GroupWord],
    l_gens: Optional[Sequence[GroupWord]],
    g: GroupWord,
    spec: QuotientSpec,
    budgets: Budgets | None = None,
) -> Optional[SeparabilityCertificate]:
    """One level of ``thm_b_probe``: a certificate when the quotient of
    ``spec`` excludes ``g`` from (H meet L)K, else None."""
    budgets = active_budgets(budgets)
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
    if product_member(quotient_context(spec), project(g, spec), hp, uk):
        return None
    return SeparabilityCertificate(
        element=g,
        target="(H meet L)K" if l_gens is not None else "HK",
        spec=spec,
        transcript={"image_hp": len(hp), "image_k": len(uk), "member": False},
    )
