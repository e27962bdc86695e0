"""Finite quotient towers of the matrix semidirect product.

Open normal subgroups are represented extensionally, as kernels of concrete
finite quotients described by a ``QuotientSpec``; towers are explicit finite
lists of specs.  On top of that sit the tractability inclusion check between
subgroup images, a double-coset separability probe along a tower, and the
transversal exclusion check.

Negative searches are always reported as inconclusive: only positive
certificates are decisions.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .arith import MAT_S, MAT_T, Mat2, is_prime, sl2_group_order
from .budgets import Budgets, active_budgets
from .errors import PreconditionError, ValidationError
from .groupcore import (
    GeneratedSubgroup,
    GroupContext,
    SdElement,
    check_closure_cap,
    coset_reps,
    is_normal_by_generators,
    perm_inv,
    perm_mul,
    product_member,
    schreier_generator_words,
    sd_identity,
    sd_inv,
    sd_mul,
    subgroup_closure,
    subgroup_from_elements,
    subgroup_intersection,
)
from .modular import (
    ModularWord,
    PermRep,
    perm_identity,
    rep_contains,
    schreier_transversal_words,
    subgroup_generators,
    word_eval,
)


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

    def admits(self, spec: "QuotientSpec") -> bool:
        if self.kind == "all":
            return True
        m = spec.m
        while m % self.p == 0:
            m //= self.p
        if m != 1:
            return False
        if spec.rep is not None:
            size = _perm_group_order(spec.rep)
            while size % self.p == 0:
                size //= self.p
            if size != 1:
                return False
        return True


def _perm_group_order(rep: PermRep) -> int:
    ident = perm_identity(rep.degree)
    ctx = GroupContext(ident, perm_mul, perm_inv, (rep.perm_s, rep.perm_t), name=f"perm image d={rep.degree}")
    return len(ctx.enumerate())


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
        return _rep_subgroup_contains(self.rep, fine.rep)

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
            m = int(data["m"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad quotient spec: {exc}") from exc
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
            p = raw_filter.get("p")
            try:
                p = int(p) if p is not None else None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"bad spec filter: {exc}") from exc
            formation = Formation.make(raw_filter.get("type", "all"), p)
        return cls.make(m, rep, formation)


@functools.lru_cache(maxsize=None)
def _rep_subgroup_contains(outer: PermRep, inner: PermRep) -> bool:
    """Whether outer's subgroup contains inner's (generator containment)."""
    return all(rep_contains(outer, w) for w in subgroup_generators(inner))


def load_rep(path: str) -> PermRep:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON or UTF-8, or a NUL in the path
        raise ValidationError(f"cannot read permutation representation {path!r}: {exc}") from exc
    return PermRep.from_json(data)


def load_tower(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON or UTF-8, or a NUL in the path
        raise ValidationError(f"cannot read tower file {path!r}: {exc}") from exc
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
    """An ambient group element: additive part ``a`` plus a word ``w``."""

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


def gw_mul(x: GroupWord, y: GroupWord) -> GroupWord:
    return GroupWord(x.a + word_eval(x.w) * y.a, x.w * y.w)


def gw_inv(x: GroupWord) -> GroupWord:
    hinv = word_eval(x.w).inv_det1()
    return GroupWord(-(hinv * x.a), x.w.inverse())


@functools.lru_cache(maxsize=None)
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
    """Point map fine -> coarse plus a section (one fine point per coarse point)."""
    words = schreier_transversal_words(fine)
    pmap = [0] * fine.degree
    for p, w in words.items():
        pmap[p] = coarse.word_point(ModularWord(w))
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
    """Elements of the fine quotient that map to the identity of the coarse one.

    When the fine quotient carries no coset action the kernel is listed
    directly: every (a, h) with a = 0 and h = I modulo the coarse modulus.
    Otherwise it is generated by Schreier words read off the action of the
    fine generators on the coarse quotient, and closed.
    """
    if not coarse.refined_by(fine):
        raise PreconditionError("kernel_of_refinement: the first spec does not refine the second")
    budgets = active_budgets(budgets)
    if fine == coarse:
        return subgroup_from_elements((quotient_context(fine).identity,))
    if fine.rep is None:
        return _congruence_kernel(fine.m, coarse.m, budgets)
    return _schreier_kernel(fine, coarse, budgets)


def _congruence_kernel(f: int, c: int, budgets: Budgets) -> GeneratedSubgroup:
    """ker(M2(Z/f) x| SL2(Z/f) -> M2(Z/c) x| SL2(Z/c)) for c dividing f, identity first.

    Its order is (f/c)^4 * |SL2(Z/f)| / |SL2(Z/c)|, since reduction of SL2
    is onto; the closure cap is checked against it before any element exists.
    """
    size = (f // c) ** 4 * sl2_group_order(f) // sl2_group_order(c)
    check_closure_cap(size, budgets, f"refinement kernel {f} -> {c}")
    steps = range(0, f, c)
    blocks = [(w, x, y, z) for w in steps for x in steps for y in steps for z in steps]
    additive = [Mat2(w, x, y, z, f) for w, x, y, z in blocks]
    # 1 + w < f because c >= 2, so these entries are already canonical
    congruent = [h for h in (Mat2(1 + w, x, y, 1 + z, f) for w, x, y, z in blocks) if h.det_int() == 1]
    return subgroup_from_elements(SdElement(a, h, None) for h in congruent for a in additive)


def _schreier_kernel(fine: QuotientSpec, coarse: QuotientSpec, budgets: Budgets) -> GeneratedSubgroup:
    """The refinement kernel as the closure of its Schreier generators; any specs.

    The Schreier walk visits every element of the coarse quotient, so its
    order, when known, is checked against the closure cap first.
    """
    coarse_order = spec_group_order(coarse)
    if coarse_order is not None:
        check_closure_cap(coarse_order, budgets, f"the Schreier walk over the quotient mod {coarse.m}")
    fctx = quotient_context(fine)
    cctx = quotient_context(coarse)
    restrict = element_restriction(fine, coarse)
    coarse_gens = [restrict(g) for g in fctx.generators]
    fine_gens = list(fctx.generators)

    def act(point, letter):
        idx = abs(letter) - 1
        g = coarse_gens[idx] if letter > 0 else sd_inv(coarse_gens[idx])
        return sd_mul(point, g)

    letters = []
    for i in range(len(fine_gens)):
        letters.extend((i + 1, -(i + 1)))

    def invert(word):
        return tuple(-l for l in reversed(word))

    words = schreier_generator_words(cctx.identity, act, tuple(letters), invert, budgets.closure_cap)
    kernel_gens = []
    for word in words:
        x = fctx.identity
        for letter in word:
            idx = abs(letter) - 1
            g = fine_gens[idx] if letter > 0 else sd_inv(fine_gens[idx])
            x = sd_mul(x, g)
        kernel_gens.append(x)
    return subgroup_closure(fctx, kernel_gens, budgets)


# ---------------------------------------------------------------------------
# tractability inclusion


@dataclass
class TractabilityReport:
    """Outcome of the inclusion search over a list of candidate quotients.

    When ``found`` is set, the inclusion image(H) meet image(K) inside
    image(H meet K) * kernel(found -> m_spec) was verified there, and the
    stored generator data makes that check replayable.
    """

    m_spec: QuotientSpec
    h_gens: tuple
    k_gens: tuple
    hcapk_gens: tuple
    entries: list = field(default_factory=list)
    found: Optional[QuotientSpec] = None
    counters: dict = field(default_factory=dict)


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
    report = TractabilityReport(m_spec, tuple(h_gens), tuple(k_gens), tuple(hcapk_gens))
    scanned = 0
    for cand in candidates:
        entry, count = tractable_candidate(h_gens, k_gens, hcapk_gens, m_spec, cand, budgets)
        report.entries.append(entry)
        scanned += count
        if entry["status"] == "ok":
            report.found = cand
            break
    report.counters = {"elements_scanned": scanned, "candidates_tried": len(report.entries)}
    return report


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
    entry = {"spec": cand, "status": "precondition", "detail": "", "violations": []}
    if m_spec.formation is not None and not m_spec.formation.admits(cand):
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


@dataclass
class SeparabilityCertificate:
    """A finite quotient excluding an element from a double coset; replayable."""

    element: GroupWord
    target: str
    spec: QuotientSpec
    transcript: dict = field(default_factory=dict)


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


# ---------------------------------------------------------------------------
# transversal exclusion


def hi_exclusion_offenders(
    ctx: GroupContext,
    h: GeneratedSubgroup,
    k: GeneratedSubgroup,
    hp: GeneratedSubgroup,
    n: GeneratedSubgroup,
    *,
    enforce: bool = True,
    budgets: Budgets | None = None,
) -> list:
    """Non-identity transversal elements of Hp in H that do land in Hp*K*N."""
    budgets = active_budgets(budgets)
    if enforce:
        if not is_normal_by_generators(ctx, n):
            raise PreconditionError("precondition failed: N is not normal (generator conjugation test)")
        if any(g not in h for g in hp.generators):
            raise PreconditionError("precondition failed: Hp is not contained in H")
        if any(x not in hp for x in subgroup_intersection(h, k).elements):
            raise PreconditionError("precondition failed: intersection(H, K) is not contained in Hp")
    kn = subgroup_closure(ctx, tuple(k.generators) + tuple(n.generators), budgets)
    decomposition = coset_reps(ctx, h, hp)
    return [x for x in decomposition.reps[1:] if product_member(ctx, x, hp, kn)]


def hi_exclusion_check(
    ctx: GroupContext,
    h: GeneratedSubgroup,
    k: GeneratedSubgroup,
    hp: GeneratedSubgroup,
    n: GeneratedSubgroup,
    *,
    enforce: bool = True,
    budgets: Budgets | None = None,
) -> bool:
    """Whether every non-identity transversal element stays outside Hp*K*N.

    Equivalent to the containment of H meet K*N in Hp, which is exactly what
    the offender list witnesses when nonempty.
    """
    return not hi_exclusion_offenders(ctx, h, k, hp, n, enforce=enforce, budgets=budgets)
