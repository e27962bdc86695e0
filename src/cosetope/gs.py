"""The matrix semidirect-product example, end to end.

The ambient group is the additive 2x2 integer matrices acted on by the
determinant-1 group through left multiplication.  With H the determinant-1
part and K its conjugate by the identity matrix i of the additive part,
H meet K is trivial and the double coset HK is cut out by a determinant
criterion that certifies separability level by level.  A finite-index
subgroup with a congruence gap then produces desk-scale evidence that the
double coset H'K admits no such certificates: a concrete element outside
H'K whose image lies inside the image of H'K at every tested congruence
level.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .arith import Mat2, sl2_group_order
from .budgets import Budgets, active_budgets
from .errors import ValidationError
from .groupcore import (
    GeneratedSubgroup,
    GroupContext,
    SdElement,
    check_closure_cap,
    product_member,
    sd_inv,
    sd_mul,
    subgroup_closure,
    subgroup_from_elements,
    subgroup_intersection,
)
from .modular import (
    GapWitness,
    ModularWord,
    PermRep,
    congruence_gap_witness,
    image_blocks,
    image_elements,
    rep_contains,
    subgroup_generators,
    word_eval,
)
from .profinite import (
    GroupWord,
    QuotientSpec,
    SeparabilityCertificate,
    project,
    quotient_context,
)


class GsInstance(NamedTuple):
    """One finite level of the example: images of H and K and the conjugator."""

    spec: QuotientSpec
    ctx: GroupContext
    im_h: GeneratedSubgroup
    im_k: GeneratedSubgroup
    i_elt: SdElement


def gs_build(spec: QuotientSpec, budgets: Budgets | None = None) -> GsInstance:
    """Images of H and of K = i H i^-1 in the quotient of ``spec``.

    The image of K is the elementwise conjugate of the image of H, so every
    element of it has the shape (I - h, h).
    """
    budgets = active_budgets(budgets)
    ctx = quotient_context(spec)
    h_gens = ctx.generators[4:6]
    im_h = subgroup_closure(ctx, h_gens, budgets)
    degree = spec.rep.degree if spec.rep is not None else None
    sigma = tuple(range(degree)) if degree is not None else None
    i_elt = SdElement(Mat2.identity(spec.m), Mat2.identity(spec.m), sigma)
    i_inv = sd_inv(i_elt)
    conj = lambda u: sd_mul(sd_mul(i_elt, u), i_inv)
    k_elements = tuple(conj(u) for u in im_h.elements)
    im_k = GeneratedSubgroup(tuple(conj(g) for g in h_gens), k_elements, frozenset(k_elements))
    return GsInstance(spec, ctx, im_h, im_k, i_elt)


def gs_intersection(instance: GsInstance) -> GeneratedSubgroup:
    """image(H) meet image(K); trivial at every level, because the additive
    part of a common element forces its h part to be the identity."""
    return subgroup_intersection(instance.im_h, instance.im_k)


def hk_member_sd(x: SdElement) -> bool:
    """Determinant criterion for membership of a quotient element in HK's image.

    (a, h) lies in the image of HK exactly when a + h has determinant 1:
    the products (u - uv, uv) sweep exactly those pairs.  Only valid in
    plain congruence quotients; with a coset action attached the criterion
    is necessary but no longer sufficient.
    """
    if x.sigma is not None:
        raise ValidationError("the determinant criterion applies to plain congruence quotients only")
    return (x.a + x.h).det_int() == 1 % x.a.m


def gs_hk_member(g: GroupWord, m: int) -> bool:
    """Whether the level-m image of ``g`` lies in the image of HK."""
    if m < 2:
        raise ValidationError(f"modulus must be at least 2, got {m}")
    return hk_member_sd(project(g, QuotientSpec.make(m)))


def gs_hk_witness(g: GroupWord) -> Optional[SeparabilityCertificate]:
    """Smallest level separating ``g`` from HK, or None when no level can.

    Ambiently, g = (a, h) lies in HK exactly when det(a + h) = 1, so a
    determinant D != 1 is excluded at the smallest m >= 2 with D incongruent
    to 1; such an m exists and is at most |D - 1| + 1.  D = 1 means the
    element is in HK, hence inside the closure at every level: inconclusive.
    """
    d = (g.a + word_eval(g.w)).det()
    if d == 1:
        return None
    m = 2
    while d % m == 1 % m:
        m += 1
    certificate = SeparabilityCertificate(
        element=g,
        target="HK",
        spec=QuotientSpec.make(m),
        transcript={"det": d, "det_mod_m": d % m, "member": False},
    )
    return certificate


# ---------------------------------------------------------------------------
# non-separability evidence


class NonSepEvidence(NamedTuple):
    """Desk-scale evidence that the double coset H'K is not separable.

    ``g`` is a concrete element outside H'K (because the witness matrix
    moves the basepoint of ``rep``), yet at every congruence level recorded
    in ``levels`` the image of ``g`` lies in the image of H'K.  The evidence
    tower is congruence-only by design: quotients carrying the coset action
    of H' itself are excluded, and ``towers_used`` documents that.  The
    field names are the evidence's report keys.
    """

    rep: PermRep
    witness: GapWitness
    g: GroupWord
    level_transcripts: list
    levels: tuple
    witness_level: int
    towers_used: str
    conclusion: str
    status: str


_CONCLUSION = (
    "HK is separable (determinant certificates exist for every element off it), "
    "while H'K resists every congruence level tested; by the double-coset "
    "characterization of tame intersections this makes the intersection of H "
    "and K profinitely intractable, so the ambient group fails the "
    "Wilson-Zalesskii property."
)

_CROSS_CHECK_MAX = 4


def _h_prime_image_mod(rep: PermRep, m: int, budgets: Budgets | None = None) -> GeneratedSubgroup:
    """Image of the (sign-saturated) subgroup of H attached to ``rep`` at level m.

    Listed without a closure (``image_elements``), each u with -u (which
    coincide only at m = 2); only ``evidence_entry``'s cross-check needs it.
    """
    elements = tuple(dict.fromkeys(v for u in image_elements(rep, m, budgets) for v in (u, -u)))
    check_closure_cap(len(elements), budgets, f"the sign-saturated subgroup image mod {m}")
    return subgroup_from_elements(elements)


def h_prime_group_words(rep: PermRep) -> list:
    """Ambient generator words of the subgroup attached to ``rep``, sign-saturated."""
    words = [GroupWord.of_word(w) for w in subgroup_generators(rep)]
    words.append(GroupWord.of_word(ModularWord.from_str("SS")))
    return words


def l_group_words(rep: PermRep) -> list:
    """Ambient generator words of L, the additive part extended by the subgroup of ``rep``."""
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    return [GroupWord.of_a(Mat2.ambient(*e)) for e in units] + h_prime_group_words(rep)


def evidence_entry(
    rep: PermRep, m: int, point: int, g: GroupWord, budgets: Budgets | None = None, walks: Optional[dict] = None
) -> dict:
    """The level-m transcript entry of the evidence: whether x mod m lies in
    the sign-saturated image of H', where x carries the basepoint of ``rep``
    to ``point``, and that image's order, both read off ``image_blocks``.

    At the smallest levels the image is listed and membership is
    cross-checked against the direct membership of the image of g in the
    image of H'K, which must agree.
    """
    blocks = image_blocks(rep, m, budgets, walks)
    member = blocks[point] == 0
    order = sl2_group_order(m) // len(set(blocks))
    check_closure_cap(order, budgets, f"the sign-saturated subgroup image mod {m}")
    entry = {"m": m, "member": member, "image_order": order}
    if m <= _CROSS_CHECK_MAX:
        spec = QuotientSpec.make(m)
        image = _h_prime_image_mod(rep, m, budgets)
        im_hp = subgroup_from_elements(SdElement(Mat2.zero(m), u, None) for u in image.elements)
        im_k = gs_build(spec, budgets).im_k
        direct = product_member(quotient_context(spec), project(g, spec), im_hp, im_k)
        entry["double_coset_member"] = direct
        if direct != member:
            raise ValidationError(f"reduced membership and double-coset membership disagree at level {m}")
    return entry


def gs_wz_failure(
    rep: PermRep,
    m_max: int = 24,
    *,
    witness_level: int = 24,
    budgets: Budgets | None = None,
) -> NonSepEvidence:
    """Assemble non-separability evidence for H'K from a congruence-gap subgroup.

    The witness x comes from the principal congruence subgroup of
    ``witness_level`` and moves the basepoint of ``rep``; g = (x - I, 1)
    then lies in H'K exactly when x lies in H', so g is outside H'K.  At a
    congruence level m, membership of the image of g in the image of H'K
    reduces to membership of x mod m in the matrix image of H', which is
    what each transcript records (with a direct double-coset cross-check at
    the smallest levels).  A congruence ``rep`` has no witness and raises
    PreconditionError.  The witness search and the transcript share one
    ``walks`` dict, so each level gcd(m, N) is walked once per call.
    """
    budgets = active_budgets(budgets)
    walks: dict = {}
    witness = congruence_gap_witness(rep, witness_level, m_max=m_max, budgets=budgets, walks=walks)
    x = witness.x
    g = GroupWord.of_a(x - Mat2.identity())
    if rep_contains(rep, witness.word):
        raise ValidationError("witness unexpectedly lies in the subgroup")

    transcripts = [evidence_entry(rep, m, witness.displaced_to, g, budgets, walks) for m in range(2, m_max + 1)]
    return NonSepEvidence(
        rep=rep,
        witness=witness,
        g=g,
        level_transcripts=transcripts,
        levels=tuple(entry["m"] for entry in transcripts if entry["member"]),
        witness_level=witness_level,
        towers_used=(
            f"congruence levels 2..{m_max}; quotients carrying the coset action of "
            "the subgroup itself are excluded from the evidence tower"
        ),
        conclusion=_CONCLUSION,
        status="evidence",
    )
