"""The matrix semidirect-product example, end to end.

The ambient group is the additive 2x2 integer matrices acted on by the
determinant-1 group through left multiplication.  With H the determinant-1
part and K its conjugate by the identity matrix i of the additive part,
H meet K is trivial, and so is the meet of their images at every level: a
common element (0, h) = (I - h', h') forces h = h' = I.  The double coset
HK is cut out by a determinant criterion that certifies separability level
by level.  A finite-index
subgroup with a congruence gap then produces desk-scale evidence that the
double coset H'K admits no such certificates: a concrete element outside
H'K whose image lies inside the image of H'K at every tested congruence
level.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .arith import Mat2, sl2_group_order
from .budgets import Budgets
from .errors import ValidationError
from .groupcore import (
    GeneratedSubgroup,
    SdElement,
    check_closure_cap,
    product_member,
    subgroup_from_elements,
)
from .modular import (
    ONE_POINT,
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


def _h_prime_image_mod(rep: PermRep, m: int, budgets: Budgets = Budgets(), walks=None) -> GeneratedSubgroup:
    """Image of the (sign-saturated) subgroup of H attached to ``rep`` at level m.

    Listed without a closure (``image_elements``), each u with -u (which
    coincide only at m = 2); only ``evidence_entry``'s cross-check needs it,
    for H' and, through ``ONE_POINT``, for all of H.
    """
    elements = tuple(dict.fromkeys(v for u in image_elements(rep, m, budgets, walks) for v in (u, -u)))
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


def evidence_entry(rep: PermRep, m: int, point: int, g: GroupWord, budgets: Budgets, walks: dict) -> dict:
    """The level-m transcript entry of the evidence: whether x mod m lies in
    the sign-saturated image of H', where x carries the basepoint of ``rep``
    to ``point``, and that image's order, both read off ``image_blocks``.

    At the smallest levels the image is listed and membership is
    cross-checked against the direct membership of the image of g in the
    image of H'K, which must agree.  image(K) = i image(H) i^-1 is listed as
    the pairs (I - h, h), h over SL2(Z/m), whose order is checked first.
    """
    blocks = image_blocks(rep, m, budgets, walks)
    member = blocks[point] == 0
    order = sl2_group_order(m) // len(set(blocks))
    check_closure_cap(order, budgets, f"the sign-saturated subgroup image mod {m}")
    entry = {"m": m, "member": member, "image_order": order}
    if m <= _CROSS_CHECK_MAX:
        spec = QuotientSpec.make(m)
        image = _h_prime_image_mod(rep, m, budgets, walks)
        im_hp = subgroup_from_elements(SdElement(Mat2.zero(m), u, None) for u in image.elements)
        check_closure_cap(sl2_group_order(m), budgets, f"the image of H mod {m}")
        ident = Mat2.identity(m)
        im_k = subgroup_from_elements(
            SdElement(ident - h, h, None) for h in _h_prime_image_mod(ONE_POINT, m, budgets, walks).elements
        )
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
    budgets: Budgets = Budgets(),
) -> NonSepEvidence:
    """Assemble non-separability evidence for H'K from a congruence-gap subgroup.

    The witness x comes from the principal congruence subgroup of
    ``witness_level`` and moves the basepoint of ``rep``; g = (x - I, 1)
    then lies in H'K exactly when x lies in H', so g is outside H'K.  At a
    congruence level m, membership of the image of g in the image of H'K
    reduces to membership of x mod m in the matrix image of H', which is
    what each transcript records (with a direct double-coset cross-check at
    the smallest levels).  A congruence ``rep`` has no witness and raises
    PreconditionError.  One ``walks`` dict walks each level gcd(m, N) once
    per call.
    """
    walks: dict = {}
    witness = congruence_gap_witness(rep, witness_level, m_max=m_max, budgets=budgets, walks=walks)
    x = witness.x
    g = GroupWord.of_a(x - Mat2.identity())
    if rep_contains(rep, witness.word):
        raise ValidationError("witness unexpectedly lies in the subgroup")

    point = witness.displaced_to
    transcripts = [evidence_entry(rep, m, point, g, budgets, walks) for m in range(2, m_max + 1)]
    return NonSepEvidence(
        rep=rep,
        witness=witness,
        g=g,
        level_transcripts=transcripts,
        levels=witness.levels_verified,
        witness_level=witness_level,
        towers_used=(
            f"congruence levels 2..{m_max}; quotients carrying the coset action of "
            "the subgroup itself are excluded from the evidence tower"
        ),
        conclusion=_CONCLUSION,
        status="evidence",
    )
