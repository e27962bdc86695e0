"""The golden cases: each fixture in ``tests/golden`` and the command that writes it.

The fixtures were written by the implementation that preceded the shared
per-level checks; the schema-2 change edited only their ``schema`` line and
dropped the ``seed`` config key.  ``gap_witness_level3.json`` was written by
the coset-carrying walk, at a level the subgroup's own level does not divide.
The fixtures of the other commands (``image.json`` through
``thm_b_inconclusive.json``) were written by the per-type serializers that
preceded ``report.as_recorded``, so each result type is pinned to the bytes
it had before every report value went through that one function.
``gs_demo_m32.json`` was written by the implementation that still listed
SL2(Z/m) to intersect the images of H and K at each level, before the table
recorded the closed form.
``lowindex_subgroups.json`` was written by the relator-deduction coset-table
search, before the low-index subgroups were listed as transitive actions of
C2 * C3.  ``tractable_reps.json`` was written while refinement was still
decided by Schreier generator words and restriction by a second walk over
the points, before both were read off one point map.
``tractable_action_violation.json`` was written while refinement kernels
were still listed element by element, before the inclusion was tested
through the restriction map.  ``lowindex_12.json`` was written while
``low_index_reps`` still standardized every subgroup from every basepoint,
before each class was standardized once.  ``thm_b_l_rep.json``, the only
case through ``thm_b_probe``'s L branch, and ``tractable_bad_hcapk.json``, the
only case whose claimed generators of H meet K fail ``tractable_at``'s
precondition, were written while the closure cap could still be set from the
environment, before ``--closure-cap`` became the one way to set it.
The schema-3 change, which dropped the evidence's ``double_coset_member``,
edited only their ``schema`` line and removed that key from the transcript
entries at m = 2, 3 and 4 of ``gs_demo.json`` and ``gs_demo_m32.json``.
``congruence_level105.json`` was written by the block walk that stops once
one block is left; the walk over all of PSL2(Z/105) writes the same bytes.
The schema-4 change, which records every input in the config instead of its
path and drops the witness's ``levels_verified`` and ``gap-witness
--m-max``, regenerated every fixture.
The schema-5 change, which gives every quotient its order in closed form
and drops ``quotient --enumerate``, edited only the ``schema`` line of every
fixture; ``quotient_nc_rep.json``, a quotient carrying a coset action,
replaced ``quotient_enumerate.json``, whose ``enumerated_order`` no report
writes any more.
The schema-6 change, which records every default in the config and drops
from each result what the config already says, regenerated every fixture;
``thm_b_certified.json`` now records the default tower in its config.
``tractable_ok.json`` was rewritten when the pro-p spec filter was deleted,
since no quotient it admitted was a p-group: its ``--m-spec`` lost the
filter, so its entry at m = 3, once outside the filter, now fails to refine
the target instead.  Every recorded spec still holds ``"filter": null``.
``regen_golden.py`` rewrites the fixtures from the current code.

Each command runs inside ``tests/golden`` with relative input paths; the
report records the inputs read, not the paths.  The module imports no test
framework, so ``regen_golden.py`` runs without pytest.
"""

from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

_TWO_I = '{"a": {"rows": [["2", "0"], ["0", "2"]], "m": null}, "w": ""}'

CASES = {
    "gs_demo.json": ["gs-demo", "--max-level", "3", "--m-max", "8"],
    # the benchmark's evidence configuration, with the default --max-level 8
    "gs_demo_m32.json": ["gs-demo", "--m-max", "32"],
    "tractable_ok.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "k.json", "--hcapk-gens", "empty.json",
        "--m-spec", '{"m": 4}', "--tower", "tower_ok.json",
    ],
    # restriction between two coset actions: the degree-6 action maps onto
    # the degree-3 one, and the degree-3 and degree-2 entries do not refine it
    "tractable_reps.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "h.json", "--hcapk-gens", "h.json",
        "--m-spec", '{"m": 2, "rep": {"degree": 3, "s": [0, 2, 1], "t": [1, 0, 2]}}', "--tower", "tower_reps.json",
    ],
    # a candidate carrying a coset action with violations: the degree-6
    # action's permutation part decides which elements restrict into the
    # image of H meet K, which is trivial here
    "tractable_action_violation.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "h.json", "--hcapk-gens", "empty.json",
        "--m-spec", '{"m": 2}', "--tower", "tower_action.json",
    ],
    "tractable_violation.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "h.json", "--hcapk-gens", "empty.json",
        "--m-spec", '{"m": 4}', "--tower", "tower_violation.json",
    ],
    # claimed generators of H meet K that are not in image(K): every
    # candidate fails its precondition and the search finds nothing
    "tractable_bad_hcapk.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "k.json", "--hcapk-gens", "h.json",
        "--m-spec", '{"m": 2}', "--tower", "tower_violation.json",
    ],
    "gap_witness.json": ["gap-witness", "--rep", "nc_rep.json", "--level", "24"],
    "gap_witness_level3.json": ["gap-witness", "--rep", "nc_rep.json", "--level", "3"],
    # nc_rep's coset action of Gamma(2) has order 2,520, so the quotient has
    # 2^4 * 6 * 2,520 elements, none of them listed
    "quotient_nc_rep.json": ["quotient", "--modulus", "2", "--rep", "nc_rep.json"],
    "image.json": ["image", "--modulus", "3", "--gens", "h.json"],
    "intersect.json": ["intersect", "--modulus", "3", "--left", "h.json", "--right", "k.json"],
    "dcoset_member.json": [
        "dcoset-member", "--modulus", "3", "--element", _TWO_I, "--left", "h.json", "--right", "k.json",
    ],
    "congruence.json": ["congruence", "--rep", "nc_rep.json"],
    # level 105, above the largest level of degree 12 and below: the block
    # walk over PSL2(Z/105) stops at its first edge, which joins all points
    "congruence_level105.json": ["congruence", "--rep", "level105_rep.json"],
    "lowindex.json": ["lowindex", "--max-degree", "5"],
    "lowindex_subgroups.json": ["lowindex", "--max-degree", "6", "--subgroups"],
    # 175 classes: the largest degree the command accepts
    "lowindex_12.json": ["lowindex", "--max-degree", "12"],
    # det(2I + I) = 9 is first excluded at modulus 3, which the default tower
    # reaches; tower_violation.json holds only 2, 4 and 8
    "thm_b_certified.json": ["thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--element", _TWO_I],
    "thm_b_inconclusive.json": [
        "thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--element", _TWO_I,
        "--tower", "tower_violation.json",
    ],
    # L built from nc_rep's coset action: each level also checks that
    # image(H) meet image(K) lies inside image(L); certified at m = 3
    "thm_b_l_rep.json": [
        "thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--element", _TWO_I,
        "--l-rep", "nc_rep.json", "--tower", "tower_small.json",
    ],
}
