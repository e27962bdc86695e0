"""Command-line front door.

Every subcommand writes one canonical JSON report (sorted keys, numbers as
decimal strings), so identical invocations produce identical bytes, and the
``verify`` subcommand re-checks a report's certificates and evidence without
re-running any search.  Exit codes: 0 completed (including inconclusive
outcomes), 2 precondition or validation failure, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import Mat2, psl2_group_order, sl2_group_order
from .budgets import Budgets, active_budgets
from .errors import BudgetError, CosetopeError, PreconditionError, ValidationError
from .groupcore import check_closure_cap, product_member, subgroup_intersection
from .gs import (
    _h_prime_image_mod,
    evidence_entry,
    gs_build,
    gs_hk_member,
    gs_hk_witness,
    gs_intersection,
    gs_wz_failure,
    l_group_words,
)
from .modular import (
    GapWitness,
    ModularWord,
    PermRep,
    congruence_gap_witness,
    in_image_mod,
    is_congruence,
    low_index_reps,
    rep_image_mod,
    rep_level,
    word_eval,
)
# kernel_of_refinement is called only inside profinite; importing it here keeps
# it a cross-module function, which bench/tracer.py times as profinite.kernel_s.
from .profinite import (
    GroupWord,
    QuotientSpec,
    default_tower,
    image_subgroup,
    kernel_of_refinement,  # noqa: F401
    load_rep,
    load_tower,
    probe_level,
    project,
    quotient_context,
    spec_group_order,
    thm_b_probe,
    tractable_at,
    tractable_candidate,
)
from . import report as rpt


# ---------------------------------------------------------------------------
# input helpers


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from exc


def _load_gens(path: str) -> list:
    data = _read_json(path)
    if not isinstance(data, list):
        raise ValidationError(f"{path!r}: a generator file holds a JSON list of elements")
    return [rpt.groupword_from_json(entry) for entry in data]


def _parse_element(text: str) -> GroupWord:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad element JSON: {exc}") from exc
    return rpt.groupword_from_json(data)


def _spec_of(config: dict) -> QuotientSpec:
    rep = load_rep(config["rep"]) if config.get("rep") else None
    return QuotientSpec.make(rpt.parse_int(config["modulus"]), rep)


def _budgets_of(args) -> Budgets:
    base = active_budgets()
    closure = getattr(args, "closure_cap", None)
    product = getattr(args, "product_cap", None)
    return Budgets(
        closure_cap=base.closure_cap if closure is None else closure,
        product_cap=base.product_cap if product is None else product,
    )


def _emit(args, command: str, config: dict, result) -> None:
    text = rpt.canonical_dumps(rpt.envelope(command, config, result))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
#
# The cheap subcommands compute their result from the recorded config alone,
# so ``verify`` recomputes it with the same function and compares.


def _quotient_result(config: dict, budgets: Budgets) -> dict:
    spec = _spec_of(config)
    order = spec_group_order(spec)
    result = {
        "identity": rpt.sd_to_json(quotient_context(spec).identity),
        "order": order,
        "sl2_order": sl2_group_order(spec.m),
    }
    if config["enumerate"] or order is None:
        if order is not None:
            check_closure_cap(order, budgets, f"quotient mod {spec.m}")
        result["enumerated_order"] = len(quotient_context(spec).enumerate(budgets))
    return result


def _image_result(config: dict, budgets: Budgets) -> dict:
    sub = image_subgroup(_load_gens(config["gens"]), _spec_of(config), budgets)
    return {"size": len(sub), "sample": [rpt.sd_to_json(x) for x in sub.elements[:20]]}


def _intersect_result(config: dict, budgets: Budgets) -> dict:
    spec = _spec_of(config)
    left = image_subgroup(_load_gens(config["left"]), spec, budgets)
    right = image_subgroup(_load_gens(config["right"]), spec, budgets)
    inter = subgroup_intersection(left, right)
    result = {"size_left": len(left), "size_right": len(right), "size_intersection": len(inter)}
    if len(inter) <= 50:
        result["elements"] = [rpt.sd_to_json(x) for x in inter.elements]
    return result


def _dcoset_result(config: dict, budgets: Budgets) -> dict:
    spec = _spec_of(config)
    g = _parse_element(config["element"])
    left = image_subgroup(_load_gens(config["left"]), spec, budgets)
    right = image_subgroup(_load_gens(config["right"]), spec, budgets)
    return {
        "member": product_member(quotient_context(spec), project(g, spec), left, right),
        "size_left": len(left),
        "size_right": len(right),
        "element": rpt.groupword_to_json(g),
    }


def _congruence_result(config: dict, budgets: Budgets) -> dict:
    rep = load_rep(config["rep"])
    level = rep_level(rep)
    result = {"degree": rep.degree, "level": level, "congruence": is_congruence(rep, budgets=budgets)}
    if level > 1:
        result["image_index"] = psl2_group_order(level) // len(rep_image_mod(rep, level, budgets))
    return result


_RECOMPUTED = {
    "quotient": _quotient_result,
    "image": _image_result,
    "intersect": _intersect_result,
    "dcoset-member": _dcoset_result,
    "congruence": _congruence_result,
}


def _run(args, command: str, config: dict) -> int:
    _emit(args, command, config, _RECOMPUTED[command](config, _budgets_of(args)))
    return 0


def _cmd_quotient(args) -> int:
    config = {"modulus": args.modulus, "rep": args.rep, "enumerate": bool(args.enumerate), "seed": args.seed}
    return _run(args, "quotient", config)


def _cmd_image(args) -> int:
    return _run(args, "image", {"modulus": args.modulus, "rep": args.rep, "gens": args.gens, "seed": args.seed})


def _cmd_intersect(args) -> int:
    config = {"modulus": args.modulus, "rep": args.rep, "left": args.left, "right": args.right, "seed": args.seed}
    return _run(args, "intersect", config)


def _cmd_dcoset_member(args) -> int:
    config = {
        "modulus": args.modulus,
        "rep": args.rep,
        "element": args.element,
        "left": args.left,
        "right": args.right,
        "seed": args.seed,
    }
    return _run(args, "dcoset-member", config)


def _cmd_congruence(args) -> int:
    return _run(args, "congruence", {"rep": args.rep, "seed": args.seed})


def _cmd_tractable(args) -> int:
    budgets = _budgets_of(args)
    try:
        m_spec = rpt.spec_from_json(json.loads(args.m_spec))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--m-spec takes inline JSON like '{{\"m\": 2}}': {exc}") from exc
    candidates = load_tower(args.tower) if args.tower else default_tower()
    outcome = tractable_at(
        _load_gens(args.h_gens),
        _load_gens(args.k_gens),
        _load_gens(args.hcapk_gens) if args.hcapk_gens else [],
        m_spec,
        candidates,
        budgets,
    )
    config = {
        "h_gens": args.h_gens,
        "k_gens": args.k_gens,
        "hcapk_gens": args.hcapk_gens,
        "m_spec": args.m_spec,
        "tower": args.tower,
        "seed": args.seed,
    }
    _emit(args, "tractable", config, rpt.tractability_to_json(outcome))
    return 0


def _probe_gens(config: dict) -> tuple:
    """Generators of H, K and L for thm-b-probe; L is None for the whole group."""
    l_gens = None
    if config.get("l_gens"):
        l_gens = _load_gens(config["l_gens"])
    elif config.get("l_rep"):
        l_gens = l_group_words(load_rep(config["l_rep"]))
    return _load_gens(config["h_gens"]), _load_gens(config["k_gens"]), l_gens


def _cmd_thm_b_probe(args) -> int:
    config = {
        "h_gens": args.h_gens,
        "k_gens": args.k_gens,
        "l_gens": args.l_gens,
        "l_rep": args.l_rep,
        "element": args.element,
        "tower": args.tower,
        "seed": args.seed,
    }
    h_gens, k_gens, l_gens = _probe_gens(config)
    g = _parse_element(args.element)
    tower = load_tower(args.tower) if args.tower else default_tower()
    cert = thm_b_probe(h_gens, k_gens, l_gens, g, tower, _budgets_of(args))
    if cert is None:
        result = {
            "status": "inconclusive",
            "tower": [rpt.spec_to_json(s) for s in tower],
        }
    else:
        result = {"status": "certified", "certificate": rpt.certificate_to_json(cert)}
    _emit(args, "thm-b-probe", config, result)
    return 0


def _cmd_lowindex(args) -> int:
    budgets = _budgets_of(args)
    reps = low_index_reps(args.max_degree, classes=not args.subgroups)
    entries = [
        {"rep": rep.to_json(), "level": rep_level(rep), "congruence": is_congruence(rep, budgets=budgets)}
        for rep in reps
    ]
    config = {"max_degree": args.max_degree, "subgroups": bool(args.subgroups), "seed": args.seed}
    result = {"count": len(entries), "reps": entries}
    _emit(args, "lowindex", config, result)
    return 0


def _cmd_gap_witness(args) -> int:
    rep = load_rep(args.rep)
    witness = congruence_gap_witness(rep, args.level, m_max=args.m_max, budgets=_budgets_of(args))
    config = {"rep": args.rep, "level": args.level, "m_max": args.m_max, "seed": args.seed}
    if witness is None:
        result = {"status": "inconclusive"}
    else:
        result = {"status": "found", "witness": rpt.witness_to_json(witness)}
    _emit(args, "gap-witness", config, result)
    return 0


_HK_SAMPLES = (
    GroupWord.of_a(Mat2.ambient(2, 0, 0, 2)),
    GroupWord.of_a(Mat2.ambient(0, -1, 1, 0)),
    GroupWord(Mat2.identity(), ModularWord.from_str("T")),
    GroupWord.of_a(Mat2.zero()),
)


def _intersection_table(max_level: int, budgets: Budgets) -> list:
    """The order of image(H) meet image(K) at each level 2..max_level."""
    return [
        {"m": m, "size": len(gs_intersection(gs_build(QuotientSpec.make(m), budgets)))}
        for m in range(2, max_level + 1)
    ]


def _cmd_gs_demo(args) -> int:
    budgets = _budgets_of(args)
    config = {
        "max_level": args.max_level,
        "m_max": args.m_max,
        "max_degree": args.max_degree,
        "seed": args.seed,
    }
    intersections = _intersection_table(args.max_level, budgets)

    certificates = []
    for g in _HK_SAMPLES:
        cert = gs_hk_witness(g)
        if cert is None:
            certificates.append(
                {"element": rpt.groupword_to_json(g), "status": "inconclusive"}
            )
        else:
            certificates.append(
                {
                    "element": rpt.groupword_to_json(g),
                    "status": "certified",
                    "certificate": rpt.certificate_to_json(cert),
                }
            )

    reps = low_index_reps(args.max_degree)
    noncongruence = [rep for rep in reps if not is_congruence(rep, budgets=budgets)]
    lowindex = {
        "max_degree": args.max_degree,
        "reps_total": len(reps),
        "noncongruence_total": len(noncongruence),
    }
    if noncongruence:
        selected = noncongruence[0]
        lowindex["selected"] = selected.to_json()
        evidence = gs_wz_failure(selected, args.m_max, budgets=budgets)
        evidence_json = rpt.evidence_to_json(evidence)
    else:
        evidence_json = {"status": "no-noncongruence-subgroup-found"}

    result = {
        "intersections": intersections,
        "hk_certificates": certificates,
        "lowindex": lowindex,
        "evidence": evidence_json,
    }
    _emit(args, "gs-demo", config, result)
    return 0


# ---------------------------------------------------------------------------
# verify
#
# Each check calls the same per-level (or per-candidate) function as the
# search that produced the report, on the levels the report records.


def _require_match(claimed, recomputed, what: str) -> None:
    if claimed == recomputed:
        return
    if isinstance(claimed, dict) and isinstance(recomputed, dict):
        keys = sorted(k for k in claimed.keys() | recomputed.keys() if claimed.get(k) != recomputed.get(k))
        claimed, recomputed = ({k: d.get(k) for k in keys} for d in (claimed, recomputed))
    raise ValidationError(f"verify failed: {what}: report says {claimed!r}, recomputed {recomputed!r}")


def _verify_probe(config: dict, result: dict, budgets: Budgets) -> None:
    if result.get("status") != "certified":
        return
    data = result["certificate"]
    cert = rpt.certificate_from_json(data)
    recomputed = probe_level(*_probe_gens(config), cert.element, cert.spec, budgets)
    if recomputed is None:
        raise ValidationError(f"verify failed: the element is not excluded at modulus {cert.spec.m}")
    _require_match(data, rpt.as_recorded(rpt.certificate_to_json(recomputed)), "probe certificate")


def _verify_witness(data: dict, rep: PermRep, budgets: Budgets) -> GapWitness:
    witness = rpt.witness_from_json(data)
    _require_match(rpt.mat_to_json(witness.x), rpt.mat_to_json(word_eval(witness.word)), "witness matrix vs word")
    _require_match(witness.displaced_to, rep.word_point(witness.word), "witness basepoint displacement")
    if witness.displaced_to == 0:
        raise ValidationError("verify failed: witness does not leave the subgroup")
    for m in witness.levels_verified:
        _require_match(True, in_image_mod(rep, witness.x, m, budgets), f"witness level {m}")
    return witness


def _verify_evidence(data: dict, budgets: Budgets) -> None:
    if data.get("status") != "evidence":
        return
    rep = PermRep.from_json(data["rep"])
    if is_congruence(rep, budgets=budgets):
        raise ValidationError("verify failed: evidence subgroup is congruence")
    witness = _verify_witness(data["witness"], rep, budgets)
    g = GroupWord.of_a(witness.x - Mat2.identity())
    _require_match(data["g"], rpt.as_recorded(rpt.groupword_to_json(g)), "evidence element")
    level = rpt.parse_int(data["witness_level"])
    if witness.x.reduce(level) != Mat2.identity(level):
        raise ValidationError("verify failed: witness is not trivial at its search level")
    for entry in data["level_transcripts"]:
        m = rpt.parse_int(entry["m"])
        recomputed = evidence_entry(_h_prime_image_mod(rep, m, budgets), witness.x, g, m, budgets)
        _require_match(entry, rpt.as_recorded(recomputed), f"evidence transcript at level {m}")
    passing = [e["m"] for e in data["level_transcripts"] if e["member"]]
    _require_match(data["levels"], passing, "recorded passing levels")


def _verify_tractable(config: dict, result: dict, budgets: Budgets) -> None:
    if result.get("found") is None:
        return
    h_gens, k_gens, hcapk_gens = (
        [rpt.groupword_from_json(e) for e in result[key]] for key in ("h_gens", "k_gens", "hcapk_gens")
    )
    m_spec = rpt.spec_from_json(result["m_spec"])
    found = rpt.spec_from_json(result["found"])
    entry, _ = tractable_candidate(h_gens, k_gens, hcapk_gens, m_spec, found, budgets)
    _require_match("ok", entry["status"], "status of the recorded success")
    recomputed = rpt.as_recorded(rpt.tractability_entry_to_json(entry))
    _require_match(result["entries"][-1], recomputed, "entry of the recorded success")


def _verify_gs_demo(config: dict, result: dict, budgets: Budgets) -> None:
    table = _intersection_table(rpt.parse_int(config["max_level"]), budgets)
    _require_match(result["intersections"], rpt.as_recorded(table), "intersection table")
    for entry in result["hk_certificates"]:
        if entry["status"] == "certified":
            cert = rpt.certificate_from_json(entry["certificate"])
            if cert.target != "HK":
                raise ValidationError(f"verify: unknown certificate target {cert.target!r}")
            _require_match(False, gs_hk_member(cert.element, cert.spec.m), f"HK membership at modulus {cert.spec.m}")
        elif gs_hk_witness(rpt.groupword_from_json(entry["element"])) is not None:
            raise ValidationError("verify failed: inconclusive element has a certificate")
    if "selected" in result["lowindex"]:
        if is_congruence(PermRep.from_json(result["lowindex"]["selected"]), budgets=budgets):
            raise ValidationError("verify failed: selected subgroup is congruence")
    _verify_evidence(result["evidence"], budgets)


def _verify_lowindex(config: dict, result: dict, budgets: Budgets) -> None:
    for entry in result["reps"]:
        rep = PermRep.from_json(entry["rep"])
        _require_match(rpt.parse_int(entry["level"]), rep_level(rep), "level")
        _require_match(entry["congruence"], is_congruence(rep, budgets=budgets), "congruence verdict")


def _verify_gap_witness(config: dict, result: dict, budgets: Budgets) -> None:
    if result.get("status") == "found":
        _verify_witness(result["witness"], load_rep(config["rep"]), budgets)


def _verify_recomputed(command: str):
    def check(config: dict, result: dict, budgets: Budgets) -> None:
        _require_match(result, rpt.as_recorded(_RECOMPUTED[command](config, budgets)), f"{command} result")

    return check


_CHECKS = {
    "gs-demo": _verify_gs_demo,
    "gap-witness": _verify_gap_witness,
    "lowindex": _verify_lowindex,
    "tractable": _verify_tractable,
    "thm-b-probe": _verify_probe,
    **{command: _verify_recomputed(command) for command in _RECOMPUTED},
}


def _cmd_verify(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read report {args.report!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"report is not valid JSON: {exc}") from exc
    if rpt.canonical_dumps(data) != text:
        raise ValidationError("verify failed: report is not in canonical form (bytes differ)")
    if not isinstance(data, dict):
        raise ValidationError("verify failed: a report is a JSON object")
    if rpt.parse_int(data.get("schema", 0)) != rpt.SCHEMA_VERSION:
        raise ValidationError(f"verify failed: unsupported schema {data.get('schema')!r}")
    command = data.get("command")
    if command not in _CHECKS:
        raise ValidationError(f"verify: unknown command {command!r}")
    try:
        _CHECKS[command](data.get("config", {}), data.get("result", {}), _budgets_of(args))
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValidationError(f"verify failed: malformed {command} report ({exc!r})") from exc
    _emit(args, "verify", {"report": args.report, "seed": args.seed}, {"verified": True, "checked": command})
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetope",
        description="Finite-quotient workbench for double coset separability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="report file (default: stdout)")
        p.add_argument("--seed", type=int, default=0, help="recorded in the report")
        p.add_argument("--closure-cap", type=int, default=None)
        p.add_argument("--product-cap", type=int, default=None)

    p = sub.add_parser("quotient", help="describe one finite quotient")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--rep", default=None, help="permutation representation file")
    p.add_argument("--enumerate", action="store_true", help="force a closure count")
    common(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("image", help="image of a generated subgroup in a quotient")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--rep", default=None)
    p.add_argument("--gens", required=True, help="JSON list of group elements")
    common(p)
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("intersect", help="intersection of two subgroup images")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--rep", default=None)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    common(p)
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("dcoset-member", help="double-coset membership at one level")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--rep", default=None)
    p.add_argument("--element", required=True, help="inline JSON element")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    common(p)
    p.set_defaults(func=_cmd_dcoset_member)

    p = sub.add_parser("tractable", help="inclusion search over candidate quotients")
    p.add_argument("--h-gens", required=True)
    p.add_argument("--k-gens", required=True)
    p.add_argument("--hcapk-gens", default=None)
    p.add_argument("--m-spec", required=True, help="inline JSON quotient spec")
    p.add_argument("--tower", default=None, help="candidate tower file")
    common(p)
    p.set_defaults(func=_cmd_tractable)

    p = sub.add_parser("thm-b-probe", help="separability probe for (H meet L)K")
    p.add_argument("--h-gens", required=True)
    p.add_argument("--k-gens", required=True)
    p.add_argument("--l-gens", default=None)
    p.add_argument("--l-rep", default=None, help="build L as additive part x| subgroup")
    p.add_argument("--element", required=True)
    p.add_argument("--tower", default=None)
    common(p)
    p.set_defaults(func=_cmd_thm_b_probe)

    p = sub.add_parser("lowindex", help="enumerate low-index subgroup representations")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--subgroups", action="store_true", help="one table per subgroup, not per class")
    common(p)
    p.set_defaults(func=_cmd_lowindex)

    p = sub.add_parser("congruence", help="congruence verdict for one representation")
    p.add_argument("--rep", required=True)
    common(p)
    p.set_defaults(func=_cmd_congruence)

    p = sub.add_parser("gap-witness", help="congruence-gap witness search")
    p.add_argument("--rep", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--m-max", type=int, default=24)
    common(p)
    p.set_defaults(func=_cmd_gap_witness)

    p = sub.add_parser("gs-demo", help="end-to-end example report")
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--m-max", type=int, default=24)
    p.add_argument("--max-degree", type=int, default=7)
    common(p)
    p.set_defaults(func=_cmd_gs_demo)

    p = sub.add_parser("verify", help="re-check a report without re-running searches")
    p.add_argument("--report", required=True)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except CosetopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
