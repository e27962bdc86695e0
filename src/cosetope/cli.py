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

from .arith import Mat2, sl2_group_order
from .budgets import Budgets, active_budgets
from .errors import BudgetError, CosetopeError, PreconditionError, ValidationError
from .groupcore import SdElement, product_member, subgroup_from_elements, subgroup_intersection
from .gs import (
    _h_prime_image_mod,
    gs_build,
    gs_hk_member,
    gs_hk_witness,
    gs_intersection,
    gs_wz_failure,
    h_prime_group_words,
)
from .modular import (
    ModularWord,
    PermRep,
    congruence_gap_witness,
    is_congruence,
    low_index_reps,
    psl2_context,
    rep_image_mod,
    rep_level,
    word_eval,
)
from .profinite import (
    GroupWord,
    QuotientSpec,
    default_tower,
    image_subgroup,
    kernel_of_refinement,
    load_rep,
    load_tower,
    project,
    quotient_context,
    spec_group_order,
    thm_b_probe,
    tractable_at,
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


def _spec_of(args) -> QuotientSpec:
    rep = load_rep(args.rep) if getattr(args, "rep", None) else None
    return QuotientSpec.make(args.modulus, rep)


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


def _cmd_quotient(args) -> int:
    spec = _spec_of(args)
    config = {"modulus": args.modulus, "rep": args.rep, "enumerate": bool(args.enumerate), "seed": args.seed}
    order = spec_group_order(spec)
    result = {
        "identity": rpt.sd_to_json(quotient_context(spec).identity),
        "order": order,
        "sl2_order": sl2_group_order(spec.m),
    }
    if args.enumerate or order is None:
        budgets = _budgets_of(args)
        if order is not None and order > budgets.closure_cap:
            raise BudgetError(
                f"closure budget exceeded: quotient mod {spec.m} has {order} elements "
                f"> {budgets.closure_cap} (closure_cap)"
            )
        full = quotient_context(spec).enumerate(budgets)
        result["enumerated_order"] = len(full)
    _emit(args, "quotient", config, result)
    return 0


def _cmd_image(args) -> int:
    spec = _spec_of(args)
    gens = _load_gens(args.gens)
    sub = image_subgroup(gens, spec, _budgets_of(args))
    config = {"modulus": args.modulus, "rep": args.rep, "gens": args.gens, "seed": args.seed}
    result = {
        "size": len(sub),
        "sample": [rpt.sd_to_json(x) for x in sub.elements[:20]],
    }
    _emit(args, "image", config, result)
    return 0


def _cmd_intersect(args) -> int:
    spec = _spec_of(args)
    budgets = _budgets_of(args)
    left = image_subgroup(_load_gens(args.left), spec, budgets)
    right = image_subgroup(_load_gens(args.right), spec, budgets)
    inter = subgroup_intersection(left, right)
    config = {
        "modulus": args.modulus,
        "rep": args.rep,
        "left": args.left,
        "right": args.right,
        "seed": args.seed,
    }
    result = {
        "size_left": len(left),
        "size_right": len(right),
        "size_intersection": len(inter),
    }
    if len(inter) <= 50:
        result["elements"] = [rpt.sd_to_json(x) for x in inter.elements]
    _emit(args, "intersect", config, result)
    return 0


def _cmd_dcoset_member(args) -> int:
    spec = _spec_of(args)
    budgets = _budgets_of(args)
    g = _parse_element(args.element)
    left = image_subgroup(_load_gens(args.left), spec, budgets)
    right = image_subgroup(_load_gens(args.right), spec, budgets)
    member = product_member(quotient_context(spec), project(g, spec), left, right)
    config = {
        "modulus": args.modulus,
        "rep": args.rep,
        "element": args.element,
        "left": args.left,
        "right": args.right,
        "seed": args.seed,
    }
    result = {
        "member": member,
        "size_left": len(left),
        "size_right": len(right),
        "element": rpt.groupword_to_json(g),
    }
    _emit(args, "dcoset-member", config, result)
    return 0


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


def _cmd_thm_b_probe(args) -> int:
    budgets = _budgets_of(args)
    l_gens = None
    if args.l_gens:
        l_gens = _load_gens(args.l_gens)
    elif args.l_rep:
        l_gens = h_prime_group_words(load_rep(args.l_rep))
        l_gens = _a_part_gens() + l_gens
    g = _parse_element(args.element)
    tower = load_tower(args.tower) if args.tower else default_tower()
    cert = thm_b_probe(_load_gens(args.h_gens), _load_gens(args.k_gens), l_gens, g, tower, budgets)
    config = {
        "h_gens": args.h_gens,
        "k_gens": args.k_gens,
        "l_gens": args.l_gens,
        "l_rep": args.l_rep,
        "element": args.element,
        "tower": args.tower,
        "seed": args.seed,
    }
    if cert is None:
        result = {
            "status": "inconclusive",
            "tower": [rpt.spec_to_json(s) for s in tower],
        }
    else:
        result = {"status": "certified", "certificate": rpt.certificate_to_json(cert)}
    _emit(args, "thm-b-probe", config, result)
    return 0


def _a_part_gens() -> list:
    out = []
    for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        entries = [[0, 0], [0, 0]]
        entries[i][j] = 1
        row0, row1 = entries
        out.append(GroupWord.of_a(Mat2.ambient(row0[0], row0[1], row1[0], row1[1])))
    return out


def _cmd_lowindex(args) -> int:
    reps = low_index_reps(args.max_degree, classes=not args.subgroups)
    entries = []
    for rep in reps:
        entries.append(
            {
                "rep": rep.to_json(),
                "level": rep_level(rep),
                "congruence": is_congruence(rep),
            }
        )
    config = {"max_degree": args.max_degree, "subgroups": bool(args.subgroups), "seed": args.seed}
    result = {"count": len(entries), "reps": entries}
    _emit(args, "lowindex", config, result)
    return 0


def _cmd_congruence(args) -> int:
    rep = load_rep(args.rep)
    level = rep_level(rep)
    verdict = is_congruence(rep)
    result = {
        "degree": rep.degree,
        "level": level,
        "congruence": verdict,
    }
    if level > 1:
        full = psl2_context(level).enumerate()
        image = rep_image_mod(rep, level)
        result["image_index"] = len(full) // len(image)
    config = {"rep": args.rep, "seed": args.seed}
    _emit(args, "congruence", config, result)
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


def _cmd_gs_demo(args) -> int:
    budgets = _budgets_of(args)
    config = {
        "max_level": args.max_level,
        "m_max": args.m_max,
        "max_degree": args.max_degree,
        "seed": args.seed,
    }
    intersections = []
    for m in range(2, args.max_level + 1):
        instance = gs_build(QuotientSpec.make(m), budgets)
        intersections.append({"m": m, "size": len(gs_intersection(instance))})

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
    noncongruence = [rep for rep in reps if not is_congruence(rep)]
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


def _require_match(claimed, recomputed, what: str) -> None:
    if claimed != recomputed:
        raise ValidationError(f"verify failed: {what}: report says {claimed!r}, recomputed {recomputed!r}")


def _verify_certificate(data: dict) -> None:
    cert = rpt.certificate_from_json(data)
    g = cert.element
    if cert.target == "HK":
        member = gs_hk_member(g, cert.spec.m)
        _require_match(False, member, f"HK membership at modulus {cert.spec.m}")
    else:
        raise ValidationError(f"verify: unknown certificate target {cert.target!r}")


def _verify_probe_certificate(config: dict, data: dict) -> None:
    cert = rpt.certificate_from_json(data)
    h_gens = _load_gens(config["h_gens"])
    k_gens = _load_gens(config["k_gens"])
    spec = cert.spec
    uh = image_subgroup(h_gens, spec)
    uk = image_subgroup(k_gens, spec)
    if config.get("l_gens"):
        ul = image_subgroup(_load_gens(config["l_gens"]), spec)
        hp = subgroup_intersection(uh, ul)
    elif config.get("l_rep"):
        ul = image_subgroup(_a_part_gens() + h_prime_group_words(load_rep(config["l_rep"])), spec)
        hp = subgroup_intersection(uh, ul)
    else:
        hp = uh
    member = product_member(quotient_context(spec), project(cert.element, spec), hp, uk)
    _require_match(False, member, f"double-coset membership at modulus {spec.m}")


def _verify_witness(data: dict, rep: PermRep) -> None:
    witness = rpt.witness_from_json(data)
    x = word_eval(witness.word)
    _require_match(rpt.mat_to_json(witness.x), rpt.mat_to_json(x), "witness matrix vs word")
    _require_match(witness.displaced_to, rep.word_point(witness.word), "witness basepoint displacement")
    if witness.displaced_to == 0:
        raise ValidationError("verify failed: witness does not leave the subgroup")
    for m in witness.levels_verified:
        from .modular import psl2_canon

        inside = psl2_canon(x.reduce(m)) in rep_image_mod(rep, m)
        _require_match(True, inside, f"witness level {m}")


def _verify_evidence(data: dict) -> None:
    if data.get("status") != "evidence":
        return
    rep = PermRep.from_json(data["rep"])
    if is_congruence(rep):
        raise ValidationError("verify failed: evidence subgroup is congruence")
    _verify_witness(data["witness"], rep)
    witness = rpt.witness_from_json(data["witness"])
    g = rpt.groupword_from_json(data["g"])
    expected_g = witness.x - Mat2.identity()
    _require_match(rpt.mat_to_json(g.a), rpt.mat_to_json(expected_g), "evidence element")
    level = rpt.parse_int(data["witness_level"])
    if witness.x.reduce(level) != Mat2.identity(level):
        raise ValidationError("verify failed: witness is not trivial at its search level")
    budgets = active_budgets()
    for entry in data["level_transcripts"]:
        m = rpt.parse_int(entry["m"])
        image = _h_prime_image_mod(rep, m, budgets)
        member = witness.x.reduce(m) in image
        _require_match(entry["member"], member, f"evidence membership at level {m}")
        _require_match(rpt.parse_int(entry["image_order"]), len(image), f"evidence image order at level {m}")
        if "double_coset_member" in entry:
            spec = QuotientSpec.make(m)
            instance = gs_build(spec, budgets)
            im_hp = subgroup_from_elements(
                SdElement(Mat2.zero(m), u, None) for u in image.elements
            )
            direct = product_member(
                quotient_context(spec), project(g, spec), im_hp, instance.im_k
            )
            _require_match(entry["double_coset_member"], direct, f"double-coset cross-check at level {m}")
    recorded = [rpt.parse_int(v) for v in data["levels"]]
    recomputed = [
        rpt.parse_int(e["m"]) for e in data["level_transcripts"] if e["member"]
    ]
    _require_match(recorded, recomputed, "recorded passing levels")


def _verify_tractable(config: dict, result: dict) -> None:
    h_gens = [rpt.groupword_from_json(e) for e in result["h_gens"]]
    k_gens = [rpt.groupword_from_json(e) for e in result["k_gens"]]
    hcapk_gens = [rpt.groupword_from_json(e) for e in result["hcapk_gens"]]
    m_spec = rpt.spec_from_json(result["m_spec"])
    if result.get("found") is not None:
        spec = rpt.spec_from_json(result["found"])
        ctx = quotient_context(spec)
        uh = image_subgroup(h_gens, spec)
        uk = image_subgroup(k_gens, spec)
        ui = image_subgroup(hcapk_gens, spec)
        kernel = kernel_of_refinement(spec, m_spec)
        inter = subgroup_intersection(uh, uk)
        for u in inter.elements:
            if not product_member(ctx, u, ui, kernel):
                raise ValidationError("verify failed: recorded success does not replay")


def _verify_gs_demo(config: dict, result: dict) -> None:
    for entry in result["intersections"]:
        m = rpt.parse_int(entry["m"])
        instance = gs_build(QuotientSpec.make(m))
        _require_match(rpt.parse_int(entry["size"]), len(gs_intersection(instance)), f"intersection size at {m}")
    for entry in result["hk_certificates"]:
        if entry["status"] == "certified":
            _verify_certificate(entry["certificate"])
        else:
            g = rpt.groupword_from_json(entry["element"])
            if gs_hk_witness(g) is not None:
                raise ValidationError("verify failed: inconclusive element has a certificate")
    if "selected" in result["lowindex"]:
        selected = PermRep.from_json(result["lowindex"]["selected"])
        if is_congruence(selected):
            raise ValidationError("verify failed: selected subgroup is congruence")
    _verify_evidence(result["evidence"])


def _verify_lowindex(config: dict, result: dict) -> None:
    for entry in result["reps"]:
        rep = PermRep.from_json(entry["rep"])
        _require_match(rpt.parse_int(entry["level"]), rep_level(rep), "level")
        _require_match(entry["congruence"], is_congruence(rep), "congruence verdict")


def _verify_gap_witness(config: dict, result: dict) -> None:
    if result.get("status") != "found":
        return
    rep = load_rep(config["rep"])
    _verify_witness(result["witness"], rep)


def _verify_dcoset(config: dict, result: dict) -> None:
    rep = load_rep(config["rep"]) if config.get("rep") else None
    spec = QuotientSpec.make(rpt.parse_int(config["modulus"]), rep)
    g = rpt.groupword_from_json(result["element"])
    left = image_subgroup(_load_gens(config["left"]), spec)
    right = image_subgroup(_load_gens(config["right"]), spec)
    member = product_member(quotient_context(spec), project(g, spec), left, right)
    _require_match(result["member"], member, "double-coset membership")


def _verify_congruence(config: dict, result: dict) -> None:
    rep = load_rep(config["rep"])
    _require_match(rpt.parse_int(result["level"]), rep_level(rep), "level")
    _require_match(result["congruence"], is_congruence(rep), "congruence verdict")


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
    if rpt.parse_int(data.get("schema", 0)) != rpt.SCHEMA_VERSION:
        raise ValidationError(f"verify failed: unsupported schema {data.get('schema')!r}")
    command = data.get("command")
    config = data.get("config", {})
    result = data.get("result", {})
    checks = {
        "gs-demo": _verify_gs_demo,
        "gap-witness": _verify_gap_witness,
        "lowindex": _verify_lowindex,
        "congruence": _verify_congruence,
        "dcoset-member": _verify_dcoset,
        "tractable": lambda c, r: _verify_tractable(c, r),
        "thm-b-probe": lambda c, r: (
            _verify_probe_certificate(c, r["certificate"]) if r.get("status") == "certified" else None
        ),
    }
    if command in checks:
        checks[command](config, result)
    elif command not in ("quotient", "image", "intersect"):
        raise ValidationError(f"verify: unknown command {command!r}")
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
