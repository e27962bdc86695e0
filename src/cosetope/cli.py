"""Command-line front door.

Each subcommand is a function from its config (the parsed arguments other
than the report path and the closure cap) to a result, listed in
``COMMANDS``.  Its report is canonical JSON (sorted keys, numbers as decimal
strings) holding the command, the config and the result, so identical
invocations produce identical bytes.  ``verify`` reparses the recorded
config with ``build_parser``, requires it back unchanged, reruns the command
on it and compares the whole result, so it must run where the command ran,
with its input files unchanged.  Exit codes: 0 completed (including
inconclusive outcomes), 2 precondition or validation failure, 3 budget
exhaustion.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys

from .arith import Mat2, sl2_group_order
from .budgets import DEFAULT_CLOSURE_CAP, Budgets
from .errors import BudgetError, CosetopeError, ValidationError
from .groupcore import check_closure_cap, product_member, short_int, subgroup_intersection
# Unused here: importing them keeps them cross-module functions, which
# bench/tracer.py times as gs.h_prime_image_s and profinite.kernel_s, and
# whose kernel order it counts as profinite.kernel_elems; bench/tests asserts
# the first is patched here.  No command calls the first, so
# gs.h_prime_image_s reads 0.
from .gs import (
    _h_prime_image_mod,  # noqa: F401
    gs_hk_witness,
    gs_wz_failure,
    l_group_words,
)
from .modular import (
    ModularWord,
    congruence_gap_witness,
    image_blocks,
    is_congruence,
    low_index_reps,
    rep_level,
)
from .profinite import (
    GroupWord,
    QuotientSpec,
    TractabilityReport,
    default_tower,
    image_subgroup,
    kernel_of_refinement,  # noqa: F401
    project,
    quotient_context,
    spec_group_order,
    thm_b_probe,
    tractable_at,
)
from . import report as rpt


# ---------------------------------------------------------------------------
# inputs


def _parse_element(text: str) -> GroupWord:
    return rpt.groupword_from_json(rpt.decode(text, "bad element JSON"))


def _spec_of(config: dict) -> QuotientSpec:
    rep = rpt.load_rep(config["rep"]) if config["rep"] else None
    return QuotientSpec.make(config["modulus"], rep)


def _tower_of(config: dict) -> list:
    return rpt.load_tower(config["tower"]) if config["tower"] else default_tower()


# ---------------------------------------------------------------------------
# subcommands
#
# Each subcommand computes its result from its config alone: the parsed
# arguments, whether ``main`` parsed them from the command line or ``verify``
# from the argv that writes the recorded config.


def _quotient(config: dict, budgets: Budgets) -> dict:
    spec = _spec_of(config)
    order = spec_group_order(spec)
    result = {
        "identity": quotient_context(spec).identity,
        "order": order,
        "sl2_order": sl2_group_order(spec.m),
    }
    if config["enumerate"] or order is None:
        if order is not None:
            check_closure_cap(order, budgets, f"quotient mod {short_int(spec.m)}")
        result["enumerated_order"] = len(quotient_context(spec).enumerate(budgets))
    return result


def _image(config: dict, budgets: Budgets) -> dict:
    sub = image_subgroup(rpt.load_gens(config["gens"]), _spec_of(config), budgets)
    return {"size": len(sub), "sample": sub.elements[:20]}


def _intersect(config: dict, budgets: Budgets) -> dict:
    spec = _spec_of(config)
    left = image_subgroup(rpt.load_gens(config["left"]), spec, budgets)
    right = image_subgroup(rpt.load_gens(config["right"]), spec, budgets)
    inter = subgroup_intersection(left, right)
    result = {"size_left": len(left), "size_right": len(right), "size_intersection": len(inter)}
    if len(inter) <= 50:
        result["elements"] = inter.elements
    return result


def _dcoset_member(config: dict, budgets: Budgets) -> dict:
    spec = _spec_of(config)
    g = _parse_element(config["element"])
    left = image_subgroup(rpt.load_gens(config["left"]), spec, budgets)
    right = image_subgroup(rpt.load_gens(config["right"]), spec, budgets)
    return {
        "member": product_member(quotient_context(spec), project(g, spec), left, right),
        "size_left": len(left),
        "size_right": len(right),
        "element": g,
    }


def _congruence(config: dict, budgets: Budgets) -> dict:
    rep = rpt.load_rep(config["rep"])
    level = rep_level(rep)
    result = {"degree": rep.degree, "level": level, "congruence": is_congruence(rep, budgets=budgets)}
    if level > 1:
        result["image_index"] = len(set(image_blocks(rep, level, budgets)))
    return result


def _tractable(config: dict, budgets: Budgets) -> TractabilityReport:
    m_spec = rpt.spec_from_json(rpt.decode(config["m_spec"], "--m-spec takes inline JSON like '{\"m\": 2}'"))
    return tractable_at(
        rpt.load_gens(config["h_gens"]),
        rpt.load_gens(config["k_gens"]),
        rpt.load_gens(config["hcapk_gens"]) if config["hcapk_gens"] else [],
        m_spec,
        _tower_of(config),
        budgets,
    )


def _thm_b_probe(config: dict, budgets: Budgets) -> dict:
    if config["l_gens"] and config["l_rep"]:
        raise ValidationError("thm-b-probe takes --l-gens or --l-rep, not both")
    l_gens = None  # L is the whole group
    if config["l_gens"]:
        l_gens = rpt.load_gens(config["l_gens"])
    elif config["l_rep"]:
        l_gens = l_group_words(rpt.load_rep(config["l_rep"]))
    h_gens, k_gens = rpt.load_gens(config["h_gens"]), rpt.load_gens(config["k_gens"])
    g = _parse_element(config["element"])
    tower = _tower_of(config)
    cert = thm_b_probe(h_gens, k_gens, l_gens, g, tower, budgets)
    if cert is None:
        return {"status": "inconclusive", "tower": tower}
    return {"status": "certified", "certificate": cert}


def _lowindex(config: dict, budgets: Budgets) -> dict:
    reps = low_index_reps(config["max_degree"], classes=not config["subgroups"])
    entries = [
        {"rep": rep, "level": rep_level(rep), "congruence": is_congruence(rep, budgets=budgets)}
        for rep in reps
    ]
    return {"count": len(entries), "reps": entries}


def _gap_witness(config: dict, budgets: Budgets) -> dict:
    rep = rpt.load_rep(config["rep"])
    witness = congruence_gap_witness(rep, config["level"], m_max=config["m_max"], budgets=budgets)
    return {"status": "found", "witness": witness}


_HK_SAMPLES = (
    GroupWord.of_a(Mat2.ambient(2, 0, 0, 2)),
    GroupWord.of_a(Mat2.ambient(0, -1, 1, 0)),
    GroupWord(Mat2.identity(), ModularWord.from_str("T")),
    GroupWord.of_a(Mat2.zero()),
)


def _hk_certificates() -> list:
    """The determinant certificate of each sample element off HK, or "inconclusive"."""
    entries = []
    for g in _HK_SAMPLES:
        cert = gs_hk_witness(g)
        entry = {"element": g, "status": "inconclusive"}
        if cert is not None:
            entry.update(status="certified", certificate=cert)
        entries.append(entry)
    return entries


def _gs_demo(config: dict, budgets: Budgets) -> dict:
    max_level, m_max, max_degree = config["max_level"], config["m_max"], config["max_degree"]
    if max_level < 2:
        raise ValidationError(f"max_level must be at least 2, got {max_level}: the intersection table needs a level")
    # the order of image(H) meet image(K) at each level is 1: a common element
    # (0, h) = (I - h', h') of image(H) = {(0, h)} and image(K) = {(I - h', h')}
    # has I - h' = 0, so h = h' = I.  Each level's |image(H)| = |SL2(Z/m)| is
    # checked against the cap as if it were listed; as |SL2(Z/m)| > 0.6 m^3,
    # the check stops within (cap / 0.6)^(1/3) levels
    levels = range(2, max_level + 1)
    for m in levels:
        check_closure_cap(sl2_group_order(m), budgets, f"the image of H mod {m}")
    intersections = [{"m": m, "size": 1} for m in levels]
    # the evidence rests on the first class that is not congruence
    reps = low_index_reps(max_degree)
    noncongruence = [rep for rep in reps if not is_congruence(rep, budgets=budgets)]
    lowindex = {"max_degree": max_degree, "reps_total": len(reps), "noncongruence_total": len(noncongruence)}
    evidence = {"status": "no-noncongruence-subgroup-found"}
    if noncongruence:
        lowindex["selected"] = noncongruence[0]
        evidence = gs_wz_failure(noncongruence[0], m_max, budgets=budgets)
    return {
        "intersections": intersections,
        "hk_certificates": _hk_certificates(),
        "lowindex": lowindex,
        "evidence": evidence,
    }


COMMANDS = {
    "quotient": _quotient,
    "image": _image,
    "intersect": _intersect,
    "dcoset-member": _dcoset_member,
    "tractable": _tractable,
    "thm-b-probe": _thm_b_probe,
    "lowindex": _lowindex,
    "congruence": _congruence,
    "gap-witness": _gap_witness,
    "gs-demo": _gs_demo,
}


# ---------------------------------------------------------------------------
# verify
#
# ``verify`` reparses the report's recorded config, requires it back unchanged,
# reruns the report's command on it and compares the whole result.  It is not
# in ``COMMANDS``: a verify report naming itself would recurse.


_ABSENT = object()
_REPORT_KEYS = {"schema", "command", "config", "result"}


def _differs(a, b) -> bool:
    """Whether two JSON values differ as report bytes would: ``0.0`` is not ``false``."""
    return _ABSENT in (a, b) or json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


def _first_difference(claimed, recomputed, path: str) -> tuple:
    """The first path, in sorted key order, at which two differing JSON values
    differ, with the value each holds there (``_ABSENT`` for a missing one)."""
    if isinstance(claimed, dict) and isinstance(recomputed, dict):
        keys = sorted(claimed.keys() | recomputed.keys())
        pairs = [(f"{path}.{k}", claimed.get(k, _ABSENT), recomputed.get(k, _ABSENT)) for k in keys]
    elif isinstance(claimed, list) and isinstance(recomputed, list):
        pad = [_ABSENT] * abs(len(claimed) - len(recomputed))
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(claimed + pad, recomputed + pad))]
    else:
        return path, claimed, recomputed
    return next(_first_difference(a, b, p) for p, a, b in pairs if _differs(a, b))


def _require_match(claimed, recomputed, root: str) -> None:
    if not _differs(claimed, recomputed):
        return
    path, claimed, recomputed = _first_difference(claimed, recomputed, root)
    claimed, recomputed = ("nothing" if v is _ABSENT else repr(v) for v in (claimed, recomputed))
    raise ValidationError(f"verify failed: {path}: report says {claimed}, recomputed {recomputed}")


def _reparsed(command: str, recorded) -> dict:
    """The config ``main`` builds from the argv that writes ``recorded``: each
    string value as ``--opt=value`` (so a value may start with "-"), each
    ``true`` as a bare ``--opt``, and any other value left out."""
    if not isinstance(recorded, dict):
        raise ValidationError(f"verify failed: the {command} config is not a JSON object")
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    argv = [command]
    for action in sub._actions:
        value = recorded.get(action.dest)
        if value is True and not isinstance(action, argparse._HelpAction):
            argv.append(action.option_strings[0])
        elif isinstance(value, str):
            argv.append(f"{action.option_strings[0]}={value}")
    refusal = io.StringIO()
    try:
        with contextlib.redirect_stderr(refusal):
            return _config_of(parser.parse_args(argv))
    except SystemExit:
        reason = refusal.getvalue().strip().rpartition("\n")[2]
        raise ValidationError(f"verify failed: config: {reason}") from None


def _verify(config: dict, budgets: Budgets) -> dict:
    text = rpt.read_text(config["report"], "report")
    data = rpt.decode(text, "report is not valid JSON")
    if rpt.canonical_dumps(data) != text:
        raise ValidationError("verify failed: report is not in canonical form (bytes differ)")
    if not isinstance(data, dict) or data.keys() != _REPORT_KEYS:
        raise ValidationError(f"verify failed: a report holds exactly the keys {sorted(_REPORT_KEYS)}")
    if data["schema"] != rpt.as_recorded(rpt.SCHEMA_VERSION):
        raise ValidationError(f"verify failed: unsupported schema {data['schema']!r}")
    command = data["command"]
    if not isinstance(command, str) or command not in COMMANDS:
        raise ValidationError(f"verify: unknown command {command!r}")
    rerun = _reparsed(command, data["config"])
    _require_match(data["config"], rpt.as_recorded(rerun), "config")
    _require_match(data["result"], rpt.as_recorded(COMMANDS[command](rerun, budgets)), "result")
    return {"verified": True, "checked": command}


# ---------------------------------------------------------------------------
# parser


# Cached so that ``verify`` reparses a recorded config with the parser
# ``main`` already built.
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetope",
        description="Finite-quotient workbench for double coset separability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="report file (default: stdout)")
        p.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP)

    p = sub.add_parser("quotient", help="describe one finite quotient")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--rep", default=None, help="permutation representation file")
    p.add_argument("--enumerate", action="store_true", help="force a closure count")
    common(p)

    p = sub.add_parser("image", help="image of a generated subgroup in a quotient")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--rep", default=None)
    p.add_argument("--gens", required=True, help="JSON list of group elements")
    common(p)

    p = sub.add_parser("intersect", help="intersection of two subgroup images")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--rep", default=None)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    common(p)

    p = sub.add_parser("dcoset-member", help="double-coset membership at one level")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--rep", default=None)
    p.add_argument("--element", required=True, help="inline JSON element")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    common(p)

    p = sub.add_parser("tractable", help="inclusion search over candidate quotients")
    p.add_argument("--h-gens", required=True)
    p.add_argument("--k-gens", required=True)
    p.add_argument("--hcapk-gens", default=None)
    p.add_argument("--m-spec", required=True, help="inline JSON quotient spec")
    p.add_argument("--tower", default=None, help="candidate tower file")
    common(p)

    p = sub.add_parser("thm-b-probe", help="separability probe for (H meet L)K")
    p.add_argument("--h-gens", required=True)
    p.add_argument("--k-gens", required=True)
    p.add_argument("--l-gens", default=None)
    p.add_argument("--l-rep", default=None, help="build L as additive part x| subgroup")
    p.add_argument("--element", required=True)
    p.add_argument("--tower", default=None)
    common(p)

    p = sub.add_parser("lowindex", help="enumerate low-index subgroup representations")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--subgroups", action="store_true", help="one table per subgroup, not per class")
    common(p)

    p = sub.add_parser("congruence", help="congruence verdict for one representation")
    p.add_argument("--rep", required=True)
    common(p)

    p = sub.add_parser("gap-witness", help="congruence-gap witness search")
    p.add_argument("--rep", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--m-max", type=int, default=24)
    common(p)

    p = sub.add_parser("gs-demo", help="end-to-end example report")
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--m-max", type=int, default=24)
    p.add_argument("--max-degree", type=int, default=7)
    common(p)

    p = sub.add_parser("verify", help="recompute a report's result from its recorded config and compare")
    p.add_argument("--report", required=True)
    common(p)

    return parser


# Arguments that say where a report goes and how much work may be spent on
# it; every other argument is the command's config.
_NOT_CONFIG = ("command", "output", "closure_cap")


def _config_of(args) -> dict:
    return {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_of(args)
    run = _verify if args.command == "verify" else COMMANDS[args.command]
    try:
        result = run(config, Budgets(args.closure_cap))
        report = {"schema": rpt.SCHEMA_VERSION, "command": args.command, "config": config, "result": result}
        text = rpt.canonical_dumps(report)
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except CosetopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report {args.output!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
