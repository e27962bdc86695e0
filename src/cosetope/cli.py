"""Command-line front door.

Each subcommand maps its config (the parsed arguments other than the
report path and the closure cap) and the closure cap, an int, to a dict.
``OPTIONS`` gives each command that function, its one-line help and its
options.  ``_report`` runs a command and returns its report: canonical JSON
(sorted keys, numbers as decimal strings) holding the command, the config
and the result, so identical invocations produce identical bytes.
``parse`` reads every command line from ``OPTIONS`` and reads each input
option, inline JSON or a file, there and only there, so the config holds
the inputs themselves and the report records them.  ``verify`` writes the
recorded config back as a command line, parses it again, rebuilds with
``_report`` the report ``main`` would write from it and compares the bytes;
it reads no file but the report.  Exit codes: 0 completed (including
inconclusive outcomes), 2 a ``ValidationError``, 3 a ``BudgetError``.
"""

from __future__ import annotations

import json
import os
import sys

from .arith import Mat2, sl2_group_order
from .budgets import DEFAULT_CLOSURE_CAP
from .errors import BudgetError, CosetopeError, ValidationError, shown
from .groupcore import check_closure_cap, product_member, subgroup_intersection
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
    DEFAULT_TOWER,
    GroupWord,
    QuotientSpec,
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


def _spec_of(config: dict) -> QuotientSpec:
    return QuotientSpec.make(config["modulus"], config["rep"])


# ---------------------------------------------------------------------------
# subcommands
#
# Each subcommand computes its result from its config alone: the parsed
# arguments, inputs already read and defaults resolved, whether ``main``
# parsed them from the command line or ``verify`` from the argv that writes
# the recorded config.  A result holds only what the command computed: the
# config already records each input as the command used it.


def _quotient(config: dict, closure_cap: int) -> dict:
    spec = _spec_of(config)
    return {
        "identity": quotient_context(spec).identity,
        "order": spec_group_order(spec, closure_cap),
        "sl2_order": sl2_group_order(spec.m),
    }


def _image(config: dict, closure_cap: int) -> dict:
    sub = image_subgroup(config["gens"], _spec_of(config), closure_cap)
    return {"size": len(sub), "sample": sub.elements[:20]}


def _intersect(config: dict, closure_cap: int) -> dict:
    spec = _spec_of(config)
    left = image_subgroup(config["left"], spec, closure_cap)
    right = image_subgroup(config["right"], spec, closure_cap)
    inter = subgroup_intersection(left, right)
    result = {"size_left": len(left), "size_right": len(right), "size_intersection": len(inter)}
    if len(inter) <= 50:
        result["elements"] = inter.elements
    return result


def _dcoset_member(config: dict, closure_cap: int) -> dict:
    spec, g = _spec_of(config), config["element"]
    left = image_subgroup(config["left"], spec, closure_cap)
    right = image_subgroup(config["right"], spec, closure_cap)
    return {
        "member": product_member(quotient_context(spec), project(g, spec), left, right),
        "size_left": len(left),
        "size_right": len(right),
    }


def _congruence(config: dict, closure_cap: int) -> dict:
    rep = config["rep"]
    level = rep_level(rep)
    index = len(set(image_blocks(rep, level, closure_cap)))
    # congruence exactly when Gamma(level), being normal, fixes every coset
    result = {"level": level, "congruence": index == rep.degree}
    if level > 1:
        result["image_index"] = index
    return result


def _tractable(config: dict, closure_cap: int) -> dict:
    gens = config["h_gens"], config["k_gens"], config["hcapk_gens"]
    return tractable_at(*gens, config["m_spec"], config["tower"], closure_cap)


def _thm_b_probe(config: dict, closure_cap: int) -> dict:
    l_gens, l_rep = config["l_gens"], config["l_rep"]  # neither: L is the whole group
    if l_rep is not None:
        if l_gens is not None:
            raise ValidationError("thm-b-probe takes --l-gens or --l-rep, not both")
        l_gens = l_group_words(l_rep)
    cert = thm_b_probe(config["h_gens"], config["k_gens"], l_gens, config["element"], config["tower"], closure_cap)
    if cert is None:
        return {"status": "inconclusive"}
    return {"status": "certified", "certificate": cert}


def _lowindex(config: dict, closure_cap: int) -> dict:
    reps = low_index_reps(config["max_degree"], classes=not config["subgroups"])
    entries = [
        {"rep": rep, "level": rep_level(rep), "congruence": is_congruence(rep, closure_cap)}
        for rep in reps
    ]
    return {"count": len(entries), "reps": entries}


def _gap_witness(config: dict, closure_cap: int) -> dict:
    # a search that finds no witness exits 2 or 3, so a result has one
    return {"witness": congruence_gap_witness(config["rep"], config["level"], closure_cap)}


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


def _gs_demo(config: dict, closure_cap: int) -> dict:
    reps = low_index_reps(config["max_degree"])  # refuses a degree below 1 before any walk
    # the order of image(H) meet image(K) at each level is 1: a common element
    # (0, h) = (I - h', h') of image(H) = {(0, h)} and image(K) = {(I - h', h')}
    # has I - h' = 0, so h = h' = I.  Each level's |image(H)| = |SL2(Z/m)| is
    # checked against the cap as if it were listed; as |SL2(Z/m)| > 0.6 m^3,
    # the check stops within (cap / 0.6)^(1/3) levels
    levels = range(2, config["max_level"] + 1)
    for m in levels:
        check_closure_cap(sl2_group_order(m), closure_cap, f"the image of H mod {m}")
    intersections = [{"m": m, "size": 1} for m in levels]
    # the evidence rests on the first class that is not congruence
    noncongruence = [rep for rep in reps if not is_congruence(rep, closure_cap)]
    lowindex = {"reps_total": len(reps), "noncongruence_total": len(noncongruence)}
    evidence = {"status": "no-noncongruence-subgroup-found"}
    if noncongruence:
        lowindex["selected"] = noncongruence[0]
        evidence = gs_wz_failure(noncongruence[0], config["m_max"], closure_cap)
    return {
        "intersections": intersections,
        "hk_certificates": _hk_certificates(),
        "lowindex": lowindex,
        "evidence": evidence,
    }


# ---------------------------------------------------------------------------
# verify
#
# ``verify`` reparses the report's recorded config, rebuilds from it the
# report ``main`` would write and requires the report's own bytes.  A verify
# report names no command to rerun: it would recurse.


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
        pairs = [(f"{path}.{k}" if path else k, claimed.get(k, _ABSENT), recomputed.get(k, _ABSENT)) for k in keys]
    elif isinstance(claimed, list) and isinstance(recomputed, list):
        pad = [_ABSENT] * abs(len(claimed) - len(recomputed))
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(claimed + pad, recomputed + pad))]
    else:
        return path, claimed, recomputed
    return next(_first_difference(a, b, p) for p, a, b in pairs if _differs(a, b))


def _report(command: str, config: dict, closure_cap: int) -> str:
    """The report text ``main`` writes for ``command`` run on ``config``."""
    result = OPTIONS[command][0](config, closure_cap)
    return rpt.canonical_dumps({"schema": rpt.SCHEMA_VERSION, "command": command, "config": config, "result": result})


def _reparsed(command: str, recorded) -> dict:
    """The config ``parse`` reads from the command line that writes
    ``recorded``: each ``true`` as a bare ``--opt``, each string value of a
    string or integer option as ``--opt=value`` (so a value may start with
    "-"), each list or object as ``--opt=<its JSON>``, which an input option
    reads inline, and any other value left out.  So no file is read."""
    if not isinstance(recorded, dict):
        raise ValidationError(f"verify failed: the {command} config is not a JSON object")
    argv = [command]
    for name, (kind, _, _) in OPTIONS[command][2].items():
        value = recorded.get(_key(name))
        if value is True:
            argv.append(name)
        elif isinstance(value, str) and kind in (str, int):
            argv.append(f"{name}={value}")
        elif isinstance(value, (list, dict)):
            argv.append(f"{name}={json.dumps(value)}")
    try:
        return parse(argv)[1]
    except ValidationError as exc:
        raise ValidationError(f"verify failed: config: {exc}") from None


def _verify(config: dict, closure_cap: int) -> dict:
    text = rpt.read_text(config["report"], "report")
    data = rpt.decode(text, "report is not valid JSON")
    if not isinstance(data, dict) or data.keys() != _REPORT_KEYS:
        raise ValidationError(f"verify failed: a report holds exactly the keys {sorted(_REPORT_KEYS)}")
    if data["schema"] != rpt.as_recorded(rpt.SCHEMA_VERSION):
        raise ValidationError(f"verify failed: unsupported schema {shown(data['schema'])}")
    command = data["command"]
    if not isinstance(command, str) or command not in OPTIONS or command == "verify":
        raise ValidationError(f"verify: unknown command {shown(command)}")
    rebuilt = _report(command, _reparsed(command, data["config"]), closure_cap)
    if rebuilt == text:
        return {"verified": True, "checked": command}
    recomputed = rpt.decode(rebuilt, "rebuilt report is not valid JSON")
    if not _differs(data, recomputed):
        raise ValidationError("verify failed: report is not in canonical form (bytes differ)")
    path, claimed, recomputed = _first_difference(data, recomputed, "")
    claimed, recomputed = ("nothing" if v is _ABSENT else shown(v) for v in (claimed, recomputed))
    raise ValidationError(f"verify failed: {path}: report says {claimed}, recomputed {recomputed}")


# ---------------------------------------------------------------------------
# command line
#
# ``OPTIONS`` maps each command to the function that runs it, its one-line
# help and its options, each (type, default, help): a ``str`` or ``int``
# option takes a value, a ``bool`` option is a flag, an input option's type
# is its reader in ``report`` (which takes inline JSON or a path), and the
# default ``REQUIRED`` makes an option required.  Every command also takes
# ``--output`` and ``--closure-cap``, which are not config.  ``parse`` alone
# checks each integer option's least value in ``LEAST``.


REQUIRED = object()
_NEEDS_INT, _GENS = (int, REQUIRED, ""), (rpt.gens, REQUIRED, "JSON list of group elements")
_REP = (rpt.rep, None, "coset action: a permutation representation")
_TOWER = (rpt.tower, DEFAULT_TOWER, "quotient specs (default: plain levels 2, 3, 4, 5, 6, 8 and 12)")
_COMMON = {"--output": (str, None, "report file (default: stdout)"), "--closure-cap": (int, DEFAULT_CLOSURE_CAP, "")}
LEAST = {"--closure-cap": 1, "--level": 2, "--max-level": 2, "--m-max": 2}
OPTIONS = {command: (run, summary, {**options, **_COMMON}) for command, (run, summary, options) in {
    "quotient": (_quotient, "describe one finite quotient", {"--modulus": _NEEDS_INT, "--rep": _REP}),
    "image": (_image, "image of a generated subgroup in a quotient", {
        "--modulus": _NEEDS_INT, "--rep": _REP, "--gens": _GENS}),
    "intersect": (_intersect, "intersection of two subgroup images", {
        "--modulus": _NEEDS_INT, "--rep": _REP, "--left": _GENS, "--right": _GENS}),
    "dcoset-member": (_dcoset_member, "double-coset membership at one level", {
        "--modulus": _NEEDS_INT, "--rep": _REP, "--element": (rpt.element, REQUIRED, "group element"),
        "--left": _GENS, "--right": _GENS}),
    "tractable": (_tractable, "inclusion search over candidate quotients", {
        "--h-gens": _GENS, "--k-gens": _GENS, "--hcapk-gens": (rpt.gens, (), "generators of H meet K (default: none)"),
        "--m-spec": (rpt.spec, REQUIRED, "quotient spec"), "--tower": _TOWER}),
    "thm-b-probe": (_thm_b_probe, "separability probe for (H meet L)K", {
        "--h-gens": _GENS, "--k-gens": _GENS, "--l-gens": (rpt.gens, None, "generators of L"),
        "--l-rep": (rpt.rep, None, "build L as additive part x| subgroup"),
        "--element": (rpt.element, REQUIRED, "group element"), "--tower": _TOWER}),
    "lowindex": (_lowindex, "enumerate low-index subgroup representations", {
        "--max-degree": _NEEDS_INT, "--subgroups": (bool, False, "one table per subgroup, not per class")}),
    "congruence": (_congruence, "congruence verdict for one representation", {"--rep": (rpt.rep, REQUIRED, "")}),
    "gap-witness": (_gap_witness, "congruence-gap witness search", {
        "--rep": (rpt.rep, REQUIRED, ""), "--level": _NEEDS_INT}),
    "gs-demo": (_gs_demo, "end-to-end example report", {
        "--max-level": (int, 8, ""), "--m-max": (int, 24, ""), "--max-degree": (int, 7, "")}),
    "verify": (_verify, "rebuild a report from its config and compare its bytes", {"--report": (str, REQUIRED, "")}),
}.items()}


def _key(name: str) -> str:
    """The config key of option ``name``: ``--m-max`` is ``m_max``."""
    return name[2:].replace("-", "_")


def parse(argv) -> tuple:
    """``(command, config, output, closure_cap)`` from a command line.

    An option is ``--opt value`` or ``--opt=value``; a value that starts
    with "--" needs the second form.  The last of a repeated option wins.
    Anything else raises ``ValidationError``: no abbreviation is accepted,
    an integer option takes the canonical decimal of ``report.parse_int``,
    and no value below its option's ``LEAST`` is accepted, the first such
    option in the command's option order named.
    """
    if not argv or argv[0] not in OPTIONS:
        got = f"unknown command {shown(argv[0])}" if argv else "no command"
        raise ValidationError(f"{got}; the commands are {', '.join(OPTIONS)}")
    command, options, given = argv[0], OPTIONS[argv[0]][2], {}
    args = iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        if name not in options:
            raise ValidationError(f"{command} takes no argument {shown(name)}")
        kind = options[name][0]
        if kind is bool and eq:
            raise ValidationError(f"{name} is a flag and takes no value")
        if kind is not bool and not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise ValidationError(f"{name} needs a value")
        try:
            given[name] = True if kind is bool else rpt.parse_int(value) if kind is int else kind(value)
        except ValidationError:
            if kind is int:
                raise ValidationError(f"{name} takes an integer, got {shown(value)}") from None
            raise
    missing = [name for name, (_, default, _) in options.items() if default is REQUIRED and name not in given]
    if missing:
        raise ValidationError(f"{command} needs {' and '.join(missing)}")
    low = [name for name in options if name in LEAST and given.get(name, LEAST[name]) < LEAST[name]]
    if low:
        raise ValidationError(f"{low[0]} must be at least {LEAST[low[0]]}, got {shown(given[low[0]])}")
    config = {_key(name): given.get(name, default) for name, (_, default, _) in options.items()}
    return command, config, config.pop("output"), config.pop("closure_cap")


def usage(command=None) -> str:
    """The help text of ``command``, or of the whole CLI when None."""
    if command is None:
        head = "usage: cosetope COMMAND [OPTION ...]\n\ncosetope COMMAND --help lists the options of COMMAND."
        head += "\nAn input option (REP, GENS, TOWER, SPEC, ELEMENT) takes inline JSON or a file."
        rows = [(name, summary) for name, (_, summary, _) in OPTIONS.items()]
    else:
        _, summary, options = OPTIONS[command]
        head, rows = f"usage: cosetope {command} [OPTION ...]\n\n{summary}", []
        for name, (kind, default, text) in options.items():
            note = "(required)" if default is REQUIRED else f"(default {default})" if kind is int else ""
            rows.append((name if kind is bool else f"{name} {kind.__name__.upper()}", f"{text} {note}".strip()))
    width = max(len(left) for left, _ in rows)
    return "\n".join([head, "", *(f"  {left:<{width}}  {right}".rstrip() for left, right in rows), ""])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in (*OPTIONS, "--help") and "--help" in argv:
        sys.stdout.write(usage(argv[0] if argv[0] in OPTIONS else None))
        return 0
    try:
        command, config, output, closure_cap = parse(argv)
        text = _report(command, config, closure_cap)
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except CosetopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output:
        # in place: O_TRUNC of an allocated file can take tens of ms; only a
        # longer regular file is cut, since a device or pipe has size 0
        data = text.encode()
        try:
            fd = os.open(output, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                done = 0
                while done < len(data):
                    done += os.write(fd, data[done:])
                if os.fstat(fd).st_size > done:
                    os.ftruncate(fd, done)
            finally:
                os.close(fd)
        except OSError as exc:
            print(f"error: cannot write report {shown(output)}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
