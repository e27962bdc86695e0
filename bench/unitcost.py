"""Unit costs of the per-element callbacks that boundary spans cannot see.

Closures call these once per attempted multiplication, so the tracer leaves
them unwrapped and charges their time to the closure's span.  Timing them on
seeded inputs lets the benchmark split ``groupcore.closure_s`` into callback
time (unit cost x attempted multiplications) and bookkeeping.  The tracer
calls ``measure`` in each traced command's interpreter right after the
command, so the unit costs see nearly the same host speed as the closures.

The result holds ``arith.mat2_mul_ns``, ``groupcore.sd_mul_ns``,
``modular.psl2_mul_ns`` and ``modular.matrix_to_word_us``, each the median
over repeats of the mean cost per call.
"""

from __future__ import annotations

import random
import statistics
import time

MODULUS = 24  # the witness level of the evidence workload
PAIRS = 1000
WORDS = 100
WORD_LENGTH = 24
REPEATS = 15


def _per_call_ns(cases: dict) -> dict:
    """Median over repeats of ns per call; the cases take turns, so they share the host's drift."""
    samples = {name: [] for name in cases}
    for _ in range(REPEATS):
        for name, (fn, pairs) in cases.items():
            start = time.perf_counter_ns()
            for x, y in pairs:
                fn(x, y)
            samples[name].append((time.perf_counter_ns() - start) / len(pairs))
    return {name: statistics.median(values) for name, values in samples.items()}


def measure(mods: dict, seed: int) -> dict:
    """Unit costs on inputs drawn from ``seed``; ``mods`` maps layer name to module."""
    arith, groupcore, modular, profinite = (mods[k] for k in ("arith", "groupcore", "modular", "profinite"))
    rng = random.Random(seed)
    letters = ("S", "s", "T", "t")

    def word(length):
        return modular.ModularWord.from_str("".join(rng.choice(letters) for _ in range(length)))

    def sl2_mod(m):
        return modular.word_eval(word(WORD_LENGTH)).reduce(m)

    # A closure multiplies each element by each generator: time that shape.
    m = MODULUS
    elems = [sl2_mod(m) for _ in range(PAIRS)]
    sl2_gens = (arith.MAT_S.reduce(m), arith.MAT_T.reduce(m))
    mats = [(x, sl2_gens[i % 2]) for i, x in enumerate(elems)]
    psl2 = modular.psl2_context(m)
    psl2_pairs = [(modular.psl2_canon(x), psl2.generators[i % 2]) for i, x in enumerate(elems)]
    ctx = profinite.quotient_context(profinite.QuotientSpec.make(m))
    sds = [
        (groupcore.SdElement(arith.Mat2.of_mod(*(rng.randrange(m) for _ in range(4)), m), x, None),
         ctx.generators[i % len(ctx.generators)])
        for i, x in enumerate(elems)
    ]
    to_word = [(modular.word_eval(word(WORD_LENGTH)), None) for _ in range(WORDS)]
    ns = _per_call_ns({
        "arith.mat2_mul_ns": (lambda x, y: x * y, mats),
        "groupcore.sd_mul_ns": (ctx.mul, sds),
        "modular.psl2_mul_ns": (psl2.mul, psl2_pairs),
        "modular.matrix_to_word_ns": (lambda x, _: modular.matrix_to_word(x), to_word),
    })
    ns["modular.matrix_to_word_us"] = ns.pop("modular.matrix_to_word_ns") / 1000.0
    return ns
