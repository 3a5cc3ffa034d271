"""Kernel corpus and its microbenchmarks (per-layer metrics exactq.corpus.*).

The corpus is rebuilt from a fixed seed every time, never stored as a frozen
copy:

* normalize: (num, den) operands of ``QRat(num, den)`` recorded while building
  the weight-4 difference-formula grid c_{mu,mu*}(n, k), n, k <= 3, in a fresh
  process -- only calls with a nonzero numerator and a non-constant
  denominator, which are the ones that run the gcd -- then a seeded sample;
* add: seeded pairs of the canonical c values of that grid;
* mul_d50, mul_d200: seeded random polynomials of degree 50 and 200 with
  34-bit numerators over denominators up to 64.

Each timing is the median over passes of the time per operation, in
microseconds.  Every pass works on fresh copies of the operands, so no
operand carries a cached integer form from an earlier pass.

    python3 bench/corpus.py     # rebuild, write bench/out/corpus.json, print make-up
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

CORPUS_SEED = 1729
NORMALIZE_SAMPLE = 400
ADD_SAMPLE = 150
MUL_PAIRS = {50: 40, 200: 8}
PASSES = 5


def build(seed: int = CORPUS_SEED) -> dict:
    from qharmonic.exactq import QPoly, QRat
    from qharmonic.harmonic import c_value
    from qharmonic.multiindex import enumerate_by_weight

    recorded = []
    original = QRat.__init__

    def recording(self, num, den=1):
        if (isinstance(num, QPoly) and isinstance(den, QPoly)
                and not num.is_zero and (den.degree or 0) >= 1):
            recorded.append((num.coeffs, den.coeffs))
        original(self, num, den)

    QRat.__init__ = recording
    try:
        values = [c_value(mu, mu.dual(), n, k)
                  for mu in enumerate_by_weight(4) for n in range(4) for k in range(4)]
    finally:
        QRat.__init__ = original
    rng = random.Random(seed)
    normalize = rng.sample(recorded, min(NORMALIZE_SAMPLE, len(recorded)))
    add = [((a.num.coeffs, a.den.coeffs), (b.num.coeffs, b.den.coeffs))
           for a, b in ((rng.choice(values), rng.choice(values)) for _ in range(ADD_SAMPLE))]
    mul = {}
    for degree, count in MUL_PAIRS.items():
        mul[degree] = [tuple(tuple(Fraction(rng.randint(-2 ** 34, 2 ** 34), rng.randint(1, 64))
                                   for _ in range(degree + 1)) for _ in range(2))
                       for _ in range(count)]
    return {"seed": seed, "recorded": len(recorded), "normalize": normalize, "add": add,
            "mul": mul}


def time_ops(corpus: dict) -> dict[str, float]:
    from qharmonic.exactq import QPoly, QRat

    def timed(make_operands, op) -> float:
        passes = []
        for _ in range(PASSES):
            operands = make_operands()
            start = time.perf_counter()
            for x, y in operands:
                op(x, y)
            passes.append(time.perf_counter() - start)
        return statistics.median(passes) / len(operands) * 1e6

    out = {}
    for degree, pairs in sorted(corpus["mul"].items()):
        out[f"exactq.corpus.mul_d{degree}_us"] = timed(
            lambda: [(QPoly(a), QPoly(b)) for a, b in pairs], lambda a, b: a * b)
    out["exactq.corpus.normalize_us"] = timed(
        lambda: [(QPoly(n), QPoly(d)) for n, d in corpus["normalize"]], QRat)
    out["exactq.corpus.add_us"] = timed(
        lambda: [(QRat(QPoly(an), QPoly(ad)), QRat(QPoly(bn), QPoly(bd)))
                 for (an, ad), (bn, bd) in corpus["add"]],
        lambda a, b: a + b)
    return out


def makeup(corpus: dict) -> dict:
    def bits(coeffs) -> int:
        return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                    for c in coeffs), default=0)

    norm = corpus["normalize"]
    num_deg = [len(n) - 1 for n, _ in norm]
    den_deg = [len(d) - 1 for _, d in norm]
    return {
        "seed": corpus["seed"],
        "normalize_recorded": corpus["recorded"],
        "normalize_sampled": len(norm),
        "normalize_num_degree_median_max": [statistics.median(num_deg), max(num_deg)],
        "normalize_den_degree_median_max": [statistics.median(den_deg), max(den_deg)],
        "normalize_max_coeff_bits": max(max(bits(n), bits(d)) for n, d in norm),
        "add_pairs": len(corpus["add"]),
        "add_max_den_degree": max(max(len(a[1]), len(b[1])) - 1 for a, b in corpus["add"]),
        "mul_pairs": {str(d): len(p) for d, p in corpus["mul"].items()},
    }


def _to_json(corpus: dict) -> dict:
    def poly(coeffs):
        return [str(c) for c in coeffs]

    return {
        "seed": corpus["seed"],
        "normalize": [[poly(n), poly(d)] for n, d in corpus["normalize"]],
        "add": [[[poly(a[0]), poly(a[1])], [poly(b[0]), poly(b[1])]] for a, b in corpus["add"]],
        "mul": {str(d): [[poly(a), poly(b)] for a, b in pairs]
                for d, pairs in corpus["mul"].items()},
    }


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    corpus = build()
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "corpus.json").write_text(json.dumps(_to_json(corpus)), encoding="utf-8")
    print(json.dumps({"makeup": makeup(corpus), "timings": time_ops(corpus)}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
