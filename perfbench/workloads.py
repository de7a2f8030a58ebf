"""Seeded inputs for the end-to-end benchmark, and their independent references.

A workload is a list of *cycles*; a cycle is the fixed pipeline of CLI
invocations a user runs for one question (for example ``oracle`` then
``analyze``). Every cycle gets freshly generated inputs, so no per-input cache
can be reused across invocations.

Every reference verdict is computed here from the generating data with numpy
(atoms, operators, complex atom sets), never with momint's own routines:

* atomic tables: ``L(p) = sum_i w_i p(x_i) / sum_i w_i``; with no more atoms
  than the basis has monomials and the atoms in general position, a localized
  moment matrix of ``g`` is PSD exactly when ``w_i g(x_i) >= 0`` at every atom
  (Sylvester's law of inertia on ``V^T diag(w g) V``), and the Rayleigh
  extremes of ``a`` are ``min/max a(x_i)``;
* operators: ``numpy.linalg.eigh(T)`` gives the nodes (eigenvalues) and the
  weights (squared overlaps of the unit start vector with the eigenvectors);
* disc tables: ``sum_i w_i |z_i|^(2n) <= C R^(2n)`` at every stored level, and
  the kernel of a positive measure is PSD.

Draws that would put a reference verdict within rounding of its threshold are
redrawn (``Ambiguous``). Which cycles get an input whose correct verdict is
FAIL is fixed by the cycle index, so every workload has them and seeds change
the data but not the mix.
"""

from __future__ import annotations

import itertools
import json
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEGREE = 16

#: cycles per second of ``--seconds`` at the baseline (pure-Python eigensolver,
#: 2 cores). The per-run sample count is ``round(seconds * rate)``, fixed for a
#: given ``--seconds``, so the tail percentile means the same on every commit.
CYCLES_PER_SECOND = {"real_psd": 0.95, "real_poly": 3.5, "operator_disc": 0.95}

#: disagreement kinds that are known defects of the Hankel-Cholesky spectral
#: reconstruction: its pivot floor grows like rho^(4k), and Hankel matrices are
#: exponentially ill-conditioned. They count as failed invocations like any
#: other disagreement, but do not make a run incorrect. A returned rule must
#: still pass every other check, so none of these excuses a wrong quadrature.
KNOWN_DEFECTS = {
    "spectral_collapse": "exit 2: the Hankel pivot floor left zero nodes",
    "spectral_node_loss": "fewer nodes returned than the operator has eigenvalues; "
                          "the nodes returned are the Gauss rule of their count",
    "spectral_inaccurate": "the rule reproduces the reference moments, but its nodes or "
                           "weights, or the pencil extremes behind the verdict, are off "
                           "the Gauss rule by 1e-8 to SPECTRAL_BAND",
}

#: how far an ill-conditioned reconstruction may land from the k-node Gauss
#: rule (nodes relative to 1 + rho, weights absolute) and still count as the
#: known inaccuracy rather than a wrong quadrature. Over 2200 seeded 16x16
#: operators of this workload the worst node error was 0.019 and the worst
#: weight error 0.049 (99th percentiles 0.0017 and 0.0016); the pencil residual
#: was at most 0.099 (1 + rho).
SPECTRAL_BAND = 0.2
#: a returned rule must reproduce the reference moments m_0 .. m_(2k-1) to
#: this relative residual; the worst seen on those operators was 1.8e-10
MOMENT_MATCH = 1e-8


class Disagreement(Exception):
    """A report that does not match the reference; ``kind`` classifies it."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


@dataclass
class Step:
    """One CLI invocation: its argv, the file it writes and its reference check.

    ``check(rc, stderr, ref)`` raises Disagreement when the invocation's exit
    code or written report disagrees with the reference; it makes its
    comparisons through ``ref`` (a Reference), which counts them.
    """

    command: str
    argv: list
    out: str
    check: Callable[[int, str, "Reference"], None]


class Reference:
    """Makes a run's reference comparisons and counts them, held or not."""

    def __init__(self):
        self.comparisons = 0

    def expect(self, condition: bool, kind: str, detail: str):
        self.comparisons += 1
        if not condition:
            raise Disagreement(kind, detail)


def close(got: float, want: float, atol: float) -> bool:
    return abs(float(got) - float(want)) <= atol


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def expect_exit(ref: Reference, rc, passed: bool):
    want = 0 if passed else 1
    ref.expect(rc == want, "wrong_verdict", f"exit {rc}, reference says exit {want}")


# -- polynomials as (coefficient, exponents) term lists -----------------------


def var_names(d: int) -> list:
    return [f"x{i + 1}" for i in range(d)]


def poly_text(terms) -> str:
    """Render terms in the CLI's polynomial syntax; coefficients have 2 decimals
    so the parsed floats equal the ones the reference evaluates."""
    pieces = []
    for coeff, exps in terms:
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(var_names(len(exps)), exps)
            if e
        ]
        body = "*".join([f"{abs(coeff):.2f}"] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def poly_eval(terms, points: np.ndarray) -> np.ndarray:
    values = np.zeros(points.shape[0])
    for coeff, exps in terms:
        values += coeff * np.prod(points ** np.array(exps), axis=1)
    return values


def poly_degree(terms) -> int:
    return max(sum(exps) for _, exps in terms)


def coeff2(rng, lo: float, hi: float) -> float:
    """A coefficient that survives the 2-decimal text round trip exactly."""
    while True:
        c = float(f"{rng.uniform(lo, hi):.2f}")
        if c != 0.0:
            return c


def unit(d: int, j: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(d))


def random_linear(rng, d: int, constant: bool = True):
    terms = [(coeff2(rng, -1.0, 1.0), unit(d, j)) for j in range(d) if rng.random() < 0.8]
    if not terms:
        terms = [(coeff2(rng, -1.0, 1.0), unit(d, int(rng.integers(d))))]
    if constant:
        terms.append((coeff2(rng, -0.5, 0.5), (0,) * d))
    return terms


def random_quadratic(rng, d: int):
    i, j = (int(v) for v in rng.integers(d, size=2))
    exps = tuple(int(i == k) + int(j == k) for k in range(d))
    return [(coeff2(rng, -1.0, 1.0), exps)] + random_linear(rng, d)


# -- references on atomic tables ----------------------------------------------


def monomials(d: int, max_degree: int) -> list:
    return [
        idx
        for idx in itertools.product(range(max_degree + 1), repeat=d)
        if sum(idx) <= max_degree
    ]


def raw_moments(points: np.ndarray, weights: np.ndarray, max_degree: int) -> dict:
    """Unnormalized moments sum_i w_i x_i^alpha of a (possibly signed) table."""
    return {
        idx: float(np.sum(weights * np.prod(points ** np.array(idx), axis=1)))
        for idx in monomials(points.shape[1], max_degree)
    }


def functional(values: np.ndarray, weights: np.ndarray) -> float:
    """L(p) for p given by its values at the atoms, on the unit-mass table."""
    return float(np.sum(weights * values) / np.sum(weights))


#: bound on the rounding error of L(q) computed from moments in the monomial
#: basis, relative to L(q_abs): q_abs has q's coefficients made absolute and
#: is evaluated at |x|. Sums over ~1e3 monomials after ~20 products need at
#: most a few 1e3 ulps; the worst ratio seen on random d=3 degree-16 tables
#: was 3e-15.
ROUNDING = 1e-12


class Ambiguous(Exception):
    """A reference verdict lies within rounding of its threshold: redraw."""


def exceeds(value: float, err: float, threshold: float) -> bool:
    """Is value > threshold, given that value is known to within err?"""
    if abs(value - threshold) <= err + 1e-12 * (1.0 + abs(threshold)):
        raise Ambiguous
    return value > threshold


def redrawn(make):
    """Draw again until no reference verdict is ambiguous."""

    def draw(rng, stem, index):
        while True:
            try:
                return make(rng, stem, index)
            except Ambiguous:
                continue

    return draw


def abs_terms(terms):
    return [(abs(c), e) for c, e in terms]


def rounding_error(abs_values: np.ndarray, weights: np.ndarray) -> float:
    return ROUNDING * functional(abs_values, weights)


def growth_reference(values, abs_values, weights, n_used: int) -> tuple:
    """(value, err): max_n L(a^(2n))^(1/(2n)), negative values clamped to zero
    as documented, and how far the root can move within the rounding bound."""
    value = lo = hi = 0.0
    for n in range(1, n_used + 1):
        power = functional(values ** (2 * n), weights)
        err = rounding_error(abs_values ** (2 * n), weights)
        value = max(value, max(power, 0.0) ** (1.0 / (2 * n)))
        lo = max(lo, max(power - err, 0.0) ** (1.0 / (2 * n)))
        hi = max(hi, max(power + err, 0.0) ** (1.0 / (2 * n)))
    return value, max(hi - value, value - lo)


def check_tolerance(points: np.ndarray, weights: np.ndarray) -> float:
    """The documented check tolerance 1e-9 * (1 + largest unit-mass moment)."""
    mass = float(np.sum(weights))
    peak = max(abs(v) / mass for v in raw_moments(points, weights, DEGREE).values())
    return 1e-9 * (1.0 + peak)


def moment_document(points, weights) -> dict:
    return {
        "dimension": int(points.shape[1]),
        "max_degree": DEGREE,
        "moments": [
            {"index": list(idx), "value": v}
            for idx, v in raw_moments(points, weights, DEGREE).items()
        ],
    }


def measure_document(points, weights) -> dict:
    return {
        "atoms": [
            {"point": [float(x) for x in p], "weight": float(w)}
            for p, w in zip(points, weights)
        ]
    }


def _margin(values, threshold: float = 0.05) -> bool:
    return bool(np.all(np.abs(np.asarray(values)) >= threshold))


def oracle_step(points, weights, stem: str) -> Step:
    measure = write_json(f"{stem}.measure.json", measure_document(points, weights))
    out = f"{stem}.moments.json"
    mass = float(np.sum(weights))
    expected = raw_moments(points, weights, DEGREE)

    def check(rc, stderr, ref):
        ref.expect(rc == 0, "wrong_verdict", f"oracle exit {rc}: {stderr.strip()}")
        doc = read_json(out)
        table = {tuple(m["index"]): m["value"] for m in doc["moments"]}
        ref.expect(
            doc["dimension"] == points.shape[1] and doc["max_degree"] == DEGREE
            and len(table) == len(expected),
            "wrong_moments", "table shape",
        )
        for idx, raw in expected.items():
            want = raw / mass
            ref.expect(close(table[idx], want, 1e-11 * (1.0 + abs(want))), "wrong_moments",
                   f"moment {idx}: {table[idx]!r} vs {want!r}")

    argv = ["oracle", measure, "--degree", str(DEGREE), "--out", out, "--quiet"]
    return Step("oracle", argv, out, check)


# -- real_psd: oracle -> analyze (d=3) and oracle -> certify (2-D PSD checks) --


def analyze_cycle_steps(rng, stem: str, index: int) -> list:
    """d=3 table of 3 atoms, 3 polynomials. Every fourth table is signed (a
    negative atom the oracle cannot express, so the benchmark writes the
    moment document itself): its correct PSD verdict is FAIL."""
    k = 3
    points = rng.uniform(-1.0, 1.0, (k, 3))
    weights = rng.uniform(0.5, 1.5, k)
    while True:
        polys = [random_linear(rng, 3), random_linear(rng, 3), random_quadratic(rng, 3)]
        if all(_margin(poly_eval(p, points)) for p in polys):
            break
    steps = [oracle_step(points, weights, stem + ".a")]
    signed = index % 4 == 3
    if signed:
        neg_point = rng.uniform(-1.0, 1.0, (1, 3))
        neg_weight = -rng.uniform(0.2, 0.5) * float(np.min(weights))
        table = write_json(
            f"{stem}.signed.json",
            moment_document(np.vstack([points, neg_point]), np.append(weights, neg_weight)),
        )
    else:
        table = steps[0].out
    texts = [poly_text(p) for p in polys]
    out = f"{stem}.analyze.json"

    def check(rc, stderr, ref):
        expect_exit(ref, rc, not signed)
        report = read_json(out)
        ref.expect(report["results"]["psd"]["is_psd"] is (not signed), "wrong_verdict", "psd verdict")
        if signed:
            return
        for text, terms in zip(texts, polys):
            entry = report["results"]["polynomials"][text]
            vals = poly_eval(terms, points)
            lo, hi, top2 = float(vals.min()), float(vals.max()), float(np.max(vals**2))
            tol = 1e-6 * (1.0 + top2)
            ray = entry["rayleigh"]
            ref.expect(close(ray["lower"], lo, tol) and close(ray["upper"], hi, tol),
                   "wrong_bound", f"{text}: rayleigh [{ray['lower']}, {ray['upper']}] vs [{lo}, {hi}]")
            ref.expect(close(entry["archimedean_linear"]["value"], hi, tol), "wrong_bound",
                   f"{text}: archimedean linear {entry['archimedean_linear']['value']} vs {hi}")
            ref.expect(close(entry["archimedean_square"]["value"], top2, tol), "wrong_bound",
                   f"{text}: archimedean square {entry['archimedean_square']['value']} vs {top2}")
            ref.expect(close(entry["square_norm_bound"]["value"], top2, tol), "wrong_bound",
                   f"{text}: square norm {entry['square_norm_bound']['value']} vs {top2}")
            growth, err = growth_reference(vals, poly_eval(abs_terms(terms), np.abs(points)),
                                           weights, DEGREE // (2 * poly_degree(terms)))
            got = entry["growth_bound"]["value"]
            ref.expect(close(got, growth, err + 1e-12 * (1.0 + growth)), "wrong_bound",
                   f"{text}: growth {got} vs {growth} +- {err:.1e}")
            ref.expect(entry["membership_psd"]["is_psd"] is bool(np.all(vals >= 0)),
                   "wrong_verdict", f"{text}: membership verdict")

    argv = ["analyze", table]
    for text in texts:
        argv += ["--poly", text]
    argv += ["--out", out, "--quiet"]
    steps.append(Step("analyze", argv, out, check))
    return steps


@redrawn
def certify_psd_cycle_steps(rng, stem: str, index: int) -> list:
    """2-D atomic table in a box; schmudgen, interval and ball checks at order 4.

    Every third table puts one atom outside the box, and every fourth gets a
    ball radius below the farthest atom: both FAIL."""
    lo = np.array([coeff2(rng, -0.2, 0.1) for _ in range(2)])
    hi = np.array([coeff2(rng, 0.9, 1.2) for _ in range(2)])
    k = 5
    points = rng.uniform(lo + 0.1, hi - 0.1, (k, 2))
    if index % 3 == 1:
        j = int(rng.integers(2))
        step_out = rng.uniform(0.1, 0.2)
        points[0, j] = lo[j] - step_out if rng.random() < 0.5 else hi[j] + step_out
    weights = rng.uniform(0.5, 1.5, k)
    tol = check_tolerance(points, weights)
    sq = np.sum(points**2, axis=1)
    factor = rng.uniform(0.8, 0.95) if index % 4 == 2 else rng.uniform(1.05, 1.3)
    radius = float(np.sqrt(np.max(sq))) * factor
    if not _margin(radius**2 - sq, 0.02):
        raise Ambiguous
    growth, err = growth_reference(sq, sq, weights, DEGREE // 4)
    ball = int(np.any(sq > radius**2)) + int(exceeds(growth, err, radius**2 + tol))

    x = [[(1.0, (1, 0))], [(1.0, (0, 1))]]
    constraints = []
    for j in range(2):
        constraints.append(x[j] + [(-lo[j], (0, 0))])
        constraints.append([(hi[j], (0, 0))] + [(-1.0, unit(2, j))])
    g = np.column_stack([poly_eval(c, points) for c in constraints])
    config = {
        "checks": [
            {"check": "schmudgen", "constraints": [poly_text(c) for c in constraints], "order": 4},
            {
                "check": "interval",
                "entries": [
                    {"poly": f"x{j + 1}", "lower": float(lo[j]), "upper": float(hi[j])}
                    for j in range(2)
                ],
                "order": 4,
            },
            {"check": "ball", "radius": radius, "order": 4},
        ]
    }
    # with weights positive and 5 atoms below the 15 monomials of order 4, a
    # localized matrix is PSD exactly when its shift is >= 0 at every atom
    schmudgen = sum(
        bool(np.any(np.prod(g[:, list(subset)], axis=1) < 0))
        for size in range(5)
        for subset in itertools.combinations(range(4), size)
    )
    interval = 0
    for j in range(2):
        m = max(abs(lo[j]), abs(hi[j]))
        interval += int(np.any(points[:, j] < lo[j])) + int(np.any(points[:, j] > hi[j]))
        interval += int(np.any(points[:, j] ** 2 > m * m))
    expected = [("schmudgen", schmudgen, 16, 0), ("interval", interval, 6, 0), ("ball", ball, 2, 0)]
    steps = [oracle_step(points, weights, stem + ".b")]
    config_path = write_json(f"{stem}.checks.json", config)
    out = f"{stem}.certify.json"
    steps.append(certify_step(steps[0].out, config_path, out, expected))
    return steps


def certify_step(moments: str, config: str, out: str, expected: list) -> Step:
    """certify invocation checked per check: verdict, violation count, attempted
    and skipped evaluations, and the exit code."""

    def check(rc, stderr, ref):
        passed = all(violations == 0 for _, violations, _, _ in expected)
        expect_exit(ref, rc, passed)
        rendered = read_json(out)["results"]["checks"]
        ref.expect(len(rendered) == len(expected), "wrong_report", "check count")
        for got, (name, violations, attempted, skipped) in zip(rendered, expected):
            ref.expect(got["check"] == name, "wrong_report", f"check order {got['check']}")
            ref.expect(got["passed"] is (violations == 0) and len(got["violations"]) == violations,
                   "wrong_verdict",
                   f"{name}: {len(got['violations'])} violations, reference {violations}")
            ref.expect(got["attempted"] == attempted and got["skipped"] == skipped, "wrong_report",
                   f"{name}: attempted/skipped {got['attempted']}/{got['skipped']}, "
                   f"reference {attempted}/{skipped}")

    argv = ["certify", moments, config, "--out", out, "--quiet"]
    return Step("certify", argv, out, check)


def real_psd_cycle(rng, stem: str, index: int) -> list:
    return analyze_cycle_steps(rng, stem, index) + certify_psd_cycle_steps(rng, stem, index)


# -- real_poly: oracle -> certify (products, cone, growth, weak absolute value) --


@redrawn
def real_poly_cycle(rng, stem: str, index: int) -> list:
    """d=3 table of 4 atoms; every third table puts one atom outside the cube
    the product factors assume. Verdicts are decided by L(p) = sum w p(x_i)."""
    k = 4
    points = rng.uniform(-0.9, 0.9, (k, 3))
    if index % 3 == 0:
        points[0, int(rng.integers(3))] = rng.choice([-1.0, 1.0]) * rng.uniform(1.1, 1.3)
    weights = rng.uniform(0.5, 1.5, k)
    tol = check_tolerance(points, weights)
    at = np.abs(points)

    def lin():
        return [(coeff2(rng, -0.45, 0.45), unit(3, j)) for j in range(3)]

    # products: factor pairs (1 - a, 1 + a) of degrees 1, 1 and 4, up to 5
    # factors, so the longest products of the quartic pair exceed degree 16
    pairs = [lin(), lin(), [(coeff2(rng, 0.5, 0.9), (2, 1, 1))]]
    alphabet = []
    for a in pairs:
        alphabet.append([(1.0, (0, 0, 0))] + [(-c, e) for c, e in a])
        alphabet.append([(1.0, (0, 0, 0))] + a)
    letters = [(poly_eval(p, points), poly_eval(abs_terms(p), at), poly_degree(p))
               for p in alphabet]
    max_factors = 5
    products = [0, 0, 0]
    for length in range(1, max_factors + 1):
        for combo in itertools.combinations_with_replacement(range(len(alphabet)), length):
            if sum(letters[c][2] for c in combo) > DEGREE:
                products[2] += 1
                continue
            products[1] += 1
            value = functional(np.prod([letters[c][0] for c in combo], axis=0), weights)
            err = rounding_error(np.prod([letters[c][1] for c in combo], axis=0), weights)
            products[0] += int(exceeds(-value, err, tol))

    # cone: the growth bounds c_a, c_b are known to within their rounding, so
    # each verdict must hold at both ends of that range
    a_terms, b_terms = random_linear(rng, 3, constant=False), random_linear(rng, 3, constant=False)
    a_vals, b_vals = poly_eval(a_terms, points), poly_eval(b_terms, points)
    a_abs, b_abs = poly_eval(abs_terms(a_terms), at), poly_eval(abs_terms(b_terms), at)
    c_a, e_a = growth_reference(a_vals, a_abs, weights, DEGREE // 2)
    c_b, e_b = growth_reference(b_vals, b_abs, weights, DEGREE // 2)
    cone = [0, 2 * 15 - 1, 0]
    for j in range(5):
        for kk in range(5 - j):
            for prefactor in (False, True):
                if not prefactor and j == 0 and kk == 0:
                    continue
                verdicts = set()
                for ca, cb in itertools.product((c_a - e_a, c_a + e_a), (c_b - e_b, c_b + e_b)):
                    vals = (ca - a_vals) ** j * (ca + a_vals) ** kk
                    bound = (ca + a_abs) ** (j + kk)
                    if prefactor:
                        vals, bound = vals * (cb * cb - b_vals**2), bound * (cb * cb + b_abs**2)
                    verdicts.add(exceeds(-functional(vals, weights),
                                         rounding_error(bound, weights), tol))
                if len(verdicts) > 1:
                    raise Ambiguous
                cone[0] += int(verdicts.pop())

    gens = [random_linear(rng, 3, constant=False), [(coeff2(rng, 0.5, 1.0), (1, 1, 0))]]
    bounds = [float(np.max(np.abs(poly_eval(t, points)))) * rng.uniform(0.85, 1.2) for t in gens]
    growth = [0, 0, 0]
    for terms, bound in zip(gens, bounds):
        vals, vals_abs = poly_eval(terms, points), poly_eval(abs_terms(terms), at)
        for n in range(1, DEGREE // (2 * poly_degree(terms)) + 1):
            value = functional(vals ** (2 * n), weights)
            err = rounding_error(vals_abs ** (2 * n), weights)
            growth[1] += 1
            growth[0] += int(exceeds(value, err, bound ** (2 * n) + tol))

    wav_terms = [random_linear(rng, 3), random_linear(rng, 3, constant=False)]
    values = []
    wav = [0, 2 * len(wav_terms), 0]
    for terms in wav_terms:
        vals, vals_abs = poly_eval(terms, points), poly_eval(abs_terms(terms), at)
        v_a = float(np.max(np.abs(vals))) * rng.uniform(0.9, 1.3)
        values.append(v_a)
        g, err = growth_reference(vals, vals_abs, weights, DEGREE // 2)
        wav[0] += int(exceeds(g, err, v_a + tol))
        applied = abs(functional(vals, weights))
        wav[0] += int(exceeds(applied, rounding_error(vals_abs, weights), v_a + tol))

    config = {
        "checks": [
            {
                "check": "products",
                "factors": [
                    {"upper": poly_text(alphabet[2 * i]), "lower": poly_text(alphabet[2 * i + 1])}
                    for i in range(len(pairs))
                ],
                "max_factors": max_factors,
            },
            {"check": "cone", "a": poly_text(a_terms), "b": poly_text(b_terms), "jk_max": 4},
            {
                "check": "growth",
                "generators": [
                    {"poly": poly_text(t), "bound": b, "prefactor": 1.0} for t, b in zip(gens, bounds)
                ],
            },
            {
                "check": "weak_absolute_value",
                "entries": [{"poly": poly_text(t), "value": v} for t, v in zip(wav_terms, values)],
                "functional_bound": 1.0,
            },
        ]
    }
    expected = [
        ("products", *products),
        ("cone", *cone),
        ("growth", *growth),
        ("weak_absolute_value", *wav),
    ]
    steps = [oracle_step(points, weights, stem + ".p")]
    config_path = write_json(f"{stem}.checks.json", config)
    steps.append(certify_step(steps[0].out, config_path, f"{stem}.certify.json", expected))
    return steps


# -- operator_disc: spectral on 16x16 operators, disc at level 10 --------------


def gauss_rule(eigenvalues: np.ndarray, weights: np.ndarray, k: int) -> tuple:
    """(nodes, weights) of the k-node Gauss rule of sum_i w_i delta(lambda_i):
    k Lanczos steps on diag(eigenvalues) from sqrt(weights), with full
    reorthogonalization, give the Jacobi matrix; its eigh gives the rule."""
    basis = np.zeros((len(eigenvalues), k))
    basis[:, 0] = np.sqrt(weights / np.sum(weights))
    alpha, beta = np.zeros(k), np.zeros(k - 1)
    for j in range(k):
        v = eigenvalues * basis[:, j]
        alpha[j] = basis[:, j] @ v
        for _ in range(2):
            v -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ v)
        if j + 1 < k:
            beta[j] = np.linalg.norm(v)
            basis[:, j + 1] = v / beta[j]
    nodes, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, np.sum(weights) * vectors[0] ** 2


def spectral_step(rng, stem: str) -> Step:
    """16x16 symmetric operator with spectral radius drawn from [0.5, 3].

    The reference measure is eigh's: nodes are the eigenvalues, weights the
    squared overlaps of the unit start vector with the eigenvectors. Whatever
    node count k comes back, the rule must be k increasing nodes with positive
    weights that reproduce the reference moments m_0 .. m_(2k-1) and lie within
    SPECTRAL_BAND of the reference k-node Gauss rule; only then are a short
    count, an error above 1e-8 and the verdict judged."""
    n = 16
    raw = rng.normal(size=(n, n))
    matrix = 0.5 * (raw + raw.T)
    rho = rng.uniform(0.5, 3.0)
    matrix *= rho / float(np.max(np.abs(np.linalg.eigvalsh(matrix))))
    vector = rng.normal(size=n)
    path = write_json(f"{stem}.operator.json", {"matrix": matrix.tolist(), "vector": vector.tolist()})
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    weights = (eigenvectors.T @ (vector / np.linalg.norm(vector))) ** 2
    scale = 1.0 + rho
    out = f"{stem}.spectral.json"

    def check(rc, stderr, ref):
        if rc == 2 and "supports only 0 quadrature nodes" in stderr:
            raise Disagreement("spectral_collapse", f"rho={rho:.3f}: {stderr.strip()}")
        ref.expect(rc in (0, 1), "wrong_exit", f"exit {rc}: {stderr.strip()}")
        report = read_json(out)
        results = report["results"]
        ref.expect((rc == 0) is (report["passed"] is True), "wrong_exit",
               f"exit {rc} with passed={report['passed']}")
        interval = results["rayleigh_interval"]
        ref.expect(close(interval[0], eigenvalues[0], 1e-10 * scale)
               and close(interval[1], eigenvalues[-1], 1e-10 * scale),
               "wrong_interval", f"{interval} vs [{eigenvalues[0]}, {eigenvalues[-1]}]")
        nodes = np.array(results["nodes"], dtype=float)
        got_weights = np.array(results["weights"], dtype=float)
        k = len(nodes)
        ref.expect(1 <= k <= n and len(got_weights) == k and bool(np.all(np.diff(nodes) > 0))
               and bool(np.all(got_weights > 0)), "wrong_quadrature",
               f"rho={rho:.3f}: {k} nodes, {len(got_weights)} weights, not increasing and positive")
        powers = np.arange(2 * k)[:, None]
        want = (eigenvalues ** powers) @ weights
        residual = float(np.max(np.abs((nodes ** powers) @ got_weights - want) / (1.0 + np.abs(want))))
        ref.expect(residual <= MOMENT_MATCH, "wrong_quadrature",
               f"rho={rho:.3f}: moment residual {residual:.2e} against the reference")
        gauss_nodes, gauss_weights = gauss_rule(eigenvalues, weights, k)
        error = max(float(np.max(np.abs(nodes - gauss_nodes))) / scale,
                    float(np.max(np.abs(got_weights - gauss_weights))))
        ref.expect(error <= SPECTRAL_BAND, "wrong_quadrature",
               f"rho={rho:.3f}: {k}-node rule off the Gauss rule by {error:.2e}")
        ref.expect(k == n, "spectral_node_loss", f"rho={rho:.3f}: {k} of {n} nodes")
        ref.expect(error <= 1e-8, "spectral_inaccurate", f"rho={rho:.3f}: error {error:.2e}")
        if not report["passed"]:
            pencil = float(results["pencil_agreement_residual"])
            ref.expect(1e-8 < pencil <= SPECTRAL_BAND * scale, "wrong_verdict",
                   f"rho={rho:.3f}: accurate rule judged FAIL, pencil residual {pencil:.2e}")
            raise Disagreement("spectral_inaccurate",
                               f"rho={rho:.3f}: accurate rule, pencil extremes off by {pencil:.2e}")

    argv = ["spectral", path, "--out", out, "--quiet"]
    return Step("spectral", argv, out, check)


def disc_step(rng, stem: str, index: int) -> Step:
    """Complex atoms at level 10; two sets in five put one atom at 1.3-1.6 R,
    which the diagonal condition at level 10 must reject."""
    level = 10
    while True:
        k = int(rng.integers(3, 6))
        radius = rng.uniform(0.8, 1.5)
        moduli = radius * rng.uniform(0.2, 0.9, k)
        outside = index % 5 in (1, 3)
        if outside:
            moduli[0] = radius * rng.uniform(1.3, 1.6)
        z = moduli * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
        weights = rng.uniform(0.5, 1.5, k)
        constant = float(np.sum(weights)) * rng.uniform(1.1, 1.6)
        diag = np.array([np.sum(weights * np.abs(z) ** (2 * n)) for n in range(level + 1)])
        limits = constant * radius ** (2 * np.arange(level + 1))
        table = np.array([[np.sum(weights * z**n * np.conj(z) ** m) for n in range(level + 1)]
                          for m in range(level + 1)])
        tol = 1e-9 * (1.0 + float(np.max(np.abs(table))))
        try:
            diag_violations = sum(exceeds(d, ROUNDING * d, lim + tol) for d, lim in zip(diag, limits))
        except Ambiguous:
            continue
        # the two reference readings agree: every |z| <= R exactly when the
        # diagonal condition holds through level 10
        if (diag_violations > 0) == outside:
            break
    growth = max(diag[n] ** (1.0 / (2 * n)) for n in range(1, level + 1))
    doc = {
        "max_level": level,
        "atoms": [{"re": float(v.real), "im": float(v.imag), "weight": float(w)}
                  for v, w in zip(z, weights)],
    }
    path = write_json(f"{stem}.disc_atoms.json", doc)
    out = f"{stem}.disc.json"

    def check(rc, stderr, ref):
        expect_exit(ref, rc, diag_violations == 0)
        results = read_json(out)["results"]
        ref.expect(results["kernel_psd"]["is_psd"] is True, "wrong_verdict",
               "kernel of a positive measure judged not PSD")
        ref.expect(len(results["disc"]["violations"]) == diag_violations, "wrong_verdict",
               f"{len(results['disc']['violations'])} violations, reference {diag_violations}")
        got = results["diagonal_growth"]["value"]
        ref.expect(close(got, growth, 1e-9 * (1.0 + growth)), "wrong_bound",
               f"diagonal growth {got} vs {growth}")

    argv = ["disc", path, "--radius", repr(radius), "--constant", repr(constant),
            "--out", out, "--quiet"]
    return Step("disc", argv, out, check)


def operator_disc_cycle(rng, stem: str, index: int) -> list:
    return [spectral_step(rng, stem), disc_step(rng, stem, index)]


CYCLES = {
    "real_psd": real_psd_cycle,
    "real_poly": real_poly_cycle,
    "operator_disc": operator_disc_cycle,
}


def build(workload: str, seed: int, cycles: int, workdir: str) -> list:
    """Generate ``cycles`` cycles of fresh inputs, written under ``workdir``.

    The share of inputs whose verdict is FAIL is fixed by the cycle index, so
    seeds change the data but not the mix."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    make = CYCLES[workload]
    return [make(rng, os.path.join(workdir, f"c{i:04d}"), i) for i in range(cycles)]
