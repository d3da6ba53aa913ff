"""One pass of a benchmark workload, run in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py PASS_FILE RESULT_FILE [--trace]

PASS_FILE is written by ``run.py``: the workload, its items (spec file paths,
parameters, expected outputs) and a warm-up item that equals no measured
input.  Every item is run once, so no measured op meets a morphism the
process has seen before and the library's caches start cold, as they do for
a CLI call.  Each op is timed alone; its output is checked after the timer
stops.  RESULT_FILE receives per-op records, the digest of the exact
outputs, the peak resident memory and, with ``--trace``, the spans.

Untraced ops are the library sequence behind one CLI command.  Traced ops
call each stage explicitly, in dependency order, on the same objects, so the
caching the library does still serves later stages; a span records each
call.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
from nvtorus import affine, constructions, morphisms, nielsen, specio
from nvtorus.wreath import Permutation

# Float tolerance between the library's grid verification and the reference
# recomputation below; both evaluate the same formulas in double precision.
FLOAT_TOL = 1e-12


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans [name, start_ns, end_ns, parent index, op id], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter_ns(), None, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()


@contextmanager
def no_span(name):
    yield [name]


# ---------------------------------------------------------------------------
# canonical output forms


def verdict_json(index_map, verdict):
    out = {"slots": list(index_map), "verdict": verdict.outcome.value}
    if verdict.realization is not None:
        out["matrix"] = [gen.vec_str(row) for row in verdict.realization.matrix]
        out["points"] = [gen.vec_str(p) for p in verdict.realization.points]
    if verdict.witness is not None:
        w = verdict.witness
        out["witness"] = {"i": w.index, "z": list(w.z), "cycle_length": w.cycle_length,
                          "value": list(w.value)}
    return out


# ---------------------------------------------------------------------------
# decide-irreducible


def decide_op(item, span):
    if span is no_span:
        psi = specio.load_morphism(item["path"])
        morphisms.validate(psi)
        verdicts = [(m, affine.decide_affine_irreducible(c)) for c, m in morphisms.decompose(psi)]
        return psi, verdicts
    with span("specio.load_morphism"):
        psi = specio.load_morphism(item["path"])
    with span("morphisms.validate"):
        morphisms.validate(psi)
    with span("morphisms.index_orbits"):
        report = morphisms.index_orbits(psi)
    with span("morphisms.linear_part"):
        for orbit in report.orbits:
            morphisms.linear_part(psi, orbit[0])
    with span("morphisms.decompose"):
        parts = morphisms.decompose(psi)
    return psi, [(m, staged_decide(c, span)) for c, m in parts]


def staged_decide(component, span):
    """decide_affine_irreducible, one stage per span."""
    with span("affine.check_necessary") as record:
        verdict = affine.check_necessary(component)
    if verdict.failed:
        record[0] = "affine.check_necessary.not_affine"
        return affine.Verdict(affine.Outcome.NOT_AFFINE, witness=verdict.witness)
    record[0] = "affine.check_necessary.affine"
    with span("affine.affine_data"):
        matrix, points = affine.affine_data(component)
    realization = affine.AffineRealization(component.k, component.n, matrix, points)
    with span("affine.diagnose_realization"):
        reason = affine.diagnose_realization(realization, component)
    if reason is not None:
        raise AssertionError(f"constructed realization failed verification: {reason}")
    return affine.Verdict(affine.Outcome.AFFINE, realization=realization)


def distinct_mod_z(points):
    return all(
        any((a - b).denominator != 1 for a, b in zip(p, q))
        for i, p in enumerate(points) for q in points[i + 1:]
    )


def check_decide(item, output):
    psi, verdicts = output
    got = [verdict_json(m, v) for m, v in verdicts]
    if got != item["expect"]:
        return got, "output differs from the generator's expected verdict"
    for _, verdict in verdicts:
        if verdict.realization is not None:
            r = verdict.realization
            if affine.induced_morphism(r, psi.perms) != psi:
                return got, "realization does not re-induce the spec"
            if not distinct_mod_z(r.points):
                return got, "realization points coincide modulo Z^k"
        else:
            reason = recheck_witness(item["raw"], verdict.witness)
            if reason:
                return got, reason
    return got, None


def recheck_witness(raw, witness):
    """Independent recheck on the generator's images: z moves slot i, and the
    slot-i translation of psi(L z) is divisible by L."""
    i, z, length = witness.index, witness.z, witness.cycle_length
    _, image = gen.w_evaluate(raw, z)
    if image[i - 1] == i:
        return "witness z does not move slot i"
    if gen.cycle_length(image, i) != length:
        return "witness cycle length is wrong"
    trans, _ = gen.w_evaluate(raw, [length * c for c in z])
    if tuple(trans[i - 1]) != tuple(witness.value) or any(v % length for v in witness.value):
        return "witness value fails its recheck"
    return None


# ---------------------------------------------------------------------------
# nielsen-reducible


def nielsen_op(item, span):
    if span is no_span:
        psi = specio.load_morphism(item["path"])
        morphisms.validate(psi)
        report = morphisms.index_orbits(psi)
        torsion = affine.torsion_witness(psi)
        numbers = nielsen.nielsen_of_morphism(psi)
        comps = []
        for c, m in morphisms.decompose(psi):
            r = affine.decide_affine_irreducible(c).realization
            comps.append((m, r, nielsen.count_fixed_points(r)))
        return report, torsion, numbers, comps
    with span("specio.load_morphism"):
        psi = specio.load_morphism(item["path"])
    with span("morphisms.validate"):
        morphisms.validate(psi)
    with span("morphisms.index_orbits"):
        report = morphisms.index_orbits(psi)
    with span("morphisms.linear_part"):
        for i in range(1, psi.n + 1):
            morphisms.linear_part(psi, i)
    with span("affine.torsion_witness"):
        torsion = affine.torsion_witness(psi)
    with span("morphisms.decompose"):
        parts = morphisms.decompose(psi)
    realizations = [(m, staged_decide(c, span).realization) for c, m in parts]
    with span("nielsen.nielsen_of_morphism"):
        numbers = nielsen.nielsen_of_morphism(psi)
    comps = []
    for m, r in realizations:
        with span("nielsen.count_fixed_points"):
            comps.append((m, r, nielsen.count_fixed_points(r)))
    return report, torsion, numbers, comps


def check_nielsen(item, output):
    report, torsion, numbers, comps = output
    reid = numbers.reidemeister
    got = {
        "orbits": [list(o) for o in report.orbits],
        "torsion": list(torsion) if torsion is not None else None,
        "factor_dets": [gen.frac_str(d) for d in numbers.factor_dets],
        "nielsen": gen.frac_str(numbers.nielsen),
        "reidemeister": "inf" if reid == math.inf else gen.frac_str(reid),
        "components": [
            {"slots": list(m), "matrix": [gen.vec_str(row) for row in r.matrix],
             "points": [gen.vec_str(p) for p in r.points], "fixed_points": count}
            for m, r, count in comps
        ],
    }
    if sum(count for _, _, count in comps) != numbers.nielsen:
        return got, "fixed-point count differs from the Nielsen number"
    if reid != numbers.nielsen:
        return got, "Reidemeister number differs from the Nielsen number"
    if got != item["expect"]:
        return got, "output differs from the generator's expected Nielsen data"
    return got, None


# ---------------------------------------------------------------------------
# verify-grid


def prepare_verify(item):
    """Input objects an op receives ready-made: a wrapped realization's data."""
    spec = item["input"]
    if spec["kind"] != "wrap":
        return None
    k, n = spec["k"], spec["n"]
    realization = affine.AffineRealization(
        k, n,
        [[Fraction(a) for a in row] for row in spec["matrix"]],
        [[Fraction(a) for a in p] for p in spec["points"]],
    )
    return realization, [Permutation.parse(text, n) for text in spec["perms"]]


def verify_op(item, span):
    spec = item["input"]
    kind, n, k = spec["kind"], spec["n"], spec["k"]
    if kind == "perturb":
        with span("specio.load_morphism"):
            target = specio.load_morphism(item["path"])
        with span("constructions.build"):
            base = constructions.example_rotation(n, k)
        with span("constructions.epsilon_perturbation"):
            sampled = constructions.epsilon_perturbation(target, base)
    else:
        with span("constructions.build"):
            if kind == "wrap":
                sampled = constructions.wrap_realization(*item["prepared"])
            elif kind == "rotation":
                sampled = constructions.example_rotation(n, k)
            elif kind == "translated":
                sampled = constructions.example_translated(n)
            elif kind == "klein-four":
                sampled = constructions.example_klein_four()
            else:
                sampled = constructions.example_cyclic_four()
    with span("constructions.verify"):
        report = constructions.verify(sampled, grid=spec["grid"])
    return sampled, report


def reference_factors(item, eps=None):
    """Factor values of an item's construction, as a function of an (N, k) array."""
    spec = item["input"]
    kind, n, k = spec["kind"], spec["n"], spec["k"]
    two_pi = 2.0 * math.pi

    def circle(angle):
        return 0.25 * np.cos(angle), 0.25 * np.sin(angle)

    def rotation(i, t):
        out = np.zeros_like(t)
        out[:, 0], out[:, 1] = circle(two_pi * (t[:, 0] + i - 1) / n)
        return out

    if kind == "rotation":
        return rotation
    if kind == "translated":
        def translated(i, t):
            x, y = circle(two_pi * (t[:, 0] + i - 1) / n)
            return np.stack([t[:, 0] + x, y], axis=1)
        return translated
    if kind == "klein-four":
        def klein(i, t):
            a, b = [(0, 0), (1, 0), (0, 1), (1, 1)][i - 1]
            big, small = two_pi * (t[:, 0] + a) / 2, two_pi * (t[:, 1] + b) / 2
            return np.stack([0.25 * np.cos(big) + 0.125 * np.cos(small),
                             0.25 * np.sin(big) + 0.125 * np.sin(small)], axis=1)
        return klein
    if kind == "cyclic-four":
        def cyclic(i, t):
            angle = two_pi * (t[:, 0] + 2 * t[:, 1] + [0, 3, 2, 1][i - 1]) / 4
            return np.stack(circle(angle), axis=1)
        return cyclic
    source = spec if kind == "wrap" else item["expect"]
    matrix = np.array([[float(Fraction(a)) for a in row] for row in source["matrix"]])
    points = [np.array([float(Fraction(a)) for a in p]) for p in source["points"]]
    if kind == "wrap":
        return lambda i, t: t @ matrix.T + points[i - 1]
    return lambda i, t: t @ matrix.T + points[i - 1] + eps * rotation(i, t)


def reference_epsilon(item):
    """epsilon_perturbation's epsilon over example_rotation(n, k), recomputed."""
    spec = item["input"]
    n, k = spec["n"], spec["k"]
    samples = max(9, round(4096 ** (1.0 / k)))
    orders = [n] + [1] * (k - 1)
    axes = np.meshgrid(*[np.arange(samples) * orders[j] / samples for j in range(k)], indexing="ij")
    t = np.stack([a.ravel() for a in axes], axis=1)
    factor = reference_factors({"input": dict(spec, kind="rotation")})
    sup = max(float(np.max(np.abs(factor(i, t)))) for i in range(1, n + 1))
    return 1.0 / (2.0 * max(1.1 * sup, 0.25) * n)


def reference_report(item, factor):
    """Max equivariance residual and min separation on the item's grid."""
    spec = item["input"]
    grid, k, n = spec["grid"], spec["k"], spec["n"]
    axes = np.meshgrid(*[np.arange(grid) / grid] * k, indexing="ij")
    t = np.stack([a.ravel() for a in axes], axis=1)
    values = [factor(i, t) for i in range(1, n + 1)]
    residual = 0.0
    for j, (trans, image) in enumerate(item["raw"]):
        inverse = [0] * n
        for i, a in enumerate(image, start=1):
            inverse[a - 1] = i
        shifted = t + np.eye(k)[j]
        for i in range(1, n + 1):
            expected = np.array(trans[i - 1], dtype=float) + values[inverse[i - 1] - 1]
            residual = max(residual, float(np.max(np.abs(factor(i, shifted) - expected))))
    separation = math.inf
    for a in range(n):
        for b in range(a + 1, n):
            diff = np.abs(values[a] - values[b]) % 1.0
            separation = min(separation, float(np.min(np.max(np.minimum(diff, 1.0 - diff), axis=1))))
    return residual, separation


def check_verify(item, output):
    sampled, report = output
    got = {"samples": report.samples_checked, "passed": report.passed}
    if not report.passed:
        return got, "grid verification failed"
    if report.samples_checked != item["expect"]["samples"]:
        return got, "wrong number of grid samples"
    eps = None
    if item["input"]["kind"] == "perturb":
        meta = sampled.metadata
        if [gen.vec_str(r) for r in meta["matrix"]] != item["expect"]["matrix"] or [
            gen.vec_str(p) for p in meta["points"]
        ] != item["expect"]["points"]:
            return got, "perturbation uses wrong affine data"
        eps = reference_epsilon(item)
        if abs(meta["epsilon"] - eps) > FLOAT_TOL * eps:
            return got, f"epsilon {meta['epsilon']!r} differs from reference {eps!r}"
    residual, separation = reference_report(item, reference_factors(item, eps))
    if abs(report.max_equivariance_residual - residual) > FLOAT_TOL:
        return got, f"residual {report.max_equivariance_residual!r} differs from reference {residual!r}"
    if abs(report.min_pairwise_separation - separation) > FLOAT_TOL:
        return got, f"separation {report.min_pairwise_separation!r} differs from reference {separation!r}"
    return got, None


# ---------------------------------------------------------------------------
# passes

OPS = {
    "decide-irreducible": (decide_op, check_decide),
    "nielsen-reducible": (nielsen_op, check_nielsen),
    "verify-grid": (verify_op, check_verify),
}


def run_pass(workload, items, warmup, trace=False):
    """Run every item once; returns per-op records, outputs digest and counts."""
    op, check = OPS[workload]
    tracer = Tracer() if trace else None
    span = tracer.span if trace else no_span
    for item in [warmup] + items:
        if workload == "verify-grid":
            item["prepared"] = prepare_verify(item)
    op(warmup, no_span)
    records, outputs, points, samples = [], [], 0, 0
    for item in items:
        error, got = None, None
        if tracer:
            tracer.op = item["id"]
        start = time.perf_counter_ns()
        try:
            if tracer:
                with tracer.span("op"):
                    output = op(item, span)
            else:
                output = op(item, span)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            elapsed = time.perf_counter_ns() - start
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        else:
            elapsed = time.perf_counter_ns() - start
            try:
                got, error = check(item, output)
            except Exception as exc:
                error = "check raised " + "".join(traceback.format_exception_only(type(exc), exc)).strip()
        if error is None and workload == "nielsen-reducible":
            points += sum(c["fixed_points"] for c in got["components"])
        if error is None and workload == "verify-grid":
            samples += got["samples"]
        records.append([item["id"], elapsed / 1e6, error])
        outputs.append([item["id"], got])
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return {
        "ops": records,
        "output_digest": digest,
        "points": points,
        "samples": samples,
        "spans": tracer.spans if tracer else [],
    }


def main(argv):
    pass_file, result_file = argv[0], argv[1]
    spec = json.loads(Path(pass_file).read_text())
    result = run_pass(spec["workload"], spec["items"], spec["warmup"], trace="--trace" in argv[2:])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["numpy"] = np.__version__
    Path(result_file).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
