"""Command-line front end.

Subcommands: validate, analyze, decide, nielsen, rebase, example.  Input is
a JSON morphism spec (see `specio`); output is human-readable text or, with
--json, a stable JSON document.  Exit codes: 0 for ok/affine, 2 when decide
finds a non-affine (component) morphism, 1 for any error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import affine, constructions, nielsen, specio
from .errors import ComponentNotAffine, NvTorusError
from .lattices import lattice_index
from .morphisms import decompose, index_orbits, linear_part


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(specio.fraction_to_str(Fraction(a)) for a in vec) + ")"


def _fmt_mat(mat) -> str:
    rows = [
        "[" + ", ".join(specio.fraction_to_str(Fraction(a)) for a in row) + "]"
        for row in mat
    ]
    return "[" + ", ".join(rows) + "]"


def _vec_json(vec) -> list:
    return [specio.fraction_to_str(Fraction(a)) for a in vec]


def _mat_json(mat) -> list:
    return [_vec_json(row) for row in mat]


def _witness_json(witness: affine.Witness) -> dict:
    return {
        "i": witness.index,
        "z": list(witness.z),
        "cycle_length": witness.cycle_length,
        "value": list(witness.value),
    }


def _realization_json(r: affine.AffineRealization) -> dict:
    return {
        "k": r.k,
        "n": r.n,
        "matrix": _mat_json(r.matrix),
        "points": [_vec_json(p) for p in r.points],
    }


def _parse_vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise NvTorusError(f"cannot parse integer vector {text!r}") from None


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    psi = specio.load_morphism(args.file)
    _emit(
        args,
        {"command": "validate", "ok": True, "k": psi.k, "n": psi.n},
        [f"OK: valid morphism with k={psi.k}, n={psi.n}"],
    )
    return 0


def cmd_analyze(args) -> int:
    psi = specio.load_morphism(args.file)
    report = index_orbits(psi)
    torsion = affine.torsion_witness(psi)
    orbits_payload = []
    human = [f"k={psi.k} n={psi.n}", f"irreducible: {report.irreducible}"]
    for orbit, lattice in zip(report.orbits, report.stabilizers):
        index = lattice_index(lattice)
        matrix = linear_part(psi, orbit[0])
        orbits_payload.append(
            {
                "slots": list(orbit),
                "stabilizer_rows": [list(r) for r in lattice.rows],
                "stabilizer_index": "inf" if index == math.inf else index,
                "linear_part": _mat_json(matrix),
            }
        )
        human.append(
            f"orbit {list(orbit)}: stabilizer rows {[list(r) for r in lattice.rows]}"
            f", index {index}, linear part {_fmt_mat(matrix)}"
        )
    human.append(
        "torsion in image: "
        + (f"yes, witness z={_fmt_vec(torsion)}" if torsion else "no")
    )
    payload = {
        "command": "analyze",
        "k": psi.k,
        "n": psi.n,
        "irreducible": report.irreducible,
        "orbits": orbits_payload,
        "torsion": {
            "present": torsion is not None,
            "witness": list(torsion) if torsion else None,
        },
    }
    _emit(args, payload, human)
    return 0


def _decide_component(component, full_box_check: bool):
    verdict = affine.decide_affine_irreducible(component)
    if full_box_check:
        box = affine.scan_full_box(component)
        if box.failed != verdict.failed:
            raise NvTorusError(
                "coset-scan verdict disagrees with the full box scan"
            )
    return verdict


def cmd_decide(args) -> int:
    psi = specio.load_morphism(args.file)
    parts = decompose(psi)
    components_payload = []
    human = []
    any_not_affine = False
    for component, index_map in parts:
        verdict = _decide_component(component, args.full_box_check)
        entry: dict = {"slots": list(index_map), "verdict": verdict.outcome.value}
        if verdict.outcome is affine.Outcome.AFFINE:
            r = verdict.realization
            entry["realization"] = _realization_json(r)
            human.append("AFFINE" if len(parts) == 1 else f"component {list(index_map)}: AFFINE")
            human.append(f"  A = {_fmt_mat(r.matrix)}")
            for i, p in enumerate(r.points, start=1):
                human.append(f"  a_{i} = {_fmt_vec(p)}")
        else:
            any_not_affine = True
            w = verdict.witness
            entry["witness"] = _witness_json(w)
            head = "NOT AFFINE" if len(parts) == 1 else f"component {list(index_map)}: NOT AFFINE"
            human.append(head)
            human.append(
                f"  witness: i={w.index}, z={_fmt_vec(w.z)}, "
                f"phi({w.cycle_length}z)={_fmt_vec(w.value)} in {w.cycle_length}*Z^{psi.k}"
            )
        components_payload.append(entry)
    if len(parts) > 1:
        human.append(
            "note: verdicts are per irreducible component; no global claim is made"
        )
    payload = {
        "command": "decide",
        "irreducible": len(parts) == 1,
        "overall": "not_affine" if any_not_affine else "affine",
        "components": components_payload,
    }
    _emit(args, payload, human)
    return 2 if any_not_affine else 0


def _report_json(report: nielsen.NielsenReport) -> dict:
    reid = report.reidemeister
    out = {
        "factor_dets": [specio.fraction_to_str(d) for d in report.factor_dets],
        "reidemeister": "inf" if reid == math.inf else specio.fraction_to_str(reid),
        "nielsen": specio.fraction_to_str(report.nielsen),
        "nielsen_integral": report.nielsen_integral,
    }
    if report.components is not None:
        out["components"] = [
            {"slots": list(c.indices), **_report_json(c.report)}
            for c in report.components
        ]
    return out


def cmd_nielsen(args) -> int:
    psi = specio.load_morphism(args.file)
    try:
        report = nielsen.nielsen_of_morphism(psi)
    except ComponentNotAffine as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reid = report.reidemeister
    human = [
        f"N = {specio.fraction_to_str(report.nielsen)}",
        f"R = {'inf' if reid == math.inf else specio.fraction_to_str(reid)}",
        "factor dets: "
        + ", ".join(specio.fraction_to_str(d) for d in report.factor_dets),
    ]
    if not report.nielsen_integral:
        human.append("warning: Nielsen number is not an integer")
    _emit(args, {"command": "nielsen", **_report_json(report)}, human)
    return 0


def cmd_rebase(args) -> int:
    psi = specio.load_morphism(args.file)
    z = _parse_vec(args.z)
    decomposition = [_parse_vec(part) for part in args.decomposition.split(";")]
    rebased = affine.rebase_lift(psi, args.index, z, decomposition)
    text = specio.dumps_morphism(rebased)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_example(args) -> int:
    name = args.name
    if name not in constructions.BUILTIN_EXAMPLES:
        raise NvTorusError(
            f"unknown example {name!r}; choose from "
            + ", ".join(sorted(constructions.BUILTIN_EXAMPLES))
        )
    if name == "rotation":
        sampled = constructions.example_rotation(args.n, args.k)
    elif name == "translated":
        sampled = constructions.example_translated(args.n)
    else:
        sampled = constructions.BUILTIN_EXAMPLES[name]()
    if args.perturb:
        target = specio.load_morphism(args.perturb)
        sampled = constructions.epsilon_perturbation(target, sampled)
    report = constructions.verify(
        sampled, grid=args.grid, tol_eq=args.tol_eq, sep_min=args.sep_min
    )
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            constructions.dump_samples_csv(sampled, args.grid, handle)
    meta = {
        key: value
        for key, value in sampled.metadata.items()
        if isinstance(value, (str, int, float))
    }
    payload = {
        "command": "example",
        "name": sampled.metadata.get("name", name),
        "n": sampled.n,
        "k": sampled.k,
        "metadata": meta,
        "report": report.to_json_dict(),
    }
    human = [
        f"{payload['name']}: n={sampled.n}, k={sampled.k}",
        f"samples: {report.samples_checked}",
        f"max equivariance residual: {report.max_equivariance_residual:.3e}",
        f"min pairwise separation: {report.min_pairwise_separation:.4f}",
        "verification: " + ("PASS" if report.passed else "FAIL"),
    ]
    if report.first_failure is not None:
        human.append(f"first failure at t={report.first_failure}")
    _emit(args, payload, human)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvtorus",
        description="Affineness decisions and Nielsen numbers for n-valued torus maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p = sub.add_parser("validate", help="check that a spec file is a morphism")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="orbits, stabilizers, linear parts, torsion")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decide", help="decide affineness per irreducible component")
    p.add_argument("file")
    p.add_argument(
        "--full-box-check",
        action="store_true",
        help="cross-validate the coset scan against a brute-force box scan",
    )
    add_json(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("nielsen", help="Reidemeister and Nielsen numbers")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=cmd_nielsen)

    p = sub.add_parser("rebase", help="redistribute translations along a cycle")
    p.add_argument("file")
    p.add_argument("--index", type=int, required=True, help="slot index i")
    p.add_argument("--z", required=True, help="vector, e.g. 1,0")
    p.add_argument(
        "--decomposition",
        required=True,
        help="semicolon-separated vectors, e.g. 1,0;0,0",
    )
    p.add_argument("--output", help="write the new spec here instead of stdout")
    p.set_defaults(func=cmd_rebase)

    p = sub.add_parser("example", help="build and verify a built-in construction")
    p.add_argument("name", help="rotation, translated, klein-four or cyclic-four")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--tol-eq", type=float, default=1e-9)
    p.add_argument("--sep-min", type=float, default=0.05)
    p.add_argument("--csv", help="dump sampled factor values to this CSV file")
    p.add_argument(
        "--perturb",
        help="spec file; realize this morphism by perturbing the chosen base",
    )
    add_json(p)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NvTorusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
