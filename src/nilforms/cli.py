"""Command line front end.

Input arguments accept four spellings: tuple notation "(...)" inline, a
path to a JSON algebra document, "-" for JSON on stdin, or a catalog name.
Exit codes: 0 success, 1 failed verification battery, 2 syntax/schema
errors, 3 structurally invalid input (Jacobi failure, bad indices, wrong
dimension and friends), 4 internal invariant breach (always a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import get_example, names
from .cohomology import (
    betti_profile,
    cohomology_space,
    cup,
    lefschetz_map,
    triple_massey,
)
from .coordinate_model import verify_realization
from .errors import (
    InternalInvariantBreach,
    NilformsError,
    SalamonSyntaxError,
    SchemaViolation,
)
from .exterior_core import format_form, lower_central_series
from .hermitian import classify_hermitian
from .notation import (
    _scalar_at,
    algebra_to_json,
    form_to_json,
    format_salamon,
    json_to_algebra,
    parse_covector_sum,
    parse_salamon,
)
from .structures import (
    SearchConfig,
    check_symplectic,
    classify_4d,
    find_lcs,
    find_symplectic,
)


def _read_json(handle):
    try:
        return json.load(handle)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer past the int-conversion limit, bad UTF-8
        raise SchemaViolation("", f"unreadable JSON: {exc}") from None


def _load_algebra(source):
    """Returns (algebra, catalog_entry_or_None)."""
    stripped = source.strip()
    if stripped.startswith("("):
        return parse_salamon(stripped), None
    if stripped == "-":
        return json_to_algebra(_read_json(sys.stdin)), None
    if stripped.endswith(".json") or os.path.exists(stripped):
        with open(stripped, "r", encoding="utf-8") as handle:
            return json_to_algebra(_read_json(handle)), None
    entry = get_example(stripped)
    return entry.algebra, entry


def _load_matrix(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = _read_json(handle)
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise SchemaViolation("", "matrix file must hold a list of rows")
    return [[_scalar_at(value, f"/{r}/{c}") for c, value in enumerate(row)]
            for r, row in enumerate(doc)]


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- analyze -----------------------------------------------------------------


def _massey_scan(algebra):
    """First nonzero triple product of degree-1 classes, if any.

    <a, b, c> is defined only where a.b and b.c vanish in H^2, so the cup
    table is built once and only those triples are computed.  Below
    dimension 2, H^2 = 0 and no triple product can be nonzero.
    """
    if algebra.dim < 2:
        return None, None
    classes = cohomology_space(algebra, 1).classes()
    cup_zero = [[cup(a, b).is_zero for b in classes] for a in classes]
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            if not cup_zero[i][j]:
                continue
            for k, c in enumerate(classes):
                if cup_zero[j][k]:
                    result = triple_massey(algebra, a, b, c)
                    if result.nonzero_mod_indeterminacy:
                        return tuple(cls.representative for cls in (a, b, c)), result
    return None, None


def _cmd_analyze(args):
    algebra, entry = _load_algebra(args.input)
    invariants = lower_central_series(algebra)
    betti = betti_profile(algebra)
    payload = {
        "algebra": algebra_to_json(algebra),
        "salamon": format_salamon(algebra),
        "dim": algebra.dim,
        "nilpotent": invariants.nilpotent,
        "step": invariants.step,
        "lower_central_dims": list(invariants.lower_central_dims),
        "unimodular": invariants.unimodular,
        "betti": list(betti),
    }
    lines = [
        f"algebra {payload['salamon']}  dim {algebra.dim}",
        f"nilpotent: {'yes, step ' + str(invariants.step) if invariants.nilpotent else 'no'}"
        f"  lower central dims {tuple(invariants.lower_central_dims)}",
        f"betti {betti}",
    ]

    symplectic = lcs = None
    if algebra.dim % 2 == 0 and algebra.dim >= 2:
        symplectic = find_symplectic(algebra)
        payload["symplectic"] = {
            "found": symplectic is not None,
            "witness": form_to_json(symplectic) if symplectic else None,
        }
        lines.append(
            f"symplectic: {format_form(symplectic) if symplectic else 'NONE (exhaustive over closed 2-forms)'}")
    if algebra.dim % 2 == 0 and algebra.dim >= 4:
        lcs = find_lcs(algebra, SearchConfig(height=args.height))
        genuine = lcs.genuine_witness
        payload["lcs"] = {
            "height": lcs.height,
            "examined": lcs.examined,
            "status": lcs.genuine_status,
            "genuine_witness": None if genuine is None else {
                "omega": form_to_json(genuine[0]),
                "theta": form_to_json(genuine[1]),
            },
        }
        if genuine is not None:
            omega, theta = genuine
            lines.append(
                f"genuine lcs: omega = {format_form(omega)}, theta = {format_form(theta)}")
            twisted = betti_profile(algebra, theta=theta)
            payload["lcs"]["twisted_betti"] = list(twisted)
            lines.append(f"  twisted betti at theta: {twisted}")
        else:
            lines.append(f"genuine lcs: {lcs.genuine_status}")

    if symplectic is not None:
        ranks = []
        for p in range(algebra.dim // 2):
            result = lefschetz_map(algebra, symplectic, p)
            ranks.append({
                "p": p, "rank": result.rank,
                "isomorphism": result.is_isomorphism,
            })
        payload["lefschetz"] = ranks
        failing = [r["p"] for r in ranks if not r["isomorphism"]]
        lines.append(
            "lefschetz maps: all isomorphisms" if not failing
            else f"lefschetz maps fail at p = {failing}")

    triple, massey = _massey_scan(algebra)
    payload["massey"] = None if massey is None else {
        "triple": [form_to_json(f) for f in triple],
        "representative": form_to_json(massey.representative),
    }
    lines.append(
        "massey triple products (degree 1): none nonzero" if massey is None else
        f"massey: <[{format_form(triple[0])}], [{format_form(triple[1])}], "
        f"[{format_form(triple[2])}]> is nonzero mod indeterminacy")

    if algebra.dim == 4 and invariants.nilpotent:
        classified = classify_4d(algebra)
        payload["classification"] = {
            "label": classified.label,
            "standard_salamon": classified.standard_salamon,
            "b1": classified.b1,
            "kahler_admissible": classified.kahler_admissible,
        }
        lines.append(
            f"classification: {classified.label} (standard model "
            f"{classified.standard_salamon}), Kahler admissible: "
            f"{'yes' if classified.kahler_admissible else 'no'}")

    metric = acs = None
    if args.metric or args.acs:
        if not (args.metric and args.acs):
            raise SchemaViolation("", "--metric and --acs must be given together")
        metric, acs = _load_matrix(args.metric), _load_matrix(args.acs)
    elif entry is not None and entry.metric and entry.acs:
        metric, acs = entry.metric, entry.acs
    if metric is not None:
        hermitian = classify_hermitian(algebra, metric, acs)
        payload["hermitian"] = {
            "label": hermitian.label,
            "integrable": hermitian.integrable,
            "fundamental": form_to_json(hermitian.fundamental),
            "lee": form_to_json(hermitian.lee),
            "kahler": hermitian.kahler,
            "lck": hermitian.lck,
            "vaisman": hermitian.vaisman,
        }
        lines.append(
            f"hermitian pair: {hermitian.label} (Lee form "
            f"{format_form(hermitian.lee)})")

    if args.quiet and not args.json:
        summary = [payload["salamon"], f"b = {tuple(payload['betti'])}"]
        if "symplectic" in payload:
            summary.append("symplectic" if payload["symplectic"]["found"]
                           else "no symplectic")
        if "lcs" in payload:
            summary.append(f"lcs {payload['lcs']['status']}")
        print("  ".join(summary))
        return 0
    _emit(args, payload, lines)
    return 0


# -- searches ----------------------------------------------------------------


def _cmd_search_lcs(args):
    algebra, _ = _load_algebra(args.input)
    config = SearchConfig(height=args.height, max_candidates=args.max_candidates)
    result = find_lcs(algebra, config)
    payload = {
        "height": result.height,
        "examined": result.examined,
        "capped": result.capped,
        "status": result.genuine_status,
    }
    lines = [f"status: {result.genuine_status} ({result.examined} candidates examined)"]
    for key, pair in (("witness", result.witness),
                      ("genuine_witness", result.genuine_witness)):
        if pair is None:
            payload[key] = None
            continue
        omega, theta = pair
        payload[key] = {"omega": form_to_json(omega), "theta": form_to_json(theta)}
        lines.append(
            f"{key.replace('_', ' ')}: omega = {format_form(omega)}, "
            f"theta = {format_form(theta)}")
    _emit(args, payload, lines)
    return 0


def _cmd_search_symplectic(args):
    algebra, _ = _load_algebra(args.input)
    witness = find_symplectic(algebra)
    if witness is None:
        _emit(args, {"found": False, "witness": None},
              ["NONE: no invariant symplectic form exists (exhaustive over "
               "closed 2-forms)"])
        return 0
    verdict = check_symplectic(algebra, witness)
    _emit(args, {
        "found": True,
        "witness": form_to_json(witness),
        "pfaffian": str(verdict.pfaffian),
    }, [f"FOUND: omega = {format_form(witness)} (Pfaffian {verdict.pfaffian})"])
    return 0


# -- cohomology --------------------------------------------------------------


def _cmd_cohomology(args):
    algebra, _ = _load_algebra(args.input)
    theta = None
    if args.theta is not None:
        theta = parse_covector_sum(algebra, args.theta)
    spaces = [cohomology_space(algebra, degree, theta=theta)
              for degree in range(algebra.dim + 1)]
    betti = tuple(space.betti for space in spaces)
    payload = {
        "betti": list(betti),
        "theta": form_to_json(theta) if theta is not None else None,
        "spaces": [],
    }
    label = "twisted betti" if theta is not None and not theta.is_zero else "betti"
    lines = [f"{label}: {betti}"]
    for degree, space in enumerate(spaces):
        reps = [form_to_json(f) for f in space.representative_basis]
        payload["spaces"].append({"degree": degree, "betti": space.betti,
                                  "representatives": reps})
        shown = ", ".join(f"[{format_form(f)}]" for f in space.representative_basis)
        lines.append(f"H^{degree} (dim {space.betti}): {shown if shown else '0'}")
    _emit(args, payload, lines)
    return 0


# -- batteries ---------------------------------------------------------------


def _cmd_verify(args):
    from .verification import all_machine_pass, verify_all

    results = verify_all()
    payload = [{
        "name": r.name,
        "passed": r.passed,
        "detail": r.detail,
        "provenance": r.provenance,
    } for r in results]
    lines = []
    for r in results:
        tag = "NOTE" if r.passed is None else ("PASS" if r.passed else "FAIL")
        lines.append(f"{tag} {r.name}: {r.detail}")
    ok = all_machine_pass(results)
    machine = [r for r in results if r.is_machine]
    lines.append(
        f"{sum(1 for r in machine if r.passed)}/{len(machine)} machine checks pass")
    _emit(args, {"checks": payload, "all_machine_pass": ok}, lines)
    return 0 if ok else 1


def _cmd_model_check(args):
    report = verify_realization()
    payload = {
        "salamon": report.salamon,
        "checks": {name: ok for name, ok in report.checks},
        "all_pass": report.all_pass,
    }
    lines = [f"coordinate model for {report.salamon}"]
    lines += [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in report.checks]
    _emit(args, payload, lines)
    return 0 if report.all_pass else 1


# -- wiring ------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nilforms",
        description="exact invariant geometry on nilpotent Lie algebras",
        epilog=f"catalog names: {', '.join(names())}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="tuple notation, JSON file, '-', or catalog name")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    analyze = sub.add_parser("analyze", help="full structural report")
    add_input(analyze)
    analyze.add_argument("--height", type=int, default=2,
                         help="lcs twisting height bound (default 2)")
    analyze.add_argument("--metric", help="JSON file with a Gram matrix")
    analyze.add_argument("--acs", help="JSON file with an almost complex matrix")
    analyze.add_argument("--quiet", action="store_true", help="one-line summary")
    add_json(analyze)

    lcs = sub.add_parser("search-lcs", help="bounded search for lcs pairs")
    add_input(lcs)
    lcs.add_argument("--height", type=int, default=2)
    lcs.add_argument("--max-candidates", type=int, default=None)
    add_json(lcs)

    symp = sub.add_parser("search-symplectic",
                          help="decide invariant symplectic existence")
    add_input(symp)
    add_json(symp)

    cohom = sub.add_parser("cohomology", help="betti numbers and representatives")
    add_input(cohom)
    cohom.add_argument("--theta", help="twisting 1-form, e.g. 'x2' or 'x1-2*x3'")
    add_json(cohom)

    verify = sub.add_parser("verify-paper",
                            help="run the bundled battery of headline claims")
    add_json(verify)

    model = sub.add_parser("model-check",
                           help="symbolic checks of the coordinate realization")
    add_json(model)

    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "search-lcs": _cmd_search_lcs,
    "search-symplectic": _cmd_search_symplectic,
    "cohomology": _cmd_cohomology,
    "verify-paper": _cmd_verify,
    "model-check": _cmd_model_check,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (SalamonSyntaxError, SchemaViolation, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantBreach as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NilformsError as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
