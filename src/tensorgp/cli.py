"""Command line front end.

Subcommands wrap the library checkers one-to-one: ``validate`` for input
files, ``check`` for resolution windows (with the independent oracle as an
alternative or cross-checked mode), ``extract-gp`` and ``strong`` for the
kernels, ``compat`` and ``lift`` for base-ring resolutions, ``specialize``
for the trivial extension, context ring and triangular ring forms, and
``hunt`` for bounded enumeration.

Human-readable summaries go to stderr; structured documents go to the
``--output`` path, or to stdout when no path is given.

Exit codes: 0 all conditions pass; 1 a condition fails (the report carries
a witness); 2 invalid input; 3 budget exceeded or internal error.
"""

from __future__ import annotations

import argparse
import sys

from tensorgp import formats
from tensorgp.algebra import InvalidAlgebra
from tensorgp.bimodule import InvalidBimodule, certify_nilpotent, power_dims
from tensorgp.formats import FormatError
from tensorgp.resolution import (
    CheckReport,
    ExtractionRefused,
    IncompatibleBimodule,
    InternalCheckError,
    NotCompleteResolution,
    Verdict,
    check_compatibility,
    check_complete,
    check_strongly_gp,
    exactness_oracle,
    extract_gp,
    hom_complex_oracle,
    lift_resolution,
)
from tensorgp.search import BudgetExceeded, DEFAULT_BUDGET, hunt_strongly_gp, sample_strongly_gp
from tensorgp.special_rings import (
    SpecialRingError,
    TrivialExtData,
    morita_checks,
    mu_transport,
    triangular_checks,
    trivext_checks,
)
from tensorgp.tensor_ring import NotNilpotent, TensorRing

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def _say(msg: str):
    print(msg, file=sys.stderr)


def _emit(doc: dict, output):
    text = formats.render(doc)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return formats.load(fh.read())
    except OSError as exc:
        raise FormatError(path, str(exc))


def _report_exit(report: CheckReport) -> int:
    _say(report.summary())
    return EXIT_PASS if report.passed else EXIT_FAIL


# -- validate -------------------------------------------------------------------


def _validate_bundle_doc(path: str, node) -> list:
    """The problems of a bundle file: its first parse error, the first five
    violations of an invalid algebra or bimodule, or a failed nilpotency
    certificate."""
    try:
        field = formats.field_from_doc(node.get("field"), f"{path}: field")
        algebra = formats.algebra_from_doc(field, node.get("algebra"), f"{path}: algebra")
        bimodule = formats.bimodule_from_doc(algebra, node.get("bimodule"),
                                             f"{path}: bimodule")
        n = formats.int_from_doc(node.get("nilpotency"), f"{path}: nilpotency", 0)
    except FormatError as exc:
        if not isinstance(exc.__cause__, (InvalidAlgebra, InvalidBimodule)):
            return [str(exc)]
        report = exc.__cause__.report
        return [f"{path}: {report.subject}: {kind} violated at {witness}"
                for kind, witness, _residual in report.violations[:5]]
    if not certify_nilpotent(bimodule, n):
        dims = power_dims(bimodule, n + 1)
        return [f"{path}: nilpotency certificate failed: power dimensions {dims}"]
    return []


def cmd_validate(args) -> int:
    want = args.field
    if want not in (None, "Q"):
        try:
            want = int(want)
        except ValueError:
            _say(f"--field must be a prime or Q, got {want!r}")
            return EXIT_INVALID
    status = EXIT_PASS
    for path in args.paths:
        try:
            doc = _load(path)
        except FormatError as exc:
            _say(str(exc))
            status = EXIT_INVALID
            continue
        kind = doc.get("kind")
        if want is not None:
            # window, complex and trivext files declare their field in the bundle
            node = doc.get("bundle") if kind in ("window", "complex", "trivext") else doc
            declared = node.get("field") if isinstance(node, dict) else None
            if declared != want:
                _say(f"{path}: field is {declared!r}, expected {want!r}")
                status = EXIT_INVALID
                continue
        if kind == "bundle":
            problems = _validate_bundle_doc(path, doc)
        elif kind in ("window", "complex", "morita", "triangular", "trivext"):
            problems = []
            try:
                if kind == "window":
                    formats.window_from_doc(doc)
                elif kind == "trivext":
                    _parse_trivext(doc)
                elif kind == "complex":
                    formats.complex_from_doc(doc)
                elif kind == "morita":
                    formats.morita_from_doc(doc)
                else:
                    formats.triangular_from_doc(doc)
            except (FormatError, NotNilpotent, SpecialRingError) as exc:
                problems = [f"{path}: {exc}"]
        else:
            problems = [f"{path}: unknown kind {kind!r}"]
        if problems:
            for p in problems:
                _say(p)
            status = EXIT_INVALID
        else:
            _say(f"{path}: valid")
    return status


# -- check ----------------------------------------------------------------------


def _oracle_report(w) -> CheckReport:
    exact = exactness_oracle(w)
    defects = hom_complex_oracle(w)
    verdicts = []
    for k in w.positions():
        verdicts.append(Verdict("exact", k, "pass" if exact[k] else "fail"))
        verdicts.append(Verdict("hom-vanish", k, "pass" if defects[k] == 0 else "fail",
                                note="" if defects[k] == 0 else f"defect {defects[k]}"))
    return CheckReport("oracle", tuple(verdicts), window_local=w.period is None)


def cmd_check(args) -> int:
    doc = _load(args.window)
    if args.period is not None:
        doc.setdefault("window", {})["period"] = args.period
    w = formats.window_from_doc(doc)
    field = w.ring.algebra.field
    if args.mode in ("paper", "both"):
        conditions = check_complete(w)
    if args.mode in ("oracle", "both"):
        oracle = _oracle_report(w)
    if args.mode == "paper":
        _emit(formats.report_to_doc(field, conditions), args.output)
        return _report_exit(conditions)
    if args.mode == "oracle":
        _emit(formats.report_to_doc(field, oracle), args.output)
        return _report_exit(oracle)
    for k in w.positions():
        cond = (conditions.status(k, "C1") == "pass" and conditions.status(k, "C2") == "pass")
        if cond != (oracle.status(k, "exact") == "pass"):
            _say(f"internal: checker and exactness oracle disagree at k={k}")
            return EXIT_INTERNAL
        if (conditions.status(k, "C3") == "pass") != (oracle.status(k, "hom-vanish") == "pass"):
            _say(f"internal: checker and hom oracle disagree at k={k}")
            return EXIT_INTERNAL
    _say("checker and oracle agree at every position")
    _emit(formats.report_to_doc(field, conditions), args.output)
    return _report_exit(conditions)


def cmd_extract_gp(args) -> int:
    doc = _load(args.window)
    w = formats.window_from_doc(doc)
    try:
        t = extract_gp(w, args.k, allow_window_local=args.allow_window_local)
    except ExtractionRefused as exc:
        _say(f"extraction refused: {exc}")
        return EXIT_FAIL
    _say(f"extracted a certified module of dimension {t.x.dim} at k={args.k}")
    _emit(formats.tmodule_to_doc(t), args.output)
    return EXIT_PASS


def cmd_strong(args) -> int:
    doc = _load(args.window)
    w = formats.window_from_doc(doc)
    if len(w.maps) != 1 or w.ranks[0] != w.ranks[1]:
        _say("strong mode expects a window with a single map between equal ranks")
        return EXIT_INVALID
    report = check_strongly_gp(w.maps[0])
    _emit(formats.report_to_doc(w.ring.algebra.field, report), args.output)
    return _report_exit(report)


def cmd_compat(args) -> int:
    doc = _load(args.complex)
    bimodule, levels, pc = formats.complex_from_doc(doc)
    try:
        report = check_compatibility(bimodule, pc, levels)
    except NotCompleteResolution as exc:
        _say(f"invalid input: {exc}")
        _say(exc.report.summary())
        return EXIT_INVALID
    _emit(formats.report_to_doc(bimodule.algebra.field, report), args.output)
    return _report_exit(report)


def cmd_lift(args) -> int:
    doc = _load(args.complex)
    bimodule, levels, pc = formats.complex_from_doc(doc)
    # compatibility is checkable without nilpotency; refuse with the failing
    # level before demanding a tensor ring
    try:
        compat = check_compatibility(bimodule, pc, levels)
    except NotCompleteResolution as exc:
        _say(f"invalid input: {exc}")
        return EXIT_INVALID
    if not compat.passed:
        _say(f"lift refused: {IncompatibleBimodule(compat)}")
        for v in compat.failures()[:3]:
            _say(f"  failing condition {v.label} at k={v.k}")
        return EXIT_FAIL
    try:
        ring = TensorRing(bimodule.algebra, bimodule, levels)
    except NotNilpotent as exc:
        _say(f"invalid input: {exc}")
        return EXIT_INVALID
    lifted = lift_resolution(ring, pc)
    _say("lifted window passes the full check")
    _emit(formats.window_to_doc(lifted), args.output)
    return EXIT_PASS


def _parse_trivext(doc):
    inner = dict(doc)
    inner["kind"] = "window"
    w = formats.window_from_doc(inner)
    if w.ring.nilpotency != 1:
        raise FormatError("trivext", "trivial extension data needs nilpotency 1")
    return TrivialExtData(w.ring.algebra, w.ring.bimodule), w


def cmd_specialize(args) -> int:
    doc = _load(args.file)
    kind = args.kind or doc.get("kind")
    if kind != doc.get("kind"):
        _say(f"file has kind {doc.get('kind')!r}, not {kind!r}")
        return EXIT_INVALID
    if kind == "trivext":
        d, w = _parse_trivext(doc)
        special = trivext_checks(d, w)
        generic = check_complete(w)
        out = {"kind": "specialize-report",
               "specialized": formats.report_to_doc(d.r.field, special),
               "generic": formats.report_to_doc(d.r.field, generic)}
        _emit(out, args.output)
        _say(special.summary())
        agree = all(special.status(v.k, v.label) == generic.status(v.k, v.label)
                    for v in special.verdicts)
        _say("specialized and generic verdicts agree" if agree
             else "WARNING: specialized and generic verdicts differ")
        return EXIT_PASS if special.passed else EXIT_FAIL
    if kind == "morita":
        d, w = formats.morita_from_doc(doc)
        special = morita_checks(d, w)
        out = {"kind": "specialize-report",
               "specialized": formats.report_to_doc(d.a.field, special)}
        try:
            tw = mu_transport(d, w)
            generic = check_complete(tw)
            out["generic"] = formats.report_to_doc(d.a.field, generic)
            out["transported_window"] = formats.window_to_doc(tw)
        except SpecialRingError as exc:
            out["transport_note"] = str(exc)
        _emit(out, args.output)
        _say(special.summary())
        return EXIT_PASS if special.passed else EXIT_FAIL
    if kind == "triangular":
        d, w = formats.triangular_from_doc(doc)
        special = triangular_checks(d, w)
        md = d.as_morita()
        mw = w.as_morita(d)
        context = morita_checks(md, mw)
        out = {"kind": "specialize-report",
               "specialized": formats.report_to_doc(d.a.field, special),
               "context": formats.report_to_doc(d.a.field, context)}
        try:
            tw = mu_transport(md, mw)
            out["generic"] = formats.report_to_doc(d.a.field, check_complete(tw))
            out["transported_window"] = formats.window_to_doc(tw)
        except SpecialRingError as exc:
            out["transport_note"] = str(exc)
        _emit(out, args.output)
        _say(special.summary())
        return EXIT_PASS if special.passed else EXIT_FAIL
    _say(f"unknown specialization kind {kind!r}")
    return EXIT_INVALID


def cmd_hunt(args) -> int:
    doc = _load(args.bundle)
    if doc.get("kind") != "bundle":
        _say(f"{args.bundle}: expected a bundle file")
        return EXIT_INVALID
    if args.max_rank < 0:
        _say(f"--max-rank must be non-negative, got {args.max_rank}")
        return EXIT_INVALID
    ring = formats.bundle_from_doc(doc)
    if not ring.algebra.field.is_prime:
        _say(f"{args.bundle}: hunting enumerates a finite field, not {ring.algebra.field}")
        return EXIT_INVALID
    try:
        catalog = hunt_strongly_gp(ring, args.max_rank, budget=args.budget)
        mode = "exhaustive"
    except BudgetExceeded as exc:
        if args.seed is None:
            _say(str(exc))
            return EXIT_INTERNAL
        catalog = sample_strongly_gp(ring, args.max_rank, args.budget, args.seed)
        mode = f"sampled (seed {args.seed})"
    _say(f"classified {catalog.total} candidates ({mode}); "
         f"{sum(g.count for g in catalog.passing())} pass")
    _emit(formats.catalog_to_doc(ring.algebra.field, catalog), args.output)
    return EXIT_PASS


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorgp",
        description="verify and construct complete projective resolutions "
                    "over tensor rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate input files")
    p.add_argument("paths", nargs="+")
    p.add_argument("--field", help="require this coefficient field (a prime or Q)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="check a resolution window")
    p.add_argument("window")
    p.add_argument("--mode", choices=("paper", "oracle", "both"), default="paper",
                   help="paper: the component-level conditions C1..C3; "
                        "oracle: assembled exactness plus Hom-complex homology; "
                        "both: run both and fail loudly on disagreement")
    p.add_argument("--period", type=int, default=None,
                   help="impose a period on a window file that lacks one")
    p.add_argument("--output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extract-gp", help="extract the kernel module at an index")
    p.add_argument("window")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--allow-window-local", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_extract_gp)

    p = sub.add_parser("strong", help="one-periodic check of a single map")
    p.add_argument("window")
    p.add_argument("--output")
    p.set_defaults(func=cmd_strong)

    p = sub.add_parser("compat", help="compatibility of a bimodule with a base resolution")
    p.add_argument("complex")
    p.add_argument("--output")
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("lift", help="lift a compatible base resolution")
    p.add_argument("complex")
    p.add_argument("--output")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("specialize", help="run a specialized checker with the generic "
                                          "verdicts side by side")
    p.add_argument("file")
    p.add_argument("--kind", choices=("trivext", "morita", "triangular"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("hunt", help="enumerate one-periodic candidates")
    p.add_argument("bundle")
    p.add_argument("--max-rank", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=None,
                   help="fall back to seeded sampling when the budget is exceeded")
    p.add_argument("--output")
    p.set_defaults(func=cmd_hunt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        _say(str(exc))
        return EXIT_INVALID
    except (NotNilpotent, SpecialRingError) as exc:
        _say(f"invalid input: {exc}")
        return EXIT_INVALID
    except BudgetExceeded as exc:
        _say(str(exc))
        return EXIT_INTERNAL
    except InternalCheckError as exc:
        _say(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
