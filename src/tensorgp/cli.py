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
from tensorgp.bimodule import InvalidBimodule
from tensorgp.formats import FormatError
from tensorgp.resolution import (
    CheckReport,
    ExtractionRefused,
    IncompatibleBimodule,
    InternalCheckError,
    NotCompleteResolution,
    ResolutionError,
    Verdict,
    check_compatibility,
    check_complete,
    check_strongly_gp,
    exactness_oracle,
    extract_gp,
    hom_complex_oracle,
    lift_resolution,
)
from tensorgp.search import (BudgetExceeded, DEFAULT_BUDGET, TableTooLarge, hunt_strongly_gp,
                             sample_strongly_gp)
from tensorgp.special_rings import (
    SpecialRingError,
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
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(output, str(exc))
    else:
        sys.stdout.write(text)


def _load(path: str, parse=None):
    """The document of an input file, or ``parse`` of it.  A FormatError
    raised on the way starts with the path of the file, in place of the
    ``<input>`` that stands for the document as a whole, and keeps its
    cause; a failed certificate (``NotNilpotent``, ``SpecialRingError``) of
    the parsed data becomes the cause of one."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = formats.load(fh.read())
        return doc if parse is None else parse(doc)
    except (OSError, UnicodeDecodeError, NotNilpotent, SpecialRingError) as exc:
        raise FormatError(path, str(exc)) from exc
    except FormatError as exc:
        raise FormatError(path, str(exc).removeprefix("<input>: ")) from exc.__cause__


def _report_exit(report: CheckReport) -> int:
    _say(report.summary())
    return EXIT_PASS if report.passed else EXIT_FAIL


# label groups (left labels, right labels) of the report pairs that must agree
_ORACLE_GROUPS = ((("C1", "C2"), ("exact",)), (("C3",), ("hom-vanish",)))
_TRIVEXT_GROUPS = ((("C1",), ("C1",)), (("C2",), ("C2",)), (("C3",), ("C3",)))
_CONTEXT_GROUPS = ((("C1'",), ("C1",)), (("C2'",), ("C2",)), (("C3'",), ("C3",)))
_TRIANGULAR_GROUPS = ((("(i) complex", "(ii) complex", "(iii)"), ("C1'",)),
                      (("(ii) exact", "(iv)"), ("C2'",)),
                      (("(i) lift", "(v)"), ("C3'",)))


def _disagreement(left: CheckReport, right: CheckReport, groups, positions):
    """The first (k, group) at which two reports differ, or None.  Each
    side of a group reads "skip" at k when all of its verdicts there skip,
    "pass" when all pass, and "fail" otherwise."""
    statuses = [{(v.k, v.label): v.status for v in r.verdicts} for r in (left, right)]

    def reading(side, k, labels):
        seen = {statuses[side].get((k, label)) for label in labels}
        return seen.pop() if seen in ({"skip"}, {"pass"}) else "fail"

    return next(((k, g) for k in positions for g in groups
                 if reading(0, k, g[0]) != reading(1, k, g[1])), None)


# -- validate -------------------------------------------------------------------


def _problems(path: str, want) -> list:
    """The lines ``validate`` prints about a refused file, or [] for a
    valid one.  The declared field is compared with ``want`` before
    anything else is read.  A bundle file's own refusal, an invalid algebra
    or bimodule or a failed nilpotency certificate, is listed from its
    cause: the first five violations, or the dimensions of the powers."""
    read = None

    def parse(doc):
        nonlocal read
        read, declared = formats.classify(doc)
        if want is not None and declared != want:
            raise FormatError("<input>", f"field is {declared!r}, expected {want!r}")
        if read is None:
            raise FormatError("<input>", f"unknown kind {doc.get('kind')!r}")
        read(doc)

    try:
        _load(path, parse)
    except FormatError as exc:
        cause = exc.__cause__
        if read is formats.bundle_file_from_doc:
            if isinstance(cause, (InvalidAlgebra, InvalidBimodule)):
                return [f"{path}: {cause.report.subject}: {line}"
                        for line in cause.report.describe(5)]
            if isinstance(cause, NotNilpotent):
                return [f"{path}: nilpotency certificate failed: power dimensions {cause.dims}"]
        return [str(exc)]
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
        problems = _problems(path, want)
        for line in problems or [f"{path}: valid"]:
            _say(line)
        if problems:
            status = EXIT_INVALID
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
    def window(doc):
        section = doc.get("window")
        if args.period is not None and isinstance(section, dict):
            # any other section is refused by window_from_doc with a FormatError
            section["period"] = args.period
        return formats.window_from_doc(doc)

    w = _load(args.window, window)
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
    hit = _disagreement(conditions, oracle, _ORACLE_GROUPS, w.positions())
    if hit:
        k, group = hit
        which = "exactness" if group is _ORACLE_GROUPS[0] else "hom"
        _say(f"internal: checker and {which} oracle disagree at k={k}")
        return EXIT_INTERNAL
    _say("checker and oracle agree at every position")
    _emit(formats.report_to_doc(field, conditions), args.output)
    return _report_exit(conditions)


def cmd_extract_gp(args) -> int:
    w = _load(args.window, formats.window_from_doc)
    try:
        t = extract_gp(w, args.k, allow_window_local=args.allow_window_local)
    except ExtractionRefused as exc:
        _say(f"extraction refused: {exc}")
        return EXIT_FAIL
    _say(f"extracted a certified module of dimension {t.x.dim} at k={args.k}")
    _emit(formats.tmodule_to_doc(t), args.output)
    return EXIT_PASS


def cmd_strong(args) -> int:
    w = _load(args.window, formats.window_from_doc)
    if len(w.maps) != 1 or w.ranks[0] != w.ranks[1]:
        _say("strong mode expects a window with a single map between equal ranks")
        return EXIT_INVALID
    report = check_strongly_gp(w.maps[0])
    _emit(formats.report_to_doc(w.ring.algebra.field, report), args.output)
    return _report_exit(report)


def cmd_compat(args) -> int:
    bimodule, levels, pc = _load(args.complex, formats.complex_from_doc)
    try:
        report = check_compatibility(bimodule, pc, levels)
    except NotCompleteResolution as exc:
        _say(f"invalid input: {exc}")
        _say(exc.report.summary())
        return EXIT_INVALID
    _emit(formats.report_to_doc(bimodule.algebra.field, report), args.output)
    return _report_exit(report)


def cmd_lift(args) -> int:
    bimodule, levels, pc = _load(args.complex, formats.complex_from_doc)
    # compatibility is checkable without nilpotency; refuse with the failing
    # level before demanding a tensor ring
    compat = check_compatibility(bimodule, pc, levels)
    if not compat.passed:
        _say(f"lift refused: {IncompatibleBimodule(compat)}")
        for v in compat.failures()[:3]:
            _say(f"  failing condition {v.label} at k={v.k}")
        return EXIT_FAIL
    ring = TensorRing(bimodule.algebra, bimodule, levels)
    lifted = lift_resolution(ring, pc)
    _say("lifted window passes the full check")
    _emit(formats.window_to_doc(lifted), args.output)
    return EXIT_PASS


def cmd_specialize(args) -> int:
    kind, d, w = _load(args.file, formats.specialization_from_doc)
    if kind == "trivext":
        special = trivext_checks(d, w)
        generic = check_complete(w)
        if _disagreement(special, generic, _TRIVEXT_GROUPS, w.positions()):
            _say("internal: specialized and generic verdicts differ")
            return EXIT_INTERNAL
        out = {"kind": "specialize-report",
               "specialized": formats.report_to_doc(d.r.field, special),
               "generic": formats.report_to_doc(d.r.field, generic)}
        _emit(out, args.output)
        _say(special.summary())
        _say("specialized and generic verdicts agree")
        return EXIT_PASS if special.passed else EXIT_FAIL
    field = d.a.field
    if kind == "morita":
        special = context = morita_checks(d, w)
        out = {"kind": "specialize-report", "specialized": formats.report_to_doc(field, special)}
    else:
        special = triangular_checks(d, w)
        d, w = d.as_morita(), w.as_morita(d)
        context = morita_checks(d, w)
        if _disagreement(special, context, _TRIANGULAR_GROUPS, w.positions()):
            _say("internal: triangular and context-ring verdicts differ")
            return EXIT_INTERNAL
        out = {"kind": "specialize-report",
               "specialized": formats.report_to_doc(field, special),
               "context": formats.report_to_doc(field, context)}
    try:
        transported = mu_transport(d, w)
    except SpecialRingError as exc:
        out["transport_note"] = str(exc)
    else:
        generic = check_complete(transported)
        if _disagreement(context, generic, _CONTEXT_GROUPS, w.positions()):
            _say("internal: context-ring and generic verdicts differ")
            return EXIT_INTERNAL
        out["generic"] = formats.report_to_doc(field, generic)
        out["transported_window"] = formats.window_to_doc(transported)
    _emit(out, args.output)
    _say(special.summary())
    if "generic" in out:
        _say("specialized and generic verdicts agree")
    return EXIT_PASS if special.passed else EXIT_FAIL


def cmd_hunt(args) -> int:
    if args.max_rank < 0:
        _say(f"--max-rank must be non-negative, got {args.max_rank}")
        return EXIT_INVALID
    if args.budget < 0:
        _say(f"--budget must be non-negative, got {args.budget}")
        return EXIT_INVALID
    ring = _load(args.bundle, formats.bundle_file_from_doc)
    if not ring.algebra.field.is_prime:
        _say(f"{args.bundle}: hunting enumerates a finite field, not {ring.algebra.field}")
        return EXIT_INVALID
    try:
        catalog = hunt_strongly_gp(ring, args.max_rank, budget=args.budget)
        mode = "exhaustive"
    except BudgetExceeded:
        if args.seed is None:
            raise
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
    except (BudgetExceeded, TableTooLarge) as exc:
        _say(str(exc))
        return EXIT_INTERNAL
    except InternalCheckError as exc:
        _say(f"internal error: {exc}")
        return EXIT_INTERNAL
    except (NotNilpotent, SpecialRingError, ResolutionError) as exc:
        # a ResolutionError here is a request the window cannot serve, such
        # as an index with no map; its internal subclass is caught above
        _say(f"invalid input: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
