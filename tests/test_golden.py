"""Golden digests of the bytes the checkers and oracles produce on seeded
inputs.  The first covers rendered reports with their witnesses,
exactness-oracle results and Hom-complex defects of windows over F_2, F_3
and Q, and one rendered hunt catalog.  The second covers the rendered
specialized reports of trivial extension, context ring and triangular ring
instances over the same fields, each next to the report it is compared
with.  The third covers the rendered catalog of the exhaustive hunt of
``tests/fixtures/triangular_bundle.yaml`` up to rank 2, the output of
``tensorgp hunt tests/fixtures/triangular_bundle.yaml --max-rank 2``.
The next two cover the exit code and standard output of ``tensorgp
specialize`` on ``tests/fixtures/morita_window.yaml`` and
``tests/fixtures/triangular_window.yaml``, which render seeded helpers.
``GOLDEN_CLI`` covers the exit code, standard output, standard error and
written file of the first eight README command forms run on every
fixture.
``GOLDEN_Q`` covers rendered reports, oracle results and witness
replays of seeded windows over Q whose maps are scaled by rationals with
denominators on both sides of 2**31 and numerators past 2**62, and of
rank-2 windows on the path ring.
A refactor that changes any verdict, witness or oracle figure
changes a digest."""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tensorgp import formats
from tensorgp.cli import main
from tensorgp.algebra import ModuleMap
from tensorgp.exactlin import QQ
from tensorgp.tensor_ring import StarMorphism, TensorRing
from tensorgp.bimodule import zero_bimodule
from tensorgp.resolution import (ResolutionWindow, check_complete, exactness_oracle,
                                 hom_complex_oracle, replay_verdict)
from tensorgp.search import hunt_strongly_gp, random_window
from tensorgp.special_rings import (TrivialExtData, morita_checks, mu_transport,
                                    triangular_checks, trivext_checks)

from helpers import (F2, F3, corner_bimodule, dual_numbers, random_morita_data,
                     random_morita_window, random_triangular_data,
                     random_triangular_window, ring_pool, specialize_fixture_docs,
                     window_corpus, x_multiplication)

GOLDEN = "ad2d0b8dd3582a0277b68c15d0db17c2fcd852424f681c24e0d7c8210c66144c"
GOLDEN_SPECIAL = "8e48460a71fbfae146ad53f3d32bd10d80e472fa4110cecb9a2e9bf849f9595e"
GOLDEN_Q = "7010d5e9f5442a79a29fcaf780aceb0164530d26500df32a57cfe8d7e889f590"
GOLDEN_HUNT = "bbdcfeb558049bd878ed608d04f55b3b2adfc7c7bf8992b9dedf1420d6666536"
GOLDEN_SPECIALIZE_CLI = {
    "morita_window.yaml": "374e0f89957699d5c7fccb67437e03d798946c4b7a15a4c087d5726e33bb3a22",
    "triangular_window.yaml": "f9d2a6ec19a3d03d38ae09d0f33b51a9ef0967e4ac3a0098998bcb6a613d174e",
}
GOLDEN_CLI = "484cc2436e97ba2442888bec0f9391912c8bf03df608136c5ecbeaa7e9b92c4b"
FIXTURES = Path(__file__).parent / "fixtures"


def _windows():
    windows = window_corpus(40, (F2, F3), seed=50_000)
    windows += window_corpus(10, (QQ,), seed=60_000, path_rank=1)
    # window-local segments, one per ring of the F_3 and Q pools
    for i, ring in enumerate(ring_pool((F3, QQ))):
        cap = 1 if ring.nilpotency == 2 else 2
        windows.append(random_window(ring, 70_000 + i, (cap, 1, cap), periodic=False))
    return windows


def golden_digest() -> str:
    h = hashlib.sha256()
    for w in _windows():
        field = w.ring.algebra.field
        h.update(formats.render(formats.report_to_doc(field, check_complete(w))).encode())
        h.update(repr(sorted(exactness_oracle(w).items())).encode())
        h.update(repr(sorted(hom_complex_oracle(w).items())).encode())
    m = corner_bimodule(F2)
    catalog = hunt_strongly_gp(TensorRing(m.algebra, m, 1), 1)
    h.update(formats.render(formats.catalog_to_doc(F2, catalog)).encode())
    return h.hexdigest()


def test_golden_digest():
    assert golden_digest() == GOLDEN


# scalars for the maps of the Q windows: denominators below and above
# 2**31, and numerators past 2**62 (beyond the int64 range of exactlin)
_Q_SCALARS = (
    (Fraction(3, 7), Fraction(-5, 2**20 + 7)),
    (Fraction(7, 2**31 + 11), Fraction(-(2**33 + 1), 3**25)),
    (2**62 + 3, Fraction(-(2**65 + 1), 5)),
    (Fraction(-(3**41), 2**40 + 15), 2, Fraction(1, 2**64 + 13)),
)


def _scaled(w, scalars, per_component):
    """The window with map t scaled by scalars[t], or, with
    ``per_component``, its component i scaled by scalars[t + i]: a scaling
    per map keeps every verdict, one per component generally breaks C1."""
    def scalar(t, i):
        return scalars[(t + i * per_component) % len(scalars)]

    maps = tuple(StarMorphism(w.ring, s.source_rank, s.target_rank, tuple(
        ModuleMap(c.source, c.target, c.mat.scale(scalar(t, i)))
        for i, c in enumerate(s.components))) for t, s in enumerate(w.maps))
    return ResolutionWindow(w.ring, w.lo, w.ranks, maps, w.period)


def _q_windows():
    path = ring_pool((QQ,))[4]
    base = window_corpus(10, (QQ,), seed=90_000, path_rank=2)
    base += [random_window(path, 91_000 + j, ranks)
             for j, ranks in enumerate(((2,), (2, 2), (2, 1)))]
    base.append(random_window(path, 91_100, (2, 1, 2), periodic=False))
    # the complete resolution of k[x]/(x^2) by multiplication by x
    ring = TensorRing(dual_numbers(QQ), zero_bimodule(dual_numbers(QQ)), 0)
    x = x_multiplication(QQ)
    base.append(ResolutionWindow(ring, 0, (1, 1), (StarMorphism(
        ring, 1, 1, (ModuleMap(ring.free(1), ring.free(1), x.mat),)),), period=1))
    windows = list(base[-5:])
    for i, w in enumerate(base):
        scalars = _Q_SCALARS[i % len(_Q_SCALARS)]
        windows.append(_scaled(w, scalars, False))
        windows.append(_scaled(w, scalars, True))
    return windows


def q_digest() -> str:
    h = hashlib.sha256()
    for w in _q_windows():
        report = check_complete(w)
        h.update(formats.render(formats.report_to_doc(QQ, report)).encode())
        h.update(repr(sorted(exactness_oracle(w).items())).encode())
        h.update(repr(sorted(hom_complex_oracle(w).items())).encode())
        h.update(repr([replay_verdict(w, v) for v in report.failures()]).encode())
    return h.hexdigest()


def test_golden_q_digest():
    assert q_digest() == GOLDEN_Q


def _special_reports():
    """Per field, seeded instances of the three families: each specialized
    report followed by its counterpart (generic for the trivial extension
    and the context ring, context ring for the triangular ring)."""
    for field in (F2, F3, QQ):
        m = corner_bimodule(field)
        r = dual_numbers(field)
        pool = [TrivialExtData(m.algebra, m), TrivialExtData(r, zero_bimodule(r))]
        for i in range(6):
            d = pool[i % 2]
            rng = random.Random(80_000 + i)
            periodic = i < 4
            ranks = tuple(rng.randrange(3) for _ in range(1 + i % 2 if periodic else 3))
            w = random_window(d.ring, 81_000 + i, ranks, periodic=periodic)
            yield field, trivext_checks(d, w)
            yield field, check_complete(w)
        for i in range(6):
            rng = random.Random(82_000 + i)
            d = random_morita_data(rng, field)
            w = random_morita_window(d, rng, max_rank=2, period=1 + i % 2)
            yield field, morita_checks(d, w)
            yield field, check_complete(mu_transport(d, w))
        for i in range(6):
            rng = random.Random(83_000 + i)
            d = random_triangular_data(rng, field)
            w = random_triangular_window(d, rng, max_rank=2, period=1 + i % 2)
            yield field, triangular_checks(d, w)
            yield field, morita_checks(d.as_morita(), w.as_morita(d))


def special_digest() -> str:
    h = hashlib.sha256()
    for field, report in _special_reports():
        h.update(formats.render(formats.report_to_doc(field, report)).encode())
    return h.hexdigest()


def test_golden_special_digest():
    assert special_digest() == GOLDEN_SPECIAL


def hunt_digest() -> str:
    text = (FIXTURES / "triangular_bundle.yaml").read_text()
    ring = formats.bundle_from_doc(formats.load(text))
    catalog = hunt_strongly_gp(ring, 2)
    return hashlib.sha256(formats.render(formats.catalog_to_doc(ring.algebra.field,
                                                                catalog)).encode()).hexdigest()


def test_golden_hunt_digest():
    assert hunt_digest() == GOLDEN_HUNT


def specialize_cli_digest(name: str, capsys) -> str:
    """SHA-256 of the exit code (one line) followed by the standard output
    of ``tensorgp specialize`` on the fixture."""
    capsys.readouterr()
    code = main(["specialize", str(FIXTURES / name)])
    return hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECIALIZE_CLI))
def test_golden_specialize_cli_digest(name, capsys):
    assert specialize_cli_digest(name, capsys) == GOLDEN_SPECIALIZE_CLI[name]


def test_specialize_fixtures_render_their_seeded_helpers():
    for name, doc in specialize_fixture_docs().items():
        assert (FIXTURES / name).read_text() == formats.render(doc)


# the first eight command forms of the README, all but the sampled hunt;
# <out> is the path lift writes
README_FORMS = (["validate"], ["check", "--mode", "both"], ["extract-gp", "--k", "0"],
                ["strong"], ["compat"], ["lift", "--output", "<out>"], ["specialize"],
                ["hunt", "--max-rank", "1"])


def cli_digest(tmp_path: Path, capsys) -> str:
    """SHA-256 over every README command form run on every fixture: per
    run the command, its exit code, standard output, standard error and
    the file it wrote, with the fixture directory and ``tmp_path`` written
    as fixed tokens."""
    out = tmp_path / "out.yaml"
    h = hashlib.sha256()
    for fixture in sorted(FIXTURES.glob("*.yaml")):
        for form in README_FORMS:
            argv = [form[0], str(fixture), *(str(out) if a == "<out>" else a for a in form[1:])]
            capsys.readouterr()
            code = main(argv)
            captured = capsys.readouterr()
            written = out.read_text() if out.exists() else ""
            out.unlink(missing_ok=True)
            run = f"{' '.join(argv)}\n{code}\n{captured.out}\n{captured.err}\n{written}\n"
            h.update(run.replace(str(FIXTURES), "tests/fixtures")
                     .replace(str(tmp_path), "<tmp>").encode())
    return h.hexdigest()


def test_golden_cli_digest(tmp_path, capsys):
    assert cli_digest(tmp_path, capsys) == GOLDEN_CLI
