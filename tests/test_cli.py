"""End-to-end tests of the command line front end and the file formats."""

import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from tensorgp import formats
from tensorgp.cli import main
from tensorgp.tensor_ring import NotNilpotent, TensorRing
from tensorgp.bimodule import zero_bimodule

from helpers import (
    F2,
    F3,
    corner_bimodule,
    dual_numbers,
    full_tensor_pair,
    ground_algebra,
    random_morita_data,
    random_morita_window,
    random_triangular_data,
    random_triangular_window,
    x_multiplication,
    zero_window,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


class TestValidate:
    def test_valid_bundle(self, capsys):
        assert main(["validate", fixture("triangular_bundle.yaml")]) == 0
        assert "valid" in capsys.readouterr().err

    def test_bad_unit_witnessed(self, capsys):
        assert main(["validate", fixture("bad_assoc_bundle.yaml")]) == 2
        err = capsys.readouterr().err
        assert "unit" in err

    def test_nonassociative_table_witnessed(self, capsys):
        assert main(["validate", fixture("nonassoc_bundle.yaml")]) == 2
        err = capsys.readouterr().err
        assert "associativity" in err and "(1, 1, 1)" in err

    def test_bad_nilpotency(self, capsys):
        assert main(["validate", fixture("bad_nilpotency_bundle.yaml")]) == 2
        assert "nilpotency certificate failed" in capsys.readouterr().err

    def test_large_declared_nilpotency(self, tmp_path, capsys):
        # certifying it builds every tensor power up to the declared index
        text = Path(fixture("triangular_bundle.yaml")).read_text()
        assert "\nnilpotency: 1\n" in text
        path = tmp_path / "deep.yaml"
        path.write_text(text.replace("\nnilpotency: 1\n", "\nnilpotency: 1500\n"))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().err == f"{path}: valid\n"

    @pytest.mark.parametrize("name, lines", [
        ("bad_assoc_bundle.yaml", ["algebra: unit-left violated at (0,)",
                                   "algebra: unit-right violated at (0,)",
                                   "algebra: unit-left violated at (1,)",
                                   "algebra: unit-right violated at (1,)"]),
        ("nonassoc_bundle.yaml", ["algebra: associativity violated at (1, 1, 1)",
                                  "algebra: associativity violated at (1, 1, 2)",
                                  "algebra: associativity violated at (1, 2, 1)",
                                  "algebra: associativity violated at (1, 2, 2)"]),
        ("bad_nilpotency_bundle.yaml",
         ["nilpotency certificate failed: power dimensions [2, 1]"]),
    ])
    def test_full_listing(self, capsys, name, lines):
        path = fixture(name)
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == "".join(f"{path}: {line}\n" for line in lines)

    def test_field_flag(self, capsys):
        assert main(["validate", fixture("triangular_bundle.yaml"), "--field", "3"]) == 2
        assert main(["validate", fixture("triangular_bundle.yaml"), "--field", "2"]) == 0

    @pytest.mark.parametrize("name, field, code, message", [
        ("trivext_window.yaml", "2", 0, "valid"),
        ("trivext_window.yaml", "3", 2, "field is 2, expected 3"),
        ("x_window.yaml", "Q", 2, "field is 2, expected 'Q'"),
        ("q_window.yaml", "Q", 0, "valid"),
        ("trivext_window.yaml", "abc", 2, "--field must be a prime or Q, got 'abc'"),
    ])
    def test_field_flag_reads_the_declared_field(self, capsys, name, field, code, message):
        assert main(["validate", fixture(name), "--field", field]) == code
        assert message in capsys.readouterr().err

    def test_window_and_complex_files_validate(self):
        assert main(["validate", fixture("x_window.yaml"),
                     fixture("semisimple_complex.yaml"),
                     fixture("trivext_window.yaml")]) == 0

    def test_missing_file(self):
        assert main(["validate", "no_such_file.yaml"]) == 2

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bytes.yaml"
        path.write_bytes(b"\xff\xfe" + Path(fixture("x_window.yaml")).read_bytes())
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"{path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["trivext_window.yaml", "semisimple_complex.yaml"])
    def test_non_integer_lo_refused(self, tmp_path, capsys, name):
        text = Path(fixture(name)).read_text()
        assert "  lo: 0\n" in text
        bad = tmp_path / name
        bad.write_text(text.replace("  lo: 0\n", "  lo: a\n"))
        assert main(["validate", str(bad)]) == 2
        assert ".lo" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["morita", "triangular"])
    def test_non_integer_lo_refused_in_context_windows(self, kind):
        doc = formats.load(formats.render(seeded_context_doc(kind)))
        doc["window"]["lo"] = True
        with pytest.raises(formats.FormatError, match="window.lo"):
            formats.context_from_doc(doc)

    @pytest.mark.parametrize("kind", ["morita", "triangular"])
    def test_pair_bimodule_errors_name_their_path_once(self, tmp_path, capsys, kind):
        doc = seeded_context_doc(kind)
        doc["bimodule_v"]["left_action"] = 7
        path = tmp_path / f"{kind}.yaml"
        path.write_text(formats.render(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (f"{path}: {kind}.bimodule_v.left_action: "
                                           f"expected {doc['algebra_a']['dim']} matrices\n")


def seeded_context_doc(kind: str) -> dict:
    """The document of a seeded context ring or triangular ring window over
    F_2 at ranks up to 1."""
    rng = random.Random(13)
    if kind == "morita":
        d = random_morita_data(rng, F2)
        return formats.context_to_doc(d, random_morita_window(d, rng, max_rank=1))
    d = random_triangular_data(rng, F2)
    return formats.context_to_doc(d, random_triangular_window(d, rng, max_rank=1))


def invalid_bundle_window(tmp_path, part: str) -> str:
    """x_window.yaml with the algebra of bad_assoc_bundle.yaml, or with a
    bimodule on which the unit acts as zero."""
    doc = yaml.safe_load(Path(fixture("x_window.yaml")).read_text())
    if part == "algebra":
        bad = yaml.safe_load(Path(fixture("bad_assoc_bundle.yaml")).read_text())
        doc["bundle"]["algebra"] = bad["algebra"]
    else:
        zero = {"rows": 1, "cols": 1, "entries": [[0]]}
        doc["bundle"]["bimodule"] = {"dim": 1, "left_action": [zero, zero],
                                     "right_action": [zero, zero]}
    path = tmp_path / f"bad_{part}_window.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestInvalidBundleRefused:
    @pytest.mark.parametrize("command,source", [
        ("hunt", "bad_assoc_bundle.yaml"),
        ("hunt", "nonassoc_bundle.yaml"),
        ("check", "algebra"),
        ("strong", "algebra"),
        ("extract-gp", "algebra"),
        ("validate", "algebra"),
        ("check", "bimodule"),
    ])
    def test_exit_2(self, tmp_path, capsys, command, source):
        if source.endswith(".yaml"):
            path, part = fixture(source), "algebra"
        else:
            path, part = invalid_bundle_window(tmp_path, source), source
        assert main([command, path]) == 2
        assert f"bundle.{part}: invalid {part}" in capsys.readouterr().err


class TestKindTable:
    """``validate`` and ``specialize`` read every kind through
    ``formats.KINDS``; each single-kind command refuses another kind in
    its own words."""

    def test_format_doc_lists_the_table(self):
        text = (FIXTURES.parents[1] / "docs" / "format.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| (the top level|`bundle`) \|", text, re.M)
        assert {kind: None if at == "the top level" else at.strip("`") for kind, at in rows} \
            == {kind: at for kind, (_read, at) in formats.KINDS.items()}

    @pytest.mark.parametrize("kind", [["bundle"], {"kind": "bundle"}, [], None, 5, "x"])
    def test_unknown_kind_exits_2_in_every_command(self, tmp_path, capsys, kind):
        doc = yaml.safe_load(Path(fixture("triangular_bundle.yaml")).read_text())
        doc["kind"] = kind
        path = tmp_path / "input.yaml"
        path.write_text(yaml.safe_dump(doc))
        for command, line in (("validate", f"unknown kind {kind!r}"),
                              ("specialize", f"unknown specialization kind {kind!r}"),
                              ("hunt", "expected a bundle file"),
                              ("check", f"window: expected kind 'window', got {kind!r}"),
                              ("compat", f"complex: expected kind 'complex', got {kind!r}")):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err == f"{path}: {line}\n"

    # a value of None deletes the key
    @pytest.mark.parametrize("key,value", [("nilpotency", None), ("field", 4), ("field", None),
                                           ("algebra", []), ("bimodule", {"dim": 1})])
    def test_validate_prints_what_hunt_prints(self, tmp_path, capsys, key, value):
        doc = yaml.safe_load(Path(fixture("triangular_bundle.yaml")).read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path = tmp_path / "input.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["hunt", str(path)]) == 2
        hunt = capsys.readouterr().err
        assert hunt.startswith(f"{path}: bundle")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == hunt


class TestViolationLines:
    """An invalid algebra or bimodule is refused on one line that names
    the first violated axiom and its witness indices, in the words that
    ``validate`` lists a bundle file's violations in, and never prints the
    residual matrix."""

    @pytest.mark.parametrize("command,source,edit,line", [
        ("hunt", "bad_assoc_bundle.yaml", None,
         "bundle.algebra: invalid algebra: unit-left violated at (0,)"),
        ("hunt", "nonassoc_bundle.yaml", None,
         "bundle.algebra: invalid algebra: associativity violated at (1, 1, 1)"),
        ("check", "algebra", None,
         "window.bundle.algebra: invalid algebra: unit-left violated at (0,)"),
        ("validate", "algebra", None,
         "window.bundle.algebra: invalid algebra: unit-left violated at (0,)"),
        ("strong", "bimodule", None,
         "window.bundle.bimodule: invalid bimodule: left-unit violated at ()"),
        ("specialize", "morita_window.yaml", (("algebra_a", "struct_consts", 0, 0, 1), 5),
         "morita.algebra_a: invalid algebra: unit-left violated at (0,)"),
        ("specialize", "morita_window.yaml", (("bimodule_v", "left_action", 1, "entries", 0), [5]),
         "morita.bimodule_v: invalid bimodule: left-unit violated at ()"),
    ])
    def test_one_line_without_a_matrix(self, tmp_path, capsys, command, source, edit, line):
        if not source.endswith(".yaml"):
            path = invalid_bundle_window(tmp_path, source)
        elif edit is None:
            path = fixture(source)
        else:
            doc = yaml.safe_load(Path(fixture(source)).read_text())
            at, value = edit
            node = doc
            for key in at[:-1]:
                node = node[key]
            node[at[-1]] = value
            path = str(tmp_path / source)
            Path(path).write_text(yaml.safe_dump(doc))
        assert main([command, path]) == 2
        assert capsys.readouterr().err == f"{path}: {line}\n"


def triangular_period_two_doc():
    """A triangular file with period 2 whose top ranks alternate 1, 0, so
    that no other period fits it."""
    from tensorgp.algebra import ModuleMap, free_module
    from tensorgp.special_rings import (PairBimodule, TriangularData, TriangularWindow,
                                        block_power_module)

    a = dual_numbers(F2)
    b = ground_algebra(F2)
    d = TriangularData(a, b, PairBimodule.zero(a, b))
    ranks_p, ranks_q = (1, 0, 1), (1, 1, 1)
    tau = tuple(ModuleMap.zero(free_module(a, ranks_p[t]), free_module(a, ranks_p[t + 1]))
                for t in range(2))
    sigma = tuple(ModuleMap.zero(free_module(b, 1), free_module(b, 1)) for _ in range(2))
    beta = tuple(ModuleMap.zero(free_module(a, ranks_p[t]), block_power_module(d.v, 1))
                 for t in range(2))
    w = TriangularWindow(0, ranks_p, ranks_q, tau, sigma, beta, period=2)
    return formats.context_to_doc(d, w)


def one_failure_triangular_doc(failing: str) -> dict:
    """A one-periodic triangular file over F_2 with a = k[x]/(x^2), b = k
    and v = a (x)_k b.  With "(iii)" it has tau = x, sigma = 0 and beta the
    identity of a = v, so that beta x is not zero and (iii) is its one
    failing condition.  With "(iv)" it has ranks q = 0 and tau = 0 on rank
    1, so that (iv) fails while (ii) exact holds."""
    from tensorgp.algebra import ModuleMap, free_module
    from tensorgp.exactlin import Matrix
    from tensorgp.special_rings import TriangularData, TriangularWindow, block_power_module

    a, b = dual_numbers(F2), ground_algebra(F2)
    d = TriangularData(a, b, full_tensor_pair(a, b))
    p = free_module(a, 1)
    if failing == "(iii)":
        q = free_module(b, 1)
        beta = ModuleMap(p, block_power_module(d.v, 1), Matrix.identity(F2, 2))
        w = TriangularWindow(0, (1, 1), (1, 1), (x_multiplication(F2),),
                             (ModuleMap.zero(q, q),), (beta,), period=1)
    else:
        q = free_module(b, 0)
        w = TriangularWindow(0, (1, 1), (0, 0), (ModuleMap.zero(p, p),), (ModuleMap.zero(q, q),),
                             (ModuleMap.zero(p, block_power_module(d.v, 0)),), period=1)
    return formats.context_to_doc(d, w)


class TestPeriodRefused:
    @pytest.mark.parametrize("period", ["1", "1.5", "a"])
    def test_bad_triangular_period(self, tmp_path, capsys, period):
        text = formats.render(triangular_period_two_doc())
        assert "  period: 2\n" in text
        path = tmp_path / "triangular.yaml"
        path.write_text(text)
        assert main(["specialize", str(path)]) in (0, 1)
        path.write_text(text.replace("  period: 2\n", f"  period: {period}\n"))
        assert main(["specialize", str(path)]) == 2
        assert "triangular.window" in capsys.readouterr().err

    @pytest.mark.parametrize("name,command", [("x_window.yaml", "check"),
                                              ("incompatible_complex.yaml", "compat")])
    def test_boolean_period_in_window_and_complex(self, tmp_path, capsys, name, command):
        text = Path(fixture(name)).read_text()
        assert "  period: 1\n" in text
        bad = tmp_path / name
        bad.write_text(text.replace("  period: 1\n", "  period: true\n"))
        assert main([command, str(bad)]) == 2
        assert "period must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["morita", "triangular"])
    def test_boolean_period_in_context_windows(self, tmp_path, capsys, kind):
        doc = seeded_context_doc(kind) if kind == "morita" else triangular_period_two_doc()
        doc["window"]["period"] = True
        path = tmp_path / f"{kind}.yaml"
        path.write_text(formats.render(doc))
        assert main(["specialize", str(path)]) == 2
        assert "period must be an integer" in capsys.readouterr().err


class TestIntegerFieldsRefused:
    @pytest.mark.parametrize("command,source,old,new,where", [
        (command, "semisimple_complex.yaml", "ranks: [1, 1, 1]", ranks, "complex.ranks")
        for command in ("compat", "validate")
        for ranks in ("ranks: [a, 1, 1]", "ranks: [-1, 1, 1]", "ranks: [1, 1]")
    ] + [
        ("specialize", "triangular", "ranks_p: [1, 0, 1]", ranks, "window.ranks_p")
        for ranks in ("ranks_p: [a, 0, 1]", "ranks_p: [-1, 0, 1]", "ranks_p: [1, 0]")
    ] + [
        ("specialize", "triangular", "ranks_q: [1, 1, 1]", "ranks_q: [1, 1, 1, 1]",
         "window.ranks_q"),
        ("check", "x_window.yaml", "ranks: [1, 1]", "ranks: [true, true]", "window.ranks"),
        ("check", "x_window.yaml", "  lo: 0", "  lo: false", "window.lo"),
        ("check", "x_window.yaml", "rows: 2, cols", "rows: true, cols", ".rows"),
        ("validate", "triangular_bundle.yaml", "nilpotency: 1", "nilpotency: true",
         "nilpotency"),
        ("hunt", "triangular_bundle.yaml", "nilpotency: 1", "nilpotency: true", "nilpotency"),
        ("validate", "triangular_bundle.yaml", "  dim: 2", "  dim: true", "algebra.dim"),
        ("validate", "triangular_bundle.yaml", "  dim: 1", "  dim: -1", "bimodule.dim"),
    ] + [
        # sizes above formats.MAX_SIZE, each refused before any array is made
        ("check", "x_window.yaml", old, new, where) for old, new, where in (
            ("ranks: [1, 1]", f"ranks: [{10 ** 20}, 1]", "window.ranks[0]"),
            ("ranks: [1, 1]", f"ranks: [1, {formats.MAX_SIZE + 1}]", "window.ranks[1]"),
            ("rows: 0, cols: 0", f"rows: 0, cols: {10 ** 20}", "left_action[0].cols"),
            ("rows: 0, cols: 0", f"rows: {10 ** 20}, cols: 0", "left_action[0].rows"),
            ("    dim: 0", f"    dim: {10 ** 20}", "bimodule.dim"),
            ("    dim: 2", f"    dim: {10 ** 20}", "algebra.dim"))
    ])
    def test_exit_2(self, tmp_path, capsys, command, source, old, new, where):
        if source == "triangular":
            text = formats.render(triangular_period_two_doc())
        else:
            text = Path(fixture(source)).read_text()
        assert old in text
        path = tmp_path / "input.yaml"
        path.write_text(text.replace(old, new, 1))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and where in err

    def test_size_limit_is_inclusive(self):
        assert formats.int_from_doc(formats.MAX_SIZE, "w", 0, formats.MAX_SIZE) == \
            formats.MAX_SIZE
        with pytest.raises(formats.FormatError, match="^w: .* above the size limit"):
            formats.int_from_doc(formats.MAX_SIZE + 1, "w", 0, formats.MAX_SIZE)

    def test_integer_beyond_the_int_string_limit(self, tmp_path, capsys):
        text = Path(fixture("x_window.yaml")).read_text()
        path = tmp_path / "input.yaml"
        path.write_text(text.replace("  lo: 0", "  lo: " + "1" * 5_000, 1))
        assert main(["check", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err


class TestZeroDenominatorRefused:
    """A rational scalar with denominator zero is bad input (exit 2, one
    line naming its path), not an uncaught error."""

    @pytest.mark.parametrize("command,old,new,where", [
        ("check", "entries: [['1/2', 0]", "entries: [['1/0', 0]",
         "window.maps[0].components[0].entries[0]"),
        ("validate", "- [[1, 0], [0, 0]]", "- [['1/0', 0], [0, 0]]",
         "bundle.algebra.struct_consts[0][0]"),
    ])
    def test_exit_2(self, tmp_path, capsys, command, old, new, where):
        text = Path(fixture("q_window.yaml")).read_text()
        assert old in text
        path = tmp_path / "input.yaml"
        path.write_text(text.replace(old, new, 1))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and err.count(str(path)) == 1
        assert err.count("\n") == 1 and err.endswith(f"{where}: bad rational scalar '1/0'\n")

    # (source, its edits to a file over Q with '1/0' as a scalar, the scalar's path)
    _WINDOW = ("q_window.yaml", [("entries: [['1/2', 0]", "entries: [['1/0', 0]")],
               "window.maps[0].components[0].entries[0]")
    _COMPLEX = ("semisimple_complex.yaml",
                [("field: 2", "field: Q"), ("entries: [[1, 0], [0, 0]]}",
                                            "entries: [['1/0', 0], [0, 0]]}")],
                "complex.maps[0].entries[0]")

    @pytest.mark.parametrize("command,source,edits,where", [
        ("extract-gp", *_WINDOW),
        ("strong", *_WINDOW),
        ("specialize", _WINDOW[0], [("kind: window", "kind: trivext"), *_WINDOW[1]],
         _WINDOW[2]),
        ("specialize", "triangular_window.yaml",
         [("field: 2", "field: Q"), ("- [1, 0]", "- ['1/0', 0]")],
         "triangular.bimodule_v.left_action[0].entries[0]"),
        ("compat", *_COMPLEX),
        ("lift", *_COMPLEX),
        ("validate", *_COMPLEX),
        ("hunt", "triangular_bundle.yaml",
         [("field: 2", "field: Q"), ("- [[1, 0], [0, 0]]", "- [['1/0', 0], [0, 0]]")],
         "bundle.algebra.struct_consts[0][0]"),
    ], ids=["extract-gp", "strong", "specialize-trivext", "specialize-triangular",
            "compat", "lift", "validate", "hunt"])
    def test_every_command_names_its_file(self, tmp_path, capsys, command, source, edits,
                                          where):
        text = Path(fixture(source)).read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        path = tmp_path / "input.yaml"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"{path}: {where}: bad rational scalar '1/0'\n"


class TestFailedCertificateNamesItsFile:
    """A nilpotency certificate that fails while a file is parsed is
    reported on one line that starts with the path, as ``validate``
    reports it."""

    _WINDOW = ("q_window.yaml", [("  nilpotency: 1", "  nilpotency: 0")])

    @pytest.mark.parametrize("command,source,edits", [
        ("check", *_WINDOW),
        ("strong", *_WINDOW),
        ("extract-gp", *_WINDOW),
        ("hunt", "bad_nilpotency_bundle.yaml", []),
        ("specialize", "trivext_window.yaml", [("  nilpotency: 1", "  nilpotency: 0")]),
    ], ids=["check", "strong", "extract-gp", "hunt", "specialize"])
    def test_exit_2(self, tmp_path, capsys, command, source, edits):
        text = Path(fixture(source)).read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        path = tmp_path / "input.yaml"
        path.write_text(text)
        line = f"{path}: tensor power 1 has dimension 1, not 0\n"
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == line
        if command != "hunt":  # validate reports a bundle's certificate in its own words
            assert main(["validate", str(path)]) == 2
            assert capsys.readouterr().err == line


class TestYamlLoader:
    def documents(self):
        texts = [p.read_text() for p in sorted(FIXTURES.glob("*.yaml"))]
        texts.append(formats.render(triangular_period_two_doc()))
        return texts

    def test_both_loaders_give_equal_documents(self):
        # by repr, which tells True from 1 and a list from a tuple, as the
        # ring table of bundle_from_doc does
        loaders = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
        for text in self.documents():
            doc = formats.load(text)
            for loader in loaders:
                assert repr(yaml.load(text, Loader=loader)) == repr(doc)

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("kind: window\nwindow: [1, 2\n")
        for command in ("validate", "check"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{path}: parse error: ") and err.count(str(path)) == 1
            assert "<input>" not in err


class TestCheck:
    def test_x_window_passes(self, tmp_path, capsys):
        out = tmp_path / "report.yaml"
        assert main(["check", fixture("x_window.yaml"), "--output", str(out)]) == 0
        doc = yaml.safe_load(out.read_text())
        assert doc["kind"] == "report" and doc["passed"] is True

    def test_identity_window_fails_with_witness(self, tmp_path):
        out = tmp_path / "report.yaml"
        assert main(["check", fixture("identity_window.yaml"),
                     "--output", str(out)]) == 1
        doc = yaml.safe_load(out.read_text())
        fails = [v for v in doc["verdicts"] if v["status"] == "fail"]
        assert any(v["label"] == "C1" and v["witness"]["type"] == "block"
                   for v in fails)

    def test_oracle_and_both_modes(self):
        assert main(["check", fixture("x_window.yaml"), "--mode", "oracle"]) == 0
        assert main(["check", fixture("x_window.yaml"), "--mode", "both"]) == 0
        assert main(["check", fixture("identity_window.yaml"), "--mode", "both"]) == 1

    def test_complex_that_is_not_exact_fails_in_both_modes(self, tmp_path, capsys):
        # C1 passes and C2 fails, so the exactness oracle agrees with C1
        # and C2 together, not with C1 alone
        a = dual_numbers(F2)
        w = zero_window(TensorRing(a, zero_bimodule(a), 0), 1)
        path = tmp_path / "zero.yaml"
        path.write_text(formats.render(formats.window_to_doc(w)))
        out = tmp_path / "report.yaml"
        assert main(["check", str(path), "--mode", "both", "--output", str(out)]) == 1
        assert "checker and oracle agree at every position" in capsys.readouterr().err
        statuses = {v["label"]: v["status"] for v in yaml.safe_load(out.read_text())["verdicts"]}
        assert statuses == {"C1": "pass", "C2": "fail", "C3": "fail"}

    @pytest.mark.parametrize("oracle, flipped, message", [
        ("exactness_oracle", lambda w: {k: False for k in w.positions()},
         "internal: checker and exactness oracle disagree at k=0\n"),
        ("hom_complex_oracle", lambda w: {k: 1 for k in w.positions()},
         "internal: checker and hom oracle disagree at k=0\n"),
    ], ids=["exactness", "hom"])
    def test_oracle_disagreement_exits_3(self, tmp_path, capsys, monkeypatch, oracle,
                                         flipped, message):
        import tensorgp.cli as cli

        out = tmp_path / "report.yaml"
        monkeypatch.setattr(cli, oracle, flipped)
        assert main(["check", fixture("x_window.yaml"), "--mode", "both",
                     "--output", str(out)]) == 3
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_rational_window_both_modes_round_trip(self, tmp_path, capsys):
        from tensorgp.exactlin import QQ
        from tensorgp.resolution import (BlockWitness, CheckReport, FunctionalWitness,
                                         KernelWitness, Verdict, replay_verdict)

        out = tmp_path / "report.yaml"
        assert main(["check", fixture("q_window.yaml"), "--mode", "both",
                     "--output", str(out)]) == 1
        assert "checker and oracle agree at every position" in capsys.readouterr().err
        text = out.read_text()
        assert "'1/3'" in text
        # rebuild the report, witnesses included, and render it again
        verdicts = []
        for node in formats.load(text)["verdicts"]:
            wd = node.get("witness")
            witness = None
            if wd is not None and wd["type"] == "block":
                witness = BlockWitness(wd["j"], formats.matrix_from_doc(QQ, wd["component"], "w"))
            elif wd is not None and wd["type"] == "kernel":
                witness = KernelWitness(formats.matrix_from_doc(QQ, wd["vector"], "w"))
            elif wd is not None:
                witness = FunctionalWitness(tuple(formats.matrix_from_doc(QQ, m, "w")
                                                  for m in wd["components"]))
            verdicts.append(Verdict(node["label"], node.get("k"), node["status"], witness,
                                    node.get("note", "")))
        doc = formats.load(text)
        report = CheckReport(doc["scheme"], tuple(verdicts), window_local=doc["window_local"])
        assert formats.render(formats.report_to_doc(QQ, report)) == text
        w = formats.window_from_doc(formats.load(Path(fixture("q_window.yaml")).read_text()))
        assert report.failures() and all(replay_verdict(w, v) for v in report.failures())

    def test_period_flag_upgrades_window(self, tmp_path, capsys):
        # strip the period from the fixture, then impose it from the flag
        doc = yaml.safe_load(Path(fixture("x_window.yaml")).read_text())
        doc["window"].pop("period")
        doc["window"]["ranks"] = [1, 1]
        nofile = tmp_path / "local.yaml"
        nofile.write_text(yaml.safe_dump(doc))
        out = tmp_path / "report.yaml"
        assert main(["check", str(nofile), "--output", str(out)]) == 0
        local = yaml.safe_load(out.read_text())
        assert local["window_local"] is True
        assert main(["check", str(nofile), "--period", "1",
                     "--output", str(out)]) == 0
        upgraded = yaml.safe_load(out.read_text())
        assert upgraded["window_local"] is False

    def test_period_flag_on_a_list_window_section(self, tmp_path, capsys):
        doc = yaml.safe_load(Path(fixture("x_window.yaml")).read_text())
        doc["window"] = [1, 2]
        bad = tmp_path / "list_window.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert main(["check", str(bad), "--period", "1"]) == 2
        err = capsys.readouterr().err
        assert "missing window section" in err and "Traceback" not in err

    def test_non_integer_lo_is_invalid_input(self, tmp_path, capsys):
        text = Path(fixture("x_window.yaml")).read_text()
        assert "  lo: 0\n" in text
        bad = tmp_path / "bad_lo.yaml"
        bad.write_text(text.replace("  lo: 0\n", "  lo: a\n"))
        assert main(["check", str(bad)]) == 2
        assert "window.lo" in capsys.readouterr().err
        bad.write_text(text.replace("  lo: 0\n", "  lo: true\n"))
        assert main(["check", str(bad)]) == 2


class TestUnwritableOutput:
    @pytest.mark.parametrize("args", [
        ["check", fixture("x_window.yaml")],
        ["hunt", fixture("triangular_bundle.yaml"), "--max-rank", "1"],
    ], ids=["check", "hunt"])
    def test_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "missing" / "out.yaml"
        assert main(args + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"{out}: ")
        assert "Traceback" not in err and not out.exists()


class TestExtractAndStrong:
    def test_extract_gp(self, tmp_path, capsys):
        out = tmp_path / "module.yaml"
        assert main(["extract-gp", fixture("x_window.yaml"), "--k", "0",
                     "--output", str(out)]) == 0
        doc = yaml.safe_load(out.read_text())
        assert doc["kind"] == "module" and doc["dim"] == 1
        assert "dimension 1" in capsys.readouterr().err

    def test_extract_refused_on_failing_window(self):
        assert main(["extract-gp", fixture("identity_window.yaml")]) == 1

    def test_index_with_no_map_is_invalid_input(self, tmp_path, capsys):
        doc = yaml.safe_load(Path(fixture("x_window.yaml")).read_text())
        doc["window"].pop("period")
        local = tmp_path / "local.yaml"
        local.write_text(yaml.safe_dump(doc))
        args = ["extract-gp", str(local), "--k", "1", "--allow-window-local"]
        assert main(args) == 2
        assert capsys.readouterr().err == "invalid input: no map at index 1\n"

    def test_internal_check_error_still_exits_3(self, tmp_path, capsys, monkeypatch):
        from tensorgp import cli
        from tensorgp.resolution import InternalCheckError

        def broken(*args, **kwargs):
            raise InternalCheckError("structure map does not restrict to the kernel")

        monkeypatch.setattr(cli, "extract_gp", broken)
        assert main(["extract-gp", fixture("x_window.yaml"), "--k", "0"]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_strong(self, tmp_path):
        out = tmp_path / "report.yaml"
        assert main(["strong", fixture("x_window.yaml"), "--output", str(out)]) == 0
        doc = yaml.safe_load(out.read_text())
        labels = {v["label"] for v in doc["verdicts"]}
        assert labels == {"SC1", "SC2", "SC3"}

    def test_strong_needs_single_map(self, tmp_path):
        assert main(["strong", fixture("trivext_window.yaml")]) == 2


class TestCompatLift:
    def test_compatible_complex(self, tmp_path):
        out = tmp_path / "report.yaml"
        assert main(["compat", fixture("semisimple_complex.yaml"),
                     "--output", str(out)]) == 0
        doc = yaml.safe_load(out.read_text())
        assert doc["passed"] is True

    def test_incompatible_complex(self, tmp_path, capsys):
        out = tmp_path / "report.yaml"
        assert main(["compat", fixture("incompatible_complex.yaml"),
                     "--output", str(out)]) == 1
        doc = yaml.safe_load(out.read_text())
        fails = [v for v in doc["verdicts"] if v["status"] == "fail"]
        assert any(v["label"] == "F1-exact" for v in fails)

    def test_lift_compatible_and_recheck(self, tmp_path, capsys):
        out = tmp_path / "lifted.yaml"
        assert main(["lift", fixture("semisimple_complex.yaml"),
                     "--output", str(out)]) == 0
        assert main(["check", str(out), "--mode", "both"]) == 0

    def test_lift_refused_citing_level(self, capsys):
        assert main(["lift", fixture("incompatible_complex.yaml")]) == 1
        err = capsys.readouterr().err
        assert "F1" in err


class TestSpecialize:
    def test_trivext(self, tmp_path, capsys):
        out = tmp_path / "spec.yaml"
        assert main(["specialize", fixture("trivext_window.yaml"),
                     "--output", str(out)]) == 0
        doc = yaml.safe_load(out.read_text())
        assert doc["specialized"]["passed"] is True
        assert doc["generic"]["passed"] is True
        assert "agree" in capsys.readouterr().err

    def test_trivext_disagreement_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        import tensorgp.cli as cli

        real = cli.trivext_checks

        def one_verdict_skipped(d, w):
            report = real(d, w)
            first = replace(report.verdicts[0], status="skip")
            return replace(report, verdicts=(first,) + report.verdicts[1:])

        monkeypatch.setattr(cli, "trivext_checks", one_verdict_skipped)
        out = tmp_path / "spec.yaml"
        assert main(["specialize", fixture("trivext_window.yaml"), "--output", str(out)]) == 3
        assert "verdicts differ" in capsys.readouterr().err
        assert not out.exists()

    def test_morita_roundtrip_and_specialize(self, tmp_path):
        rng = random.Random(5)
        d = random_morita_data(rng, F2)
        w = random_morita_window(d, rng, max_rank=1)
        path = tmp_path / "morita.yaml"
        path.write_text(formats.render(formats.context_to_doc(d, w)))
        out = tmp_path / "spec.yaml"
        code = main(["specialize", str(path), "--output", str(out)])
        doc = yaml.safe_load(out.read_text())
        assert doc["kind"] == "specialize-report"
        assert code in (0, 1)
        # the transported generic verdicts are present and consistent
        if "generic" in doc:
            assert doc["generic"]["passed"] == doc["specialized"]["passed"]

    @staticmethod
    def _first_verdict_skipped(monkeypatch, name):
        import tensorgp.cli as cli

        real = getattr(cli, name)

        def first_skipped(*args):
            report = real(*args)
            first = replace(report.verdicts[0], status="skip")
            return replace(report, verdicts=(first,) + report.verdicts[1:])

        monkeypatch.setattr(cli, name, first_skipped)

    def test_morita_disagreement_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(5)
        d = random_morita_data(rng, F2)
        w = random_morita_window(d, rng, max_rank=1)
        path = tmp_path / "morita.yaml"
        path.write_text(formats.render(formats.context_to_doc(d, w)))
        out = tmp_path / "spec.yaml"
        assert main(["specialize", str(path), "--output", str(out)]) == 0
        assert "verdicts agree" in capsys.readouterr().err
        out.unlink()
        self._first_verdict_skipped(monkeypatch, "morita_checks")  # C1' at k=0
        assert main(["specialize", str(path), "--output", str(out)]) == 3
        assert "context-ring and generic verdicts differ" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, message", [
        ("triangular_checks", "triangular and context-ring verdicts differ"),
        ("morita_checks", "triangular and context-ring verdicts differ"),
        ("check_complete", "context-ring and generic verdicts differ"),
    ])
    def test_triangular_disagreement_is_an_internal_error(self, tmp_path, capsys, monkeypatch,
                                                          name, message):
        rng = random.Random(9)
        d = random_triangular_data(rng, F2)
        w = random_triangular_window(d, rng, max_rank=1)
        path = tmp_path / "triangular.yaml"
        path.write_text(formats.render(formats.context_to_doc(d, w)))
        out = tmp_path / "spec.yaml"
        assert main(["specialize", str(path), "--output", str(out)]) == 0
        out.unlink()
        self._first_verdict_skipped(monkeypatch, name)
        assert main(["specialize", str(path), "--output", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_triangular_specialize(self, tmp_path):
        rng = random.Random(9)
        d = random_triangular_data(rng, F2)
        w = random_triangular_window(d, rng, max_rank=1)
        path = tmp_path / "triangular.yaml"
        path.write_text(formats.render(formats.context_to_doc(d, w)))
        out = tmp_path / "spec.yaml"
        code = main(["specialize", str(path), "--output", str(out)])
        assert code in (0, 1)
        doc = yaml.safe_load(out.read_text())
        assert "context" in doc

    def test_kind_mismatch(self, capsys):
        path = fixture("x_window.yaml")
        assert main(["specialize", path]) == 2
        assert capsys.readouterr().err == f"{path}: unknown specialization kind 'window'\n"

    @pytest.mark.parametrize("failing", ["(iii)", "(iv)"])
    def test_failing_triangular_condition_is_not_a_disagreement(self, tmp_path, capsys,
                                                                  failing):
        out = tmp_path / "spec.yaml"
        path = tmp_path / "triangular.yaml"
        path.write_text(formats.render(one_failure_triangular_doc(failing)))
        assert main(["specialize", str(path), "--output", str(out)]) == 1
        assert "differ" not in capsys.readouterr().err
        statuses = {v["label"]: v["status"]
                    for v in yaml.safe_load(out.read_text())["specialized"]["verdicts"]}
        assert statuses[failing] == "fail"
        if failing == "(iii)":
            assert [label for label, s in statuses.items() if s == "fail"] == ["(iii)"]
        else:
            assert statuses["(ii) exact"] == "pass"


class TestHunt:
    def test_exhaustive_hunt(self, tmp_path, capsys):
        out = tmp_path / "catalog.yaml"
        assert main(["hunt", fixture("triangular_bundle.yaml"), "--max-rank", "1",
                     "--output", str(out)]) == 0
        doc = yaml.safe_load(out.read_text())
        assert doc["kind"] == "catalog" and doc["total"] == 9

    def test_budget_exceeded(self, capsys):
        assert main(["hunt", fixture("triangular_bundle.yaml"), "--max-rank", "2",
                     "--budget", "100"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_sampling_fallback(self, tmp_path, capsys):
        out = tmp_path / "catalog.yaml"
        assert main(["hunt", fixture("triangular_bundle.yaml"), "--max-rank", "2",
                     "--budget", "100", "--seed", "7", "--output", str(out)]) == 0
        doc = yaml.safe_load(out.read_text())
        assert doc["total"] == 100

    @pytest.mark.parametrize("extra", [[], ["--seed", "1", "--budget", "100"]])
    def test_unit_table_ceiling(self, capsys, extra):
        assert main(["hunt", fixture("triangular_bundle.yaml"), "--max-rank", "27"] + extra) == 3
        assert capsys.readouterr().err == \
            f"the slot frame of rank 27 has {27 ** 4 * 18} entries, past the ceiling of {1 << 23}\n"

    def test_negative_max_rank_refused(self, capsys):
        assert main(["hunt", fixture("triangular_bundle.yaml"), "--max-rank", "-1"]) == 2
        assert "max-rank" in capsys.readouterr().err

    def test_negative_budget_refused(self, capsys):
        assert main(["hunt", fixture("triangular_bundle.yaml"), "--budget", "-5"]) == 2
        assert "--budget must be non-negative" in capsys.readouterr().err
        # a zero budget still admits no candidate
        assert main(["hunt", fixture("triangular_bundle.yaml"), "--budget", "0"]) == 3

    @pytest.mark.parametrize("extra", [[], ["--seed", "7"]])
    def test_rational_field_refused(self, tmp_path, capsys, extra):
        text = Path(fixture("triangular_bundle.yaml")).read_text()
        assert "\nfield: 2\n" in text
        path = tmp_path / "q_bundle.yaml"
        path.write_text(text.replace("\nfield: 2\n", "\nfield: Q\n"))
        assert main(["hunt", str(path)] + extra) == 2
        assert "finite field" in capsys.readouterr().err

    def test_catalog_reverifies_after_reload(self, tmp_path):
        from tensorgp.search import reverify_catalog

        out = tmp_path / "catalog.yaml"
        main(["hunt", fixture("triangular_bundle.yaml"), "--max-rank", "1",
              "--output", str(out)])
        doc = yaml.safe_load(out.read_text())
        m = corner_bimodule(F2)
        ring = TensorRing(m.algebra, m, 1)
        catalog = formats.catalog_from_doc(F2, doc)
        assert reverify_catalog(ring, catalog)

    @pytest.mark.parametrize("group, total, where", [
        ({"rank": True, "kernel_dim": "x", "count": -3, "passed": "no",
          "representative": []}, 1, "catalog.groups[0].passed"),
        ({"rank": True, "kernel_dim": 0, "count": 1, "passed": True,
          "representative": []}, 1, "catalog.groups[0].rank"),
        ({"rank": 1, "kernel_dim": 0, "count": -3, "passed": True,
          "representative": []}, 1, "catalog.groups[0].count"),
        ({"rank": 1, "kernel_dim": 0, "passed": True, "representative": []},
         1, "catalog.groups[0].count"),
        ({"rank": 1, "kernel_dim": 0, "count": 1, "passed": True}, 1, "catalog.groups[0]"),
        ({"rank": 1, "kernel_dim": 0, "count": 1, "passed": True,
          "representative": []}, None, "catalog.total"),
    ])
    def test_catalog_fields_refused(self, group, total, where):
        doc = {"kind": "catalog", "groups": [group]}
        if total is not None:
            doc["total"] = total
        with pytest.raises(formats.FormatError) as exc:
            formats.catalog_from_doc(F2, doc)
        assert str(exc.value).startswith(f"{where}:")

    @pytest.mark.parametrize("groups", [5, {"rank": 1, "kernel_dim": 0, "count": 1,
                                            "passed": True, "representative": []}])
    def test_catalog_groups_not_a_list_refused(self, groups):
        with pytest.raises(formats.FormatError) as exc:
            formats.catalog_from_doc(F2, {"kind": "catalog", "total": 1, "groups": groups})
        assert str(exc.value).startswith("catalog.groups:")


class TestCanonicalRoundTrip:
    def test_window_emission_is_stable(self, tmp_path):
        doc = formats.load(Path(fixture("x_window.yaml")).read_text())
        w = formats.window_from_doc(doc)
        once = formats.render(formats.window_to_doc(w))
        again = formats.render(formats.window_to_doc(
            formats.window_from_doc(formats.load(once))))
        assert once == again

    def test_context_emission_is_stable(self):
        """Read and write again both context kinds, byte for byte, on
        seeded windows over F_2, F_3 and Q, window-local ones included."""
        from tensorgp.exactlin import QQ

        for field in (F2, F3, QQ):
            for i in range(4):
                rng = random.Random(13 + i)
                for data, window in ((random_morita_data, random_morita_window),
                                     (random_triangular_data, random_triangular_window)):
                    d = data(rng, field)
                    w = window(d, rng, max_rank=2, period=1 + i % 2)
                    if i == 3:
                        w = replace(w, period=None)
                    once = formats.render(formats.context_to_doc(d, w))
                    d2, w2 = formats.context_from_doc(formats.load(once))
                    assert (d2, w2) == (d, w)
                    assert formats.render(formats.context_to_doc(d2, w2)) == once

    def test_rational_scalars(self):
        from fractions import Fraction
        from tensorgp.exactlin import QQ, Matrix

        m = Matrix.from_rows(QQ, [[Fraction(1, 2), 2], [0, Fraction(-3, 4)]])
        doc = formats.matrix_to_doc(m)
        text = formats.render({"m": doc})
        back = formats.matrix_from_doc(QQ, formats.load(text)["m"], "m")
        assert back == m


class TestBundleInterning:
    def bundle(self):
        return formats.load(Path(fixture("triangular_bundle.yaml")).read_text())

    def test_identical_documents_share_one_ring(self):
        ring = formats.bundle_from_doc(self.bundle())
        assert formats.bundle_from_doc(self.bundle()) is ring
        text = Path(fixture("x_window.yaml")).read_text()
        first = formats.window_from_doc(formats.load(text))
        assert formats.window_from_doc(formats.load(text)).ring is first.ring

    @pytest.mark.parametrize("value", [True, "1", 1.0])
    def test_equal_scalars_of_other_types_are_not_the_same_document(self, value):
        formats.bundle_from_doc(self.bundle())
        doc = self.bundle()
        doc["nilpotency"] = value
        with pytest.raises(formats.FormatError, match="nilpotency"):
            formats.bundle_from_doc(doc)

    def test_invalid_documents_are_refused_every_time(self):
        doc = self.bundle()
        doc["nilpotency"] = 0
        for _ in range(2):
            with pytest.raises(NotNilpotent):
                formats.bundle_from_doc(doc)
