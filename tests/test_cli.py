"""End-to-end tests of the command line front end and the file formats."""

import random
from pathlib import Path

import pytest
import yaml

from tensorgp import formats
from tensorgp.cli import main
from tensorgp.tensor_ring import NotNilpotent, TensorRing
from tensorgp.bimodule import zero_bimodule

from helpers import (
    F2,
    corner_bimodule,
    dual_numbers,
    full_tensor_pair,
    ground_algebra,
    random_morita_data,
    random_morita_window,
    random_triangular_data,
    random_triangular_window,
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
        rng = random.Random(13)
        if kind == "morita":
            d = random_morita_data(rng, F2)
            doc = formats.morita_to_doc(d, random_morita_window(d, rng, max_rank=1))
        else:
            d = random_triangular_data(rng, F2)
            doc = formats.triangular_to_doc(d, random_triangular_window(d, rng, max_rank=1))
        doc = formats.load(formats.render(doc))
        doc["window"]["lo"] = True
        with pytest.raises(formats.FormatError, match="window.lo"):
            getattr(formats, f"{kind}_from_doc")(doc)


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
    return formats.triangular_to_doc(d, w)


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
        rng = random.Random(13)
        if kind == "morita":
            d = random_morita_data(rng, F2)
            doc = formats.morita_to_doc(d, random_morita_window(d, rng, max_rank=1))
        else:
            doc = triangular_period_two_doc()
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
        assert where in capsys.readouterr().err


class TestYamlLoader:
    def documents(self):
        texts = [p.read_text() for p in sorted(FIXTURES.glob("*.yaml"))]
        texts.append(formats.render(triangular_period_two_doc()))
        return texts

    def test_both_loaders_give_equal_documents(self):
        loaders = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
        for text in self.documents():
            doc = formats.load(text)
            for loader in loaders:
                assert yaml.load(text, Loader=loader) == doc

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("kind: window\nwindow: [1, 2\n")
        assert main(["check", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err


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

    def test_non_integer_lo_is_invalid_input(self, tmp_path, capsys):
        text = Path(fixture("x_window.yaml")).read_text()
        assert "  lo: 0\n" in text
        bad = tmp_path / "bad_lo.yaml"
        bad.write_text(text.replace("  lo: 0\n", "  lo: a\n"))
        assert main(["check", str(bad)]) == 2
        assert "window.lo" in capsys.readouterr().err
        bad.write_text(text.replace("  lo: 0\n", "  lo: true\n"))
        assert main(["check", str(bad)]) == 2


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

    def test_morita_roundtrip_and_specialize(self, tmp_path):
        rng = random.Random(5)
        d = random_morita_data(rng, F2)
        w = random_morita_window(d, rng, max_rank=1)
        path = tmp_path / "morita.yaml"
        path.write_text(formats.render(formats.morita_to_doc(d, w)))
        out = tmp_path / "spec.yaml"
        code = main(["specialize", str(path), "--output", str(out)])
        doc = yaml.safe_load(out.read_text())
        assert doc["kind"] == "specialize-report"
        assert code in (0, 1)
        # the transported generic verdicts are present and consistent
        if "generic" in doc:
            assert doc["generic"]["passed"] == doc["specialized"]["passed"]

    def test_triangular_specialize(self, tmp_path):
        rng = random.Random(9)
        d = random_triangular_data(rng, F2)
        w = random_triangular_window(d, rng, max_rank=1)
        path = tmp_path / "triangular.yaml"
        path.write_text(formats.render(formats.triangular_to_doc(d, w)))
        out = tmp_path / "spec.yaml"
        code = main(["specialize", str(path), "--output", str(out)])
        assert code in (0, 1)
        doc = yaml.safe_load(out.read_text())
        assert "context" in doc

    def test_kind_mismatch(self):
        assert main(["specialize", fixture("x_window.yaml"),
                     "--kind", "morita"]) == 2


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

    def test_negative_max_rank_refused(self, capsys):
        assert main(["hunt", fixture("triangular_bundle.yaml"), "--max-rank", "-1"]) == 2
        assert "max-rank" in capsys.readouterr().err

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


class TestCanonicalRoundTrip:
    def test_window_emission_is_stable(self, tmp_path):
        doc = formats.load(Path(fixture("x_window.yaml")).read_text())
        w = formats.window_from_doc(doc)
        once = formats.render(formats.window_to_doc(w))
        again = formats.render(formats.window_to_doc(
            formats.window_from_doc(formats.load(once))))
        assert once == again

    def test_morita_emission_is_stable(self):
        rng = random.Random(13)
        d = random_morita_data(rng, F2)
        w = random_morita_window(d, rng, max_rank=1)
        once = formats.render(formats.morita_to_doc(d, w))
        d2, w2 = formats.morita_from_doc(formats.load(once))
        assert formats.render(formats.morita_to_doc(d2, w2)) == once

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
