"""The canonical reader of ``formats.load`` against libyaml.

``formats.load`` reads the canonical form that ``formats.render`` writes
with its own line reader and hands every other text to libyaml.  The
reader must either decline a text or return the document libyaml returns,
equal by ``repr``: the same key order, ``int`` and not ``bool``, ``list``
and not ``tuple``.  ``bundle_from_doc`` keys its rings by that ``repr``.
"""

import random
import string
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tensorgp import formats
from tensorgp.bimodule import zero_bimodule
from tensorgp.cli import main
from tensorgp.exactlin import QQ
from tensorgp.resolution import check_complete, extract_gp
from tensorgp.search import hunt_strongly_gp
from tensorgp.special_rings import morita_checks, triangular_checks
from tensorgp.tensor_ring import TensorRing

from helpers import (F2, F3, corner_bimodule, dual_numbers, random_morita_data,
                     random_morita_window, random_triangular_data,
                     random_triangular_window, window_corpus)

FIXTURES = Path(__file__).parent / "fixtures"
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def assert_parity(text: str):
    """The reader declines ``text`` or agrees with every YAML loader."""
    doc = formats._read_canonical(text)
    if doc is not None:
        for loader in LOADERS:
            assert repr(yaml.load(text, Loader=loader)) == repr(doc), loader.__name__
    return doc


def _cli_outputs(tmp: Path) -> list:
    """What the command line tool writes for the fixtures it accepts."""
    runs = [["check", "x_window.yaml"], ["check", "identity_window.yaml"],
            ["check", "q_window.yaml", "--mode", "oracle"],
            ["extract-gp", "x_window.yaml"], ["strong", "x_window.yaml"],
            ["compat", "semisimple_complex.yaml"], ["compat", "incompatible_complex.yaml"],
            ["lift", "semisimple_complex.yaml"],
            ["specialize", "trivext_window.yaml"],
            ["hunt", "triangular_bundle.yaml", "--max-rank", "1"]]
    texts = []
    for i, (command, name, *rest) in enumerate(runs):
        out = tmp / f"{i}.yaml"
        assert main([command, str(FIXTURES / name), *rest, "--output", str(out)]) in (0, 1)
        texts.append(out.read_text())
    return texts


def _corpus_texts(tmp: Path) -> list:
    """Rendered windows, reports, modules, catalogs, context-ring and
    triangular documents of seeded corpora over F_2, F_3 and Q."""
    texts = []
    windows = window_corpus(40, (F2, F3), seed=90_000)
    windows += window_corpus(15, (QQ,), seed=91_000, path_rank=1)
    for w in windows:
        report = check_complete(w)
        texts.append(formats.render(formats.window_to_doc(w)))
        texts.append(formats.render(formats.report_to_doc(w.ring.algebra.field, report)))
        if report.passed and not report.window_local:
            texts.append(formats.render(formats.tmodule_to_doc(extract_gp(w, w.lo))))
    for field in (F2, F3):
        m = corner_bimodule(field)
        r = dual_numbers(field)
        for ring in (TensorRing(m.algebra, m, 1), TensorRing(r, zero_bimodule(r), 1)):
            texts.append(formats.render(formats.catalog_to_doc(field, hunt_strongly_gp(ring, 1))))
    for field in (F2, F3, QQ):
        for i in range(4):
            rng = random.Random(92_000 + i)
            d = random_morita_data(rng, field)
            w = random_morita_window(d, rng, max_rank=2, period=1 + i % 2)
            texts.append(formats.render(formats.context_to_doc(d, w)))
            texts.append(formats.render(formats.report_to_doc(field, morita_checks(d, w))))
            d = random_triangular_data(rng, field)
            w = random_triangular_window(d, rng, max_rank=2, period=1 + i % 2)
            texts.append(formats.render(formats.context_to_doc(d, w)))
            texts.append(formats.render(formats.report_to_doc(field, triangular_checks(d, w))))
    return texts + _cli_outputs(tmp)


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return _corpus_texts(tmp_path_factory.mktemp("cli"))


class TestParity:
    def test_fixtures(self):
        for path in sorted(FIXTURES.glob("*.yaml")):
            assert_parity(path.read_text())

    def test_rendered_corpora_are_read_without_libyaml(self, rendered):
        assert len(rendered) > 150
        for text in rendered:
            assert assert_parity(text) is not None, text

    def test_load_never_reaches_libyaml_on_rendered_text(self, rendered, monkeypatch):
        calls = []
        real = yaml.load
        monkeypatch.setattr(formats.yaml, "load", lambda *a, **k: calls.append(1) or real(*a, **k))
        for text in rendered:
            formats.load(text)
        assert calls == []
        formats.load((FIXTURES / "x_window.yaml").read_text())
        assert calls == [1]


# -- mutated texts: each one leaves the canonical form --------------------------------

CANONICAL = """kind: window
bundle:
  field: 3
  algebra:
    dim: 1
    unit: [1]
    struct_consts:
    - [[1]]
  bimodule:
    dim: 0
    left_action:
    - rows: 0
      cols: 0
      entries: []
    right_action:
    - rows: 0
      cols: 0
      entries: []
  nilpotency: 0
window:
  lo: 0
  ranks: [1, 1]
  period: 1
  maps:
  - components:
    - rows: 1
      cols: 1
      entries: [[0]]
"""

MUTATIONS = {
    "tab": CANONICAL.replace("\n    dim: 1", "\n\tdim: 1"),
    "tab_after_colon": CANONICAL.replace("lo: 0", "lo:\t0"),
    "comment_line": "# a comment\n" + CANONICAL,
    "trailing_comment": CANONICAL.replace("lo: 0", "lo: 0  # start"),
    "crlf": CANONICAL.replace("\n", "\r\n"),
    "document_start": "---\n" + CANONICAL,
    "document_end": CANONICAL + "...\n",
    "duplicate_key": CANONICAL + "kind: window\n",
    "leading_zero": CANONICAL.replace("lo: 0", "lo: 012"),
    "plus_sign": CANONICAL.replace("lo: 0", "lo: +1"),
    "hex": CANONICAL.replace("lo: 0", "lo: 0x1F"),
    "underscore": CANONICAL.replace("lo: 0", "lo: 1_000"),
    "minus_zero": CANONICAL.replace("lo: 0", "lo: -0"),
    "trailing_comma": CANONICAL.replace("ranks: [1, 1]", "ranks: [1,]"),
    "no_space_after_comma": CANONICAL.replace("ranks: [1, 1]", "ranks: [1,1]"),
    "inline_leading_zero": CANONICAL.replace("ranks: [1, 1]", "ranks: [01, 1]"),
    "trailing_space": CANONICAL.replace("lo: 0\n", "lo: 0 \n"),
    "trailing_space_on_key": CANONICAL.replace("window:\n", "window: \n"),
    "bom": "\ufeff" + CANONICAL,
    "flow_mapping": CANONICAL.replace(
        "    - rows: 1\n      cols: 1\n      entries: [[0]]\n",
        "    - {rows: 1, cols: 1, entries: [[0]]}\n"),
    "yes_word": CANONICAL.replace("kind: window", "kind: yes"),
    "null_word": CANONICAL.replace("kind: window", "kind: NULL"),
    "dot_float": CANONICAL.replace("kind: window", "kind: .5"),
    "bool_key": CANONICAL.replace("kind: window", "on: window"),
    "indented_list": CANONICAL.replace("    - [[1]]", "      - [[1]]"),
    "odd_indent": CANONICAL.replace("  lo: 0", "   lo: 0"),
    "blank_line": CANONICAL.replace("window:\n", "window:\n\n"),
    "no_final_newline": CANONICAL[:-1],
    "null_value": CANONICAL.replace("  period: 1\n", "  period:\n"),
    "continued_plain": CANONICAL.replace("kind: window\n", "kind: window\n  more\n"),
    "single_quoted": CANONICAL.replace("kind: window", "kind: 'window'"),
    "escape": CANONICAL.replace("kind: window", 'kind: "win\\tdow"'),
    "non_ascii": CANONICAL.replace("kind: window", 'kind: "w\u00e9"'),
    "empty": "",
    "list_top_level": "- 1\n",
}


class TestDecline:
    def test_canonical_text_is_read(self):
        assert assert_parity(CANONICAL) is not None

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_is_declined_and_loads_as_before(self, name):
        text = MUTATIONS[name]
        assert formats._read_canonical(text) is None
        try:
            expected = repr(yaml.load(text, Loader=formats._LOADER))
        except yaml.YAMLError:
            with pytest.raises(formats.FormatError, match="parse error"):
                formats.load(text)
            return
        if not expected.startswith("{"):
            with pytest.raises(formats.FormatError, match="top level must be a mapping"):
                formats.load(text)
        else:
            assert repr(formats.load(text)) == expected

    @pytest.mark.parametrize("text", [
        "key: " + "[" * 10_000 + "]" * 10_000 + "\n",
        "".join("  " * i + "k:\n" for i in range(2_000)) + "  " * 2_000 + "k: 1\n",
    ], ids=["inline", "block"])
    def test_deep_nesting_is_declined(self, text):
        assert formats._read_canonical(text) is None
        assert isinstance(formats.load(text), dict)


# -- hypothesis: documents of the canonical shape ---------------------------------------

# render's plain alphabet, with the characters next to it that it must quote
PLAIN_ALPHABET = string.ascii_letters + string.digits + "()'^_- ."
KEYS = st.builds(str.__add__, st.sampled_from(string.ascii_letters + "_"),
                 st.text(string.ascii_letters + string.digits + "_", max_size=5)
                 ).filter(formats._is_plain)
TEXTS = st.text(alphabet=PLAIN_ALPHABET + ':#/"\\,[]{}!&*?|>%@`~', max_size=8)
WORDS = st.sampled_from(["yes", "No", "on", "OFF", "True", "NULL", "Null", "~", ".5",
                         ".inf", ".NaN", "1e3", "0x1F", "012", "1_000", "+1", "-0", "<<", "="])
INTEGERS = st.integers(-10**30, 10**30)
RATIONALS = st.fractions(max_denominator=50).filter(lambda f: f.denominator > 1)
SCALARS = st.one_of(INTEGERS, RATIONALS, st.booleans(), st.none(), TEXTS, WORDS)
INLINE = st.recursive(st.lists(st.one_of(INTEGERS, RATIONALS), max_size=3),
                      lambda inner: st.lists(inner, max_size=3), max_leaves=8).map(formats.Inline)


def _mappings(values):
    return st.dictionaries(KEYS, values, min_size=1, max_size=4)


DOCUMENTS = _mappings(st.recursive(
    st.one_of(SCALARS, INLINE),
    lambda inner: st.one_of(_mappings(inner),
                            st.lists(st.one_of(SCALARS, INLINE, _mappings(inner)), max_size=3)),
    max_leaves=12))


class TestCanonicalShape:
    @settings(max_examples=200, deadline=None)
    @given(DOCUMENTS)
    def test_rendered_documents_are_read_as_libyaml_reads_them(self, doc):
        text = formats.render(doc)
        assert assert_parity(text) is not None, text

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(TEXTS, WORDS))
    def test_rendered_strings_read_back_as_the_same_string(self, s):
        text = formats.render({"note": s})
        for loader in LOADERS:
            back = yaml.load(text, Loader=loader)["note"]
            assert type(back) is str and back == s
        assert formats._read_canonical(text) == {"note": s}

    @settings(max_examples=500, deadline=None)
    @given(st.text())
    def test_every_string_reads_back(self, s):
        text = formats.render({"note": s})
        for loader in LOADERS:
            assert yaml.load(text, Loader=loader) == {"note": s}
        assert formats.load(text) == {"note": s}

    @pytest.mark.parametrize("s, escaped", [
        ("a\nb", "a\\x0ab"), ("x\x00y", "x\\x00y"), ("\x85", "\\x85"), ("\x7f", "\\x7f"),
        ("\ufffe", "\\ufffe"), ("\\\n", "\\\\\\x0a")])
    def test_control_characters_are_escaped_and_read_by_libyaml(self, s, escaped):
        text = formats.render({"note": s})
        assert text == f'note: "{escaped}"\n'
        assert formats._read_canonical(text) is None
        assert formats.load(text) == {"note": s}

    @pytest.mark.parametrize("s", ["yes", "on", "No", "OFF", "True", "NULL", ".5", ".inf", ".NaN"])
    def test_yaml_special_words_are_quoted(self, s):
        assert formats.render({"note": s}) == f'note: "{s}"\n'
        assert formats.load(formats.render({"note": s})) == {"note": s}

    def test_rationals_read_as_strings(self):
        text = formats.render({"m": formats.Inline([Fraction(-3, 4), 2])})
        assert text == "m: ['-3/4', 2]\n"
        assert assert_parity(text) == {"m": ["-3/4", 2]}
