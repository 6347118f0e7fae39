"""File formats: one structured text format (a YAML subset) for every
input and output of the command line tool.

Writing goes through a canonical emitter with a fixed key order, fixed
indentation and inline scalar lists, so re-serializing a canonical file
is byte-identical.  A text in that canonical form is read by a strict
line reader; any other text by libyaml, into the same document.
Scalars are residue integers for prime fields and integers or 'a/b'
strings for the rationals.

Every reader validates what it reads, once: algebras, bimodules and pair
bimodules pass their constructors' checks, a bundle's tensor ring
certifies its nilpotency, and every map read from a file is a checked
``ModuleMap``.  What a reader builds from data it has validated is not
checked again: the free modules and functor-power models that maps are
read against, and the ring of a bundle document identical to one read
before, which is the same :class:`TensorRing`.

Every input kind is in one table, :data:`KINDS`, with its reader and the
section that declares its field.  Normative field names are documented
in docs/format.md and mirror the type fields of the library.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from typing import Optional

import yaml

from tensorgp.exactlin import GF, QQ, FieldSpec, Matrix
from tensorgp.algebra import Algebra, AlgebraError, ModuleMap, free_module
from tensorgp.bimodule import Bimodule
from tensorgp.tensor_ring import StarMorphism, TModule, TensorRing
from tensorgp.resolution import (
    BlockWitness,
    CheckReport,
    FunctionalWitness,
    KernelWitness,
    ResolutionWindow,
    complex_window,
)
from tensorgp.search import Catalog, CatalogGroup
from tensorgp.special_rings import (MoritaData, MoritaWindow, PairBimodule, TrivialExtData,
                                    TriangularData, TriangularWindow, block_power_module)


# libyaml's parser when PyYAML was built with it; the documents are the same
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class FormatError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# -- canonical rendering -------------------------------------------------------


class Inline(list):
    """A list rendered in flow style."""


# the plain strings render writes unquoted: render's alphabet, no leading
# digit, quote, dash or space, no trailing space, and read back by YAML's
# implicit resolver as a string (so not yes, NULL, .5, .inf, ...)
_PLAIN = re.compile(r"[A-Za-z()^_.](?:[A-Za-z0-9()'^_ .-]*[A-Za-z0-9()'^_.-])?")


@functools.lru_cache(maxsize=4096)
def _is_plain(v: str) -> bool:
    resolvers = _LOADER.yaml_implicit_resolvers
    return _PLAIN.fullmatch(v) is not None and not any(
        rx.match(v) for _, rx in resolvers.get(v[0], []) + resolvers.get(None, []))


# the characters a double-quoted YAML scalar does not read back as written
# (controls other than tab are folded or refused, as are U+FFFE and U+FFFF);
# render writes them as \xNN or \uNNNN escapes
_UNSAFE = re.compile(r"[\x00-\x08\x0a-\x1f\x7f-\x9f\ufffe\uffff]")


def _escape(m: re.Match) -> str:
    code = ord(m[0])
    return f"\\x{code:02x}" if code < 0x100 else f"\\u{code:04x}"


def _render_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"'{v.numerator}/{v.denominator}'"
    if isinstance(v, str):
        if _is_plain(v):
            return v
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{_UNSAFE.sub(_escape, escaped)}"'
    if v is None:
        return "null"
    raise FormatError("<render>", f"cannot render scalar {v!r}")


def _render_inline(v) -> str:
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_render_inline(x) for x in v) + "]"
    return _render_scalar(v)


def _is_scalar(v) -> bool:
    return isinstance(v, (bool, int, str, Fraction)) or v is None


def _render_block(v, indent: int, out: list):
    pad = "  " * indent
    if isinstance(v, dict):
        for key, val in v.items():
            if _is_scalar(val):
                out.append(f"{pad}{key}: {_render_scalar(val)}")
            elif isinstance(val, Inline):
                out.append(f"{pad}{key}: {_render_inline(val)}")
            elif isinstance(val, dict):
                out.append(f"{pad}{key}:")
                _render_block(val, indent + 1, out)
            elif isinstance(val, list):
                if not val:
                    out.append(f"{pad}{key}: []")
                else:
                    out.append(f"{pad}{key}:")
                    _render_list(val, indent, out)
            else:
                raise FormatError("<render>", f"cannot render {val!r}")
    else:
        raise FormatError("<render>", "top level must be a mapping")


def _render_list(items: list, indent: int, out: list):
    pad = "  " * indent
    for item in items:
        if _is_scalar(item):
            out.append(f"{pad}- {_render_scalar(item)}")
        elif isinstance(item, Inline):
            out.append(f"{pad}- {_render_inline(item)}")
        elif isinstance(item, dict):
            lines: list = []
            _render_block(item, 0, lines)
            out.append(f"{pad}- " + lines[0])
            for line in lines[1:]:
                out.append(f"{pad}  " + line)
        elif isinstance(item, list):
            raise FormatError("<render>", "nested block lists are not part of the format")
        else:
            raise FormatError("<render>", f"cannot render {item!r}")


def render(doc: dict) -> str:
    out: list = []
    _render_block(doc, 0, out)
    return "\n".join(out) + "\n"


# -- loading --------------------------------------------------------------------


class _Decline(Exception):
    """The text is not in the canonical form; libyaml reads it."""


_KEY_LINE = re.compile(r"( *)([A-Za-z_][A-Za-z0-9_]*):(?: (.+))?")
_INT = re.compile(r"0|-?[1-9][0-9]*")
_RATIONAL = re.compile(r"'-?[0-9]+/[0-9]+'")
_QUOTED = re.compile(r'"(?:[ !#-\[\]-~]|\\[\\"])*"')
# the tokens of an inline list; json.loads checks how they nest
_INLINE = re.compile(r"\[(?:[\[\]]|, |0|-?[1-9][0-9]*|'-?[0-9]+/[0-9]+')*\]")
_WORDS = {"true": True, "false": False, "null": None}


def _canonical_scalar(v: str):
    if v.startswith("["):
        if not _INLINE.fullmatch(v):
            raise _Decline
        return json.loads(v.replace("'", '"'))
    if _INT.fullmatch(v):
        return int(v)
    if v in _WORDS:
        return _WORDS[v]
    if _RATIONAL.fullmatch(v):
        return v[1:-1]
    if _QUOTED.fullmatch(v):
        return json.loads(v)
    if _is_plain(v):
        return v
    raise _Decline


def _canonical_map(lines: list, i: int, indent: int):
    """The block mapping whose keys are the lines from ``i`` on at
    ``indent`` spaces, and the index of the first line after it."""
    doc = {}
    n = len(lines)
    while i < n:
        m = _KEY_LINE.fullmatch(lines[i])
        if m is None or len(m[1]) != indent:
            break
        key, value = m[2], m[3]
        if key in doc or not _is_plain(key):
            raise _Decline
        i += 1
        if value is not None:
            doc[key] = _canonical_scalar(value)
        elif i < n and lines[i].startswith(" " * indent + "- "):
            doc[key], i = _canonical_list(lines, i, indent)
        else:
            doc[key], i = _canonical_map(lines, i, indent + 2)
    if not doc:
        raise _Decline
    return doc, i


def _canonical_list(lines: list, i: int, indent: int):
    dash = " " * indent + "- "
    items = []
    while i < len(lines) and lines[i].startswith(dash):
        rest = lines[i][indent + 2:]
        if _KEY_LINE.fullmatch(rest):
            # a mapping item: its first key sits after the dash, the others at +2
            lines[i] = " " * (indent + 2) + rest
            item, i = _canonical_map(lines, i, indent + 2)
        else:
            item, i = _canonical_scalar(rest), i + 1
        items.append(item)
    return items, i


def _read_canonical(text: str) -> Optional[dict]:
    """The document of a text in the canonical form that :func:`render`
    writes (docs/format.md, "Canonical form"), or None when the text has
    anything else.  A document read here equals libyaml's, down to key
    order and scalar types."""
    lines = text.split("\n")
    if lines.pop() != "":
        return None
    try:
        doc, i = _canonical_map(lines, 0, 0)
    except (_Decline, ValueError, RecursionError):
        return None
    return doc if i == len(lines) else None


def load(text: str) -> dict:
    doc = _read_canonical(text)
    if doc is not None:
        return doc
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: an integer longer than Python's int-string limit
        raise FormatError("<input>", f"parse error: {exc}")
    if not isinstance(doc, dict):
        raise FormatError("<input>", "top level must be a mapping")
    return doc


# -- integers, scalars, matrices, fields -------------------------------------------


# the largest rank, dim, rows or cols a file may state: a larger size is
# refused when it is read, before any array of that size is made
MAX_SIZE = 4096


def int_from_doc(v, where: str, minimum: Optional[int] = None,
                 maximum: Optional[int] = None) -> int:
    """An integer field of a file: ``v`` must be an ``int`` that is not a
    boolean, at least ``minimum`` and at most ``maximum`` when given."""
    if isinstance(v, int) and not isinstance(v, bool) and (minimum is None or v >= minimum):
        if maximum is None or v <= maximum:
            return v
        raise FormatError(where, f"{v} is above the size limit {maximum}")
    want = "an integer" if minimum is None else f"an integer >= {minimum}"
    raise FormatError(where, f"expected {want}, got {v!r}")


def ranks_from_doc(v, maps: int, where: str) -> tuple:
    """A rank list of a window, complex, context-ring or triangular file:
    non-negative integers, one more than there are maps."""
    if not isinstance(v, list):
        raise FormatError(where, "expected a list of non-negative ranks")
    if len(v) != maps + 1:
        raise FormatError(where, f"need exactly one more rank than maps, "
                                 f"got {len(v)} ranks for {maps} maps")
    return tuple(int_from_doc(r, f"{where}[{i}]", 0, MAX_SIZE) for i, r in enumerate(v))


def scalar_to_doc(field: FieldSpec, v):
    if field.is_prime:
        return int(v)
    f = v if isinstance(v, Fraction) else Fraction(v)
    return f.numerator if f.denominator == 1 else f


def scalar_from_doc(field: FieldSpec, v, where: str):
    if isinstance(v, bool):
        raise FormatError(where, "booleans are not scalars")
    if isinstance(v, int):
        return field.coerce(v)
    if isinstance(v, str) and not field.is_prime:
        try:
            num, den = v.split("/")
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise FormatError(where, f"bad rational scalar {v!r}")
    raise FormatError(where, f"bad scalar {v!r}")


def field_to_doc(field: FieldSpec):
    return field.p if field.is_prime else "Q"


def field_from_doc(v, where: str = "field") -> FieldSpec:
    if v == "Q":
        return QQ
    if isinstance(v, int):
        try:
            return GF(v)
        except Exception as exc:
            raise FormatError(where, str(exc))
    raise FormatError(where, f"expected a prime or Q, got {v!r}")


def matrix_to_doc(m: Matrix) -> dict:
    entries = [Inline([scalar_to_doc(m.field, v) for v in row]) for row in m.entries]
    return {"rows": m.rows, "cols": m.cols,
            "entries": entries if entries else Inline([])}


def matrix_from_doc(field: FieldSpec, node, where: str) -> Matrix:
    if not isinstance(node, dict) or not {"rows", "cols", "entries"} <= set(node):
        raise FormatError(where, "matrix needs rows, cols, entries")
    rows = int_from_doc(node["rows"], f"{where}.rows", 0, MAX_SIZE)
    cols = int_from_doc(node["cols"], f"{where}.cols", 0, MAX_SIZE)
    entries = node["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise FormatError(where, f"expected {rows} entry rows")
    grid = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError(f"{where}.entries[{i}]", f"expected {cols} columns")
        grid.append([scalar_from_doc(field, v, f"{where}.entries[{i}]") for v in row])
    if rows == 0:
        return Matrix.zeros(field, 0, cols)
    return Matrix.from_rows(field, grid)


def map_from_doc(source, target, node, where: str, refused_at: Optional[str] = None) -> ModuleMap:
    """The checked map between two modules whose matrix is ``node``; a map
    the check refuses is a FormatError at ``refused_at``, by default at
    ``where``."""
    mat = matrix_from_doc(source.algebra.field, node, where)
    try:
        return ModuleMap(source, target, mat)
    except Exception as exc:
        raise FormatError(refused_at or where, str(exc))


# -- algebras and bimodules --------------------------------------------------------


def algebra_to_doc(a: Algebra) -> dict:
    consts = [Inline([Inline([scalar_to_doc(a.field, c) for c in row])
                      for row in plane]) for plane in a.consts]
    return {"dim": a.dim,
            "unit": Inline([scalar_to_doc(a.field, c) for c in a.unit]),
            "struct_consts": consts}


def algebra_from_doc(field: FieldSpec, node, where: str) -> Algebra:
    """Parse and validate an algebra; an invalid one is a
    :class:`FormatError` caused by the ``InvalidAlgebra`` and its report."""
    if not isinstance(node, dict) or not {"dim", "unit", "struct_consts"} <= set(node):
        raise FormatError(where, "algebra needs dim, unit, struct_consts")
    dim = int_from_doc(node["dim"], f"{where}.dim", 1, MAX_SIZE)
    consts = node["struct_consts"]
    unit = node["unit"]
    if not isinstance(consts, list) or len(consts) != dim:
        raise FormatError(f"{where}.struct_consts", f"expected {dim} planes")
    parsed = []
    for i, plane in enumerate(consts):
        if not isinstance(plane, list) or len(plane) != dim:
            raise FormatError(f"{where}.struct_consts[{i}]", f"expected {dim} rows")
        rows = []
        for j, row in enumerate(plane):
            if not isinstance(row, list) or len(row) != dim:
                raise FormatError(f"{where}.struct_consts[{i}][{j}]",
                                  f"expected {dim} coordinates")
            rows.append(tuple(scalar_from_doc(field, v, f"{where}.struct_consts[{i}][{j}]")
                              for v in row))
        parsed.append(tuple(rows))
    if not isinstance(unit, list) or len(unit) != dim:
        raise FormatError(f"{where}.unit", f"expected {dim} coordinates")
    unit_t = tuple(scalar_from_doc(field, v, f"{where}.unit") for v in unit)
    try:
        return Algebra(field, dim, tuple(parsed), unit_t)
    except AlgebraError as exc:
        raise FormatError(where, str(exc)) from exc


def bimodule_to_doc(m: Bimodule) -> dict:
    return {"dim": m.dim,
            "left_action": [matrix_to_doc(x) for x in m.left_action],
            "right_action": [matrix_to_doc(x) for x in m.right_action]}


def _actions(field: FieldSpec, node, where: str, what: str, counts: tuple, refusal: str):
    """The dim and the left and right action matrices of a bimodule node
    (``what`` names it), with ``counts`` matrices on each side; a list of
    another length is refused with ``refusal``, formatted with its count."""
    if not isinstance(node, dict) or not {"dim", "left_action", "right_action"} <= set(node):
        raise FormatError(where, f"{what} needs dim, left_action, right_action")
    dim = int_from_doc(node["dim"], f"{where}.dim", 0, MAX_SIZE)
    sides = []
    for key, count in zip(("left_action", "right_action"), counts):
        nodes = node[key]
        if not isinstance(nodes, list) or len(nodes) != count:
            raise FormatError(f"{where}.{key}", refusal.format(count))
        sides.append(tuple(matrix_from_doc(field, x, f"{where}.{key}[{i}]")
                           for i, x in enumerate(nodes)))
    return dim, *sides


def bimodule_from_doc(algebra: Algebra, node, where: str) -> Bimodule:
    """Parse and validate a bimodule; an invalid one is a
    :class:`FormatError` caused by the ``InvalidBimodule`` and its report."""
    dim, left, right = _actions(algebra.field, node, where, "bimodule", (algebra.dim,) * 2,
                                "expected one matrix per algebra basis index ({})")
    for i, mat in enumerate(left + right):
        if mat.shape != (dim, dim):
            raise FormatError(where, f"action matrix {i} is not {dim} x {dim}")
    try:
        return Bimodule(algebra, dim, left, right)
    except AlgebraError as exc:
        raise FormatError(where, str(exc)) from exc


def bundle_to_doc(algebra: Algebra, bimodule: Bimodule, nilpotency: int) -> dict:
    return {"field": field_to_doc(algebra.field),
            "algebra": algebra_to_doc(algebra),
            "bimodule": bimodule_to_doc(bimodule),
            "nilpotency": nilpotency}


def _bundle_parts(node, where: str):
    """The algebra, bimodule and nilpotency index of a bundle node, each
    parsed and validated once."""
    if not isinstance(node, dict):
        raise FormatError(where, "bundle must be a mapping")
    for key in ("field", "algebra", "bimodule", "nilpotency"):
        if key not in node:
            raise FormatError(where, f"missing {key}")
    field = field_from_doc(node["field"], f"{where}.field")
    algebra = algebra_from_doc(field, node["algebra"], f"{where}.algebra")
    bimodule = bimodule_from_doc(algebra, node["bimodule"], f"{where}.bimodule")
    return algebra, bimodule, int_from_doc(node["nilpotency"], f"{where}.nilpotency", 0)


# every ring read by bundle_from_doc, keyed by the repr of its parsed node
_RINGS: dict = {}


def bundle_from_doc(node, where: str = "bundle") -> TensorRing:
    """Parse and fully validate a bundle into a tensor ring context.

    A document identical to one read before, down to key order and scalar
    types, gives the same :class:`TensorRing`, so windows over one ring
    share its certificate and memo tables.
    """
    key = repr(node)
    if key not in _RINGS:
        _RINGS[key] = TensorRing(*_bundle_parts(node, where))
    return _RINGS[key]


def bundle_file_from_doc(doc) -> TensorRing:
    """The tensor ring of a bundle file, whose top level is its bundle."""
    if doc.get("kind") != "bundle":
        raise FormatError("<input>", "expected a bundle file")
    return bundle_from_doc(doc)


def _expect_kind(doc, kinds: tuple, where: str):
    kind = doc.get("kind")
    if kind not in kinds:
        raise FormatError(where, f"expected kind {' or '.join(map(repr, kinds))}, got {kind!r}")
    return kind


def _section(doc, name: str, where: str, no_maps: tuple) -> tuple:
    """The ``name`` section of a document and its ``maps`` list; a missing
    list is refused with the path and message ``no_maps``."""
    node = doc.get(name)
    if not isinstance(node, dict):
        raise FormatError(where, f"missing {name} section")
    maps = node.get("maps")
    if not isinstance(maps, list):
        raise FormatError(*no_maps)
    return node, maps


# -- windows -------------------------------------------------------------------


def star_to_doc(s: StarMorphism) -> dict:
    return {"components": [matrix_to_doc(c.mat) for c in s.components]}


def window_to_doc(w: ResolutionWindow) -> dict:
    ring = w.ring
    node = {"kind": "window",
            "bundle": bundle_to_doc(ring.algebra, ring.bimodule, ring.nilpotency),
            "window": {
                "lo": w.lo,
                "ranks": Inline(list(w.ranks)),
                **({"period": w.period} if w.period is not None else {}),
                "maps": [star_to_doc(s) for s in w.maps],
            }}
    return node


def window_from_doc(doc, where: str = "window", kind: str = "window") -> ResolutionWindow:
    """The window of a window file, or of a file of another ``kind`` with
    the same sections."""
    _expect_kind(doc, (kind,), where)
    ring = bundle_from_doc(doc.get("bundle"), f"{where}.bundle")
    node, maps_node = _section(doc, "window", where,
                               (f"{where}.maps", "expected a list of component lists"))
    lo = int_from_doc(node.get("lo", 0), f"{where}.lo")
    ranks = ranks_from_doc(node.get("ranks"), len(maps_node), f"{where}.ranks")
    stars = []
    for t, mnode in enumerate(maps_node):
        comps_node = mnode.get("components") if isinstance(mnode, dict) else None
        if not isinstance(comps_node, list) or len(comps_node) != ring.nilpotency + 1:
            raise FormatError(f"{where}.maps[{t}]",
                              f"expected {ring.nilpotency + 1} components")
        p, q = ring.free(ranks[t]), ring.free(ranks[t + 1])
        stars.append(StarMorphism(ring, ranks[t], ranks[t + 1], tuple(
            map_from_doc(p, ring.model(i, q).result, cnode, f"{where}.maps[{t}].components[{i}]")
            for i, cnode in enumerate(comps_node))))
    try:
        return ResolutionWindow(ring, lo, ranks, tuple(stars), period=node.get("period"))
    except Exception as exc:
        raise FormatError(where, str(exc))


def trivext_from_doc(doc) -> tuple:
    """The data and window of a trivial extension file: a window file of
    kind ``trivext`` over a bundle of nilpotency 1.  Error paths start
    with ``window``, as in a window file."""
    w = window_from_doc(doc, kind="trivext")
    if w.ring.nilpotency != 1:
        raise FormatError("trivext", "trivial extension data needs nilpotency 1")
    return TrivialExtData(w.ring.algebra, w.ring.bimodule), w


# -- base complexes ---------------------------------------------------------------


def complex_from_doc(doc, where: str = "complex"):
    """Returns (bimodule, levels, base window over the zero bimodule)."""
    _expect_kind(doc, ("complex",), where)
    algebra, bimodule, levels = _bundle_parts(doc.get("bundle"), f"{where}.bundle")
    node, maps_node = _section(doc, "complex", where, (where, "complex needs ranks and maps"))
    ranks = ranks_from_doc(node.get("ranks"), len(maps_node), f"{where}.ranks")
    lo = int_from_doc(node.get("lo", 0), f"{where}.lo")
    maps = [map_from_doc(free_module(algebra, ranks[t]), free_module(algebra, ranks[t + 1]),
                         mnode, f"{where}.maps[{t}]") for t, mnode in enumerate(maps_node)]
    try:
        pc = complex_window(maps, period=node.get("period"), lo=lo)
    except Exception as exc:
        raise FormatError(where, str(exc))
    return bimodule, levels, pc


# -- reports, catalogs, modules ------------------------------------------------------


def witness_to_doc(field: FieldSpec, witness) -> Optional[dict]:
    if witness is None:
        return None
    if isinstance(witness, BlockWitness):
        return {"type": "block", "j": witness.j,
                "component": matrix_to_doc(witness.component)}
    if isinstance(witness, KernelWitness):
        return {"type": "kernel", "vector": matrix_to_doc(witness.vector)}
    if isinstance(witness, FunctionalWitness):
        return {"type": "functionals",
                "components": [matrix_to_doc(m) for m in witness.components]}
    return {"type": "opaque"}


def report_to_doc(field: FieldSpec, report: CheckReport) -> dict:
    verdicts = []
    for v in report.verdicts:
        node = {"label": v.label,
                **({"k": v.k} if v.k is not None else {}),
                "status": v.status}
        if v.note:
            node["note"] = v.note
        wd = witness_to_doc(field, v.witness)
        if wd is not None:
            node["witness"] = wd
        verdicts.append(node)
    return {"kind": "report",
            "scheme": report.scheme,
            "window_local": report.window_local,
            "passed": report.passed,
            "verdicts": verdicts}


def catalog_to_doc(field: FieldSpec, catalog: Catalog) -> dict:
    return {"kind": "catalog",
            "total": catalog.total,
            "groups": [
                {"rank": g.rank, "kernel_dim": g.kernel_dim, "passed": g.passed,
                 "count": g.count,
                 "representative": [matrix_to_doc(m) for m in g.representative]}
                for g in catalog.groups
            ]}


def catalog_from_doc(field: FieldSpec, doc, where: str = "catalog") -> Catalog:
    if doc.get("kind") != "catalog":
        raise FormatError(where, "expected kind 'catalog'")
    nodes = doc.get("groups", [])
    if not isinstance(nodes, list):
        raise FormatError(f"{where}.groups", "expected a list of groups")
    groups = []
    for i, g in enumerate(nodes):
        at = f"{where}.groups[{i}]"
        if not isinstance(g, dict) or not isinstance(g.get("representative"), list):
            raise FormatError(at, "expected a group with a representative list")
        if not isinstance(g.get("passed"), bool):
            raise FormatError(f"{at}.passed", f"expected a boolean, got {g.get('passed')!r}")
        groups.append(CatalogGroup(
            int_from_doc(g.get("rank"), f"{at}.rank", 0, MAX_SIZE),
            int_from_doc(g.get("kernel_dim"), f"{at}.kernel_dim", 0), g["passed"],
            int_from_doc(g.get("count"), f"{at}.count", 0),
            tuple(matrix_from_doc(field, m, at) for m in g["representative"]),
        ))
    return Catalog(int_from_doc(doc.get("total"), f"{where}.total", 0), tuple(groups))


def tmodule_to_doc(t: TModule) -> dict:
    return {"kind": "module",
            "field": field_to_doc(t.ring.algebra.field),
            "dim": t.x.dim,
            "action": [matrix_to_doc(m) for m in t.x.action],
            "structure_map": matrix_to_doc(t.u)}


# -- context and triangular ring files ----------------------------------------------


# the map families of a context ring window; a triangular one has no gamma
_CONTEXT_MAPS = ("tau", "sigma", "beta", "gamma")


def pair_bimodule_from_doc(left_alg: Algebra, right_alg: Algebra, node, where: str):
    # read outside the try, so that their errors keep their one path
    dim, left, right = _actions(left_alg.field, node, where, "pair bimodule",
                                (left_alg.dim, right_alg.dim), "expected {} matrices")
    try:
        return PairBimodule(left_alg, right_alg, dim, left, right)
    except Exception as exc:
        raise FormatError(where, str(exc))


def context_to_doc(d, w) -> dict:
    """The file of a context ring window (``kind: morita``), or of a
    triangular ring window (``kind: triangular``), which has no
    ``bimodule_u`` and no ``gamma`` maps."""
    triangular = isinstance(d, TriangularData)
    names = _CONTEXT_MAPS[:3] if triangular else _CONTEXT_MAPS
    doc = {"kind": "triangular" if triangular else "morita",
           "field": field_to_doc(d.a.field),
           "algebra_a": algebra_to_doc(d.a),
           "algebra_b": algebra_to_doc(d.b),
           "bimodule_v": bimodule_to_doc(d.v)}
    if not triangular:
        doc["bimodule_u"] = bimodule_to_doc(d.u)
    doc["window"] = {
        "lo": w.lo,
        "ranks_p": Inline(list(w.ranks_p)),
        "ranks_q": Inline(list(w.ranks_q)),
        **({"period": w.period} if w.period is not None else {}),
        "maps": [{name: matrix_to_doc(getattr(w, name)[t].mat) for name in names}
                 for t in range(len(w.tau))],
    }
    return doc


def context_from_doc(doc):
    """The data and window of a context ring file, as :class:`MoritaData`
    and :class:`MoritaWindow`, or of a triangular ring file, as
    :class:`TriangularData` and :class:`TriangularWindow`.  Error paths
    start with the kind of the file."""
    where = _expect_kind(doc, ("morita", "triangular"), "context")
    triangular = where == "triangular"
    field = field_from_doc(doc.get("field"), f"{where}.field")
    a = algebra_from_doc(field, doc.get("algebra_a"), f"{where}.algebra_a")
    b = algebra_from_doc(field, doc.get("algebra_b"), f"{where}.algebra_b")
    parts = [a, b, pair_bimodule_from_doc(a, b, doc.get("bimodule_v"), f"{where}.bimodule_v")]
    if not triangular:
        parts.append(pair_bimodule_from_doc(b, a, doc.get("bimodule_u"), f"{where}.bimodule_u"))
    try:
        d = (TriangularData if triangular else MoritaData)(*parts)
    except Exception as exc:
        raise FormatError(where, str(exc))
    node, maps_node = _section(doc, "window", where,
                               (f"{where}.window", "window needs ranks_p, ranks_q and maps"))
    where = f"{where}.window"
    ranks_p = ranks_from_doc(node.get("ranks_p"), len(maps_node), f"{where}.ranks_p")
    ranks_q = ranks_from_doc(node.get("ranks_q"), len(maps_node), f"{where}.ranks_q")
    families = {name: [] for name in (_CONTEXT_MAPS[:3] if triangular else _CONTEXT_MAPS)}
    for t, mnode in enumerate(maps_node):
        at = f"{where}.maps[{t}]"
        if not isinstance(mnode, dict):
            raise FormatError(at, "expected a mapping of map names")
        src_p, src_q = free_module(d.a, ranks_p[t]), free_module(d.b, ranks_q[t])
        spaces = {"tau": (src_p, free_module(d.a, ranks_p[t + 1])),
                  "sigma": (src_q, free_module(d.b, ranks_q[t + 1])),
                  "beta": (src_p, block_power_module(d.v, ranks_q[t + 1]))}
        if not triangular:
            spaces["gamma"] = (src_q, block_power_module(d.u, ranks_p[t + 1]))
        for name, (src, tgt) in spaces.items():
            if name not in mnode:
                raise FormatError(at, f"missing map {name!r}")
            families[name].append(map_from_doc(src, tgt, mnode[name], f"{at}.{name}", at))
    lo = int_from_doc(node.get("lo", 0), f"{where}.lo")
    try:
        w = (TriangularWindow if triangular else MoritaWindow)(
            lo, ranks_p, ranks_q, *families.values(), period=node.get("period"))
    except Exception as exc:
        raise FormatError(where, str(exc))
    return d, w


# -- input kinds ----------------------------------------------------------------


# every input kind: its reader, which checks the kind itself, and the section
# whose ``field`` key declares the coefficient field (None: the top level)
KINDS = {
    "bundle": (bundle_file_from_doc, None),
    "window": (window_from_doc, "bundle"),
    "complex": (complex_from_doc, "bundle"),
    "trivext": (trivext_from_doc, "bundle"),
    "morita": (context_from_doc, None),
    "triangular": (context_from_doc, None),
}


def classify(doc) -> tuple:
    """The reader of a document's kind, None for a kind not in
    :data:`KINDS` (a list or a mapping included), and the field the
    document declares, as written, where its kind declares it (at the top
    level for an unknown kind); None when that section is not a mapping."""
    kind = doc.get("kind")
    read, section = KINDS.get(kind, (None, None)) if isinstance(kind, str) else (None, None)
    node = doc if section is None else doc.get(section)
    return read, node.get("field") if isinstance(node, dict) else None


def specialization_from_doc(doc) -> tuple:
    """The kind, data and window of a trivext, morita or triangular file."""
    kind = doc.get("kind")
    if kind not in ("trivext", "morita", "triangular"):
        raise FormatError("<input>", f"unknown specialization kind {kind!r}")
    return (kind, *KINDS[kind][0](doc))
