"""File formats: one structured text format (a YAML subset) for every
input and output of the command line tool.

Files are parsed with a standard YAML loader; writing goes through a
canonical emitter with a fixed key order, fixed indentation and inline
scalar lists, so re-serializing a canonical file is byte-identical.
Scalars are residue integers for prime fields and integers or 'a/b'
strings for the rationals.

Every reader validates what it reads, once: algebras, bimodules and pair
bimodules pass their constructors' checks, a bundle's tensor ring
certifies its nilpotency, and every map read from a file is a checked
``ModuleMap``.  What a reader builds from data it has validated is not
checked again: the free modules and functor-power models that maps are
read against, and the ring of a bundle document identical to one read
before, which is the same :class:`TensorRing`.

Normative field names are documented in docs/format.md and mirror the
type fields of the library.
"""

from __future__ import annotations

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


class FormatError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# -- canonical rendering -------------------------------------------------------


class Inline(list):
    """A list rendered in flow style."""


_PLAIN_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
                "()'^_- .")


def _render_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"'{v.numerator}/{v.denominator}'"
    if isinstance(v, str):
        if v and all(c in _PLAIN_OK for c in v) and not v[0].isdigit() \
                and v[0] not in "'- " and v not in ("true", "false", "null") \
                and not v.endswith(" ") and "/" not in v:
            return v
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
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


# libyaml's parser when PyYAML was built with it; the documents are the same
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load(text: str) -> dict:
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise FormatError("<input>", f"parse error: {exc}")
    if not isinstance(doc, dict):
        raise FormatError("<input>", "top level must be a mapping")
    return doc


# -- integers, scalars, matrices, fields -------------------------------------------


def int_from_doc(v, where: str, minimum: Optional[int] = None) -> int:
    """An integer field of a file: ``v`` must be an ``int`` that is not a
    boolean, and at least ``minimum`` when one is given."""
    if isinstance(v, int) and not isinstance(v, bool) and (minimum is None or v >= minimum):
        return v
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
    return tuple(int_from_doc(r, f"{where}[{i}]", 0) for i, r in enumerate(v))


def scalar_to_doc(field: FieldSpec, v):
    if field.is_prime:
        return int(v)
    f = Fraction(v)
    return int(f) if f.denominator == 1 else f


def scalar_from_doc(field: FieldSpec, v, where: str):
    if isinstance(v, bool):
        raise FormatError(where, "booleans are not scalars")
    if isinstance(v, int):
        return field.coerce(v)
    if isinstance(v, str) and not field.is_prime:
        try:
            num, den = v.split("/")
            return Fraction(int(num), int(den))
        except ValueError:
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
    rows = int_from_doc(node["rows"], f"{where}.rows", 0)
    cols = int_from_doc(node["cols"], f"{where}.cols", 0)
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
    dim = int_from_doc(node["dim"], f"{where}.dim", 1)
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


def bimodule_from_doc(algebra: Algebra, node, where: str) -> Bimodule:
    """Parse and validate a bimodule; an invalid one is a
    :class:`FormatError` caused by the ``InvalidBimodule`` and its report."""
    if not isinstance(node, dict) or not {"dim", "left_action", "right_action"} <= set(node):
        raise FormatError(where, "bimodule needs dim, left_action, right_action")
    dim = int_from_doc(node["dim"], f"{where}.dim", 0)
    def acts(key):
        nodes = node[key]
        if not isinstance(nodes, list) or len(nodes) != algebra.dim:
            raise FormatError(f"{where}.{key}",
                              f"expected one matrix per algebra basis index ({algebra.dim})")
        return tuple(matrix_from_doc(algebra.field, x, f"{where}.{key}[{i}]")
                     for i, x in enumerate(nodes))
    left = acts("left_action")
    right = acts("right_action")
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


def window_from_doc(doc, where: str = "window") -> ResolutionWindow:
    if doc.get("kind") != "window":
        raise FormatError(where, f"expected kind 'window', got {doc.get('kind')!r}")
    ring = bundle_from_doc(doc.get("bundle"), f"{where}.bundle")
    node = doc.get("window")
    if not isinstance(node, dict):
        raise FormatError(where, "missing window section")
    lo = int_from_doc(node.get("lo", 0), f"{where}.lo")
    maps_node = node.get("maps")
    period = node.get("period")
    if not isinstance(maps_node, list):
        raise FormatError(f"{where}.maps", "expected a list of component lists")
    ranks = ranks_from_doc(node.get("ranks"), len(maps_node), f"{where}.ranks")
    stars = []
    for t, mnode in enumerate(maps_node):
        comps_node = mnode.get("components") if isinstance(mnode, dict) else None
        if not isinstance(comps_node, list) or len(comps_node) != ring.nilpotency + 1:
            raise FormatError(f"{where}.maps[{t}]",
                              f"expected {ring.nilpotency + 1} components")
        p = ring.free(ranks[t])
        comps = []
        for i, cnode in enumerate(comps_node):
            mat = matrix_from_doc(ring.algebra.field, cnode,
                                  f"{where}.maps[{t}].components[{i}]")
            target = ring.model(i, ring.free(ranks[t + 1])).result
            try:
                comps.append(ModuleMap(p, target, mat))
            except Exception as exc:
                raise FormatError(f"{where}.maps[{t}].components[{i}]", str(exc))
        stars.append(StarMorphism(ring, ranks[t], ranks[t + 1], tuple(comps)))
    try:
        return ResolutionWindow(ring, lo, ranks, tuple(stars), period=period)
    except Exception as exc:
        raise FormatError(where, str(exc))


# -- base complexes ---------------------------------------------------------------


def complex_from_doc(doc, where: str = "complex"):
    """Returns (bimodule, levels, base window over the zero bimodule)."""
    if doc.get("kind") != "complex":
        raise FormatError(where, f"expected kind 'complex', got {doc.get('kind')!r}")
    algebra, bimodule, levels = _bundle_parts(doc.get("bundle"), f"{where}.bundle")
    node = doc.get("complex")
    if not isinstance(node, dict):
        raise FormatError(where, "missing complex section")
    maps_node = node.get("maps")
    if not isinstance(maps_node, list):
        raise FormatError(where, "complex needs ranks and maps")
    ranks = ranks_from_doc(node.get("ranks"), len(maps_node), f"{where}.ranks")
    lo = int_from_doc(node.get("lo", 0), f"{where}.lo")
    maps = []
    for t, mnode in enumerate(maps_node):
        mat = matrix_from_doc(algebra.field, mnode, f"{where}.maps[{t}]")
        src = free_module(algebra, ranks[t])
        tgt = free_module(algebra, ranks[t + 1])
        try:
            maps.append(ModuleMap(src, tgt, mat))
        except Exception as exc:
            raise FormatError(f"{where}.maps[{t}]", str(exc))
    try:
        pc = complex_window(maps, period=node.get("period"))
    except Exception as exc:
        raise FormatError(where, str(exc))
    if pc.lo != lo:
        pc = ResolutionWindow(pc.ring, lo, pc.ranks, pc.maps, pc.period)
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
    groups = []
    for i, g in enumerate(doc.get("groups", [])):
        at = f"{where}.groups[{i}]"
        if not isinstance(g, dict) or not isinstance(g.get("representative"), list):
            raise FormatError(at, "expected a group with a representative list")
        if not isinstance(g.get("passed"), bool):
            raise FormatError(f"{at}.passed", f"expected a boolean, got {g.get('passed')!r}")
        groups.append(CatalogGroup(
            int_from_doc(g.get("rank"), f"{at}.rank", 0),
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


def pair_bimodule_to_doc(pb) -> dict:
    return {"dim": pb.dim,
            "left_action": [matrix_to_doc(m) for m in pb.left_action],
            "right_action": [matrix_to_doc(m) for m in pb.right_action]}


def pair_bimodule_from_doc(left_alg: Algebra, right_alg: Algebra, node, where: str):
    from tensorgp.special_rings import PairBimodule

    if not isinstance(node, dict) or not {"dim", "left_action", "right_action"} <= set(node):
        raise FormatError(where, "pair bimodule needs dim, left_action, right_action")
    dim = int_from_doc(node["dim"], f"{where}.dim", 0)
    field = left_alg.field

    def acts(key, alg):
        nodes = node[key]
        if not isinstance(nodes, list) or len(nodes) != alg.dim:
            raise FormatError(f"{where}.{key}", f"expected {alg.dim} matrices")
        return tuple(matrix_from_doc(field, x, f"{where}.{key}[{i}]")
                     for i, x in enumerate(nodes))

    try:
        return PairBimodule(left_alg, right_alg, dim,
                            acts("left_action", left_alg), acts("right_action", right_alg))
    except Exception as exc:
        raise FormatError(where, str(exc))


def _context_maps_from_doc(d, node, with_gamma: bool, where: str):
    from tensorgp.special_rings import block_power_module

    field = d.a.field
    maps_node = node.get("maps")
    if not isinstance(maps_node, list):
        raise FormatError(where, "window needs ranks_p, ranks_q and maps")
    ranks_p = ranks_from_doc(node.get("ranks_p"), len(maps_node), f"{where}.ranks_p")
    ranks_q = ranks_from_doc(node.get("ranks_q"), len(maps_node), f"{where}.ranks_q")
    tau, sigma, beta, gamma = [], [], [], []
    for t, mnode in enumerate(maps_node):
        if not isinstance(mnode, dict):
            raise FormatError(f"{where}.maps[{t}]", "expected a mapping of map names")
        src_p = free_module(d.a, ranks_p[t])
        tgt_p = free_module(d.a, ranks_p[t + 1])
        src_q = free_module(d.b, ranks_q[t])
        tgt_q = free_module(d.b, ranks_q[t + 1])
        try:
            tau.append(ModuleMap(src_p, tgt_p,
                                 matrix_from_doc(field, mnode["tau"], f"{where}.maps[{t}].tau")))
            sigma.append(ModuleMap(src_q, tgt_q,
                                   matrix_from_doc(field, mnode["sigma"],
                                                   f"{where}.maps[{t}].sigma")))
            beta.append(ModuleMap(src_p, block_power_module(d.v, ranks_q[t + 1]),
                                  matrix_from_doc(field, mnode["beta"],
                                                  f"{where}.maps[{t}].beta")))
            if with_gamma:
                gamma.append(ModuleMap(src_q, block_power_module(d.u, ranks_p[t + 1]),
                                       matrix_from_doc(field, mnode["gamma"],
                                                       f"{where}.maps[{t}].gamma")))
        except FormatError:
            raise
        except KeyError as exc:
            raise FormatError(f"{where}.maps[{t}]", f"missing map {exc}")
        except Exception as exc:
            raise FormatError(f"{where}.maps[{t}]", str(exc))
    return ranks_p, ranks_q, tau, sigma, beta, gamma


def morita_to_doc(d, w) -> dict:
    maps = []
    for t in range(len(w.tau)):
        maps.append({"tau": matrix_to_doc(w.tau[t].mat),
                     "sigma": matrix_to_doc(w.sigma[t].mat),
                     "beta": matrix_to_doc(w.beta[t].mat),
                     "gamma": matrix_to_doc(w.gamma[t].mat)})
    return {"kind": "morita",
            "field": field_to_doc(d.a.field),
            "algebra_a": algebra_to_doc(d.a),
            "algebra_b": algebra_to_doc(d.b),
            "bimodule_v": pair_bimodule_to_doc(d.v),
            "bimodule_u": pair_bimodule_to_doc(d.u),
            "window": {
                "lo": w.lo,
                "ranks_p": Inline(list(w.ranks_p)),
                "ranks_q": Inline(list(w.ranks_q)),
                **({"period": w.period} if w.period is not None else {}),
                "maps": maps,
            }}


def morita_from_doc(doc, where: str = "morita"):
    from tensorgp.special_rings import MoritaData, MoritaWindow

    if doc.get("kind") != "morita":
        raise FormatError(where, "expected kind 'morita'")
    field = field_from_doc(doc.get("field"), f"{where}.field")
    a = algebra_from_doc(field, doc.get("algebra_a"), f"{where}.algebra_a")
    b = algebra_from_doc(field, doc.get("algebra_b"), f"{where}.algebra_b")
    v = pair_bimodule_from_doc(a, b, doc.get("bimodule_v"), f"{where}.bimodule_v")
    u = pair_bimodule_from_doc(b, a, doc.get("bimodule_u"), f"{where}.bimodule_u")
    try:
        d = MoritaData(a, b, v, u)
    except Exception as exc:
        raise FormatError(where, str(exc))
    node = doc.get("window")
    if not isinstance(node, dict):
        raise FormatError(where, "missing window section")
    ranks_p, ranks_q, tau, sigma, beta, gamma = _context_maps_from_doc(
        d, node, True, f"{where}.window")
    lo = int_from_doc(node.get("lo", 0), f"{where}.window.lo")
    try:
        w = MoritaWindow(lo, ranks_p, ranks_q,
                         tuple(tau), tuple(sigma), tuple(beta), tuple(gamma),
                         period=node.get("period"))
    except Exception as exc:
        raise FormatError(f"{where}.window", str(exc))
    return d, w


def triangular_to_doc(d, w) -> dict:
    maps = []
    for t in range(len(w.tau)):
        maps.append({"tau": matrix_to_doc(w.tau[t].mat),
                     "sigma": matrix_to_doc(w.sigma[t].mat),
                     "beta": matrix_to_doc(w.beta[t].mat)})
    return {"kind": "triangular",
            "field": field_to_doc(d.a.field),
            "algebra_a": algebra_to_doc(d.a),
            "algebra_b": algebra_to_doc(d.b),
            "bimodule_v": pair_bimodule_to_doc(d.v),
            "window": {
                "lo": w.lo,
                "ranks_p": Inline(list(w.ranks_p)),
                "ranks_q": Inline(list(w.ranks_q)),
                **({"period": w.period} if w.period is not None else {}),
                "maps": maps,
            }}


def triangular_from_doc(doc, where: str = "triangular"):
    from tensorgp.special_rings import TriangularData, TriangularWindow

    if doc.get("kind") != "triangular":
        raise FormatError(where, "expected kind 'triangular'")
    field = field_from_doc(doc.get("field"), f"{where}.field")
    a = algebra_from_doc(field, doc.get("algebra_a"), f"{where}.algebra_a")
    b = algebra_from_doc(field, doc.get("algebra_b"), f"{where}.algebra_b")
    v = pair_bimodule_from_doc(a, b, doc.get("bimodule_v"), f"{where}.bimodule_v")
    try:
        d = TriangularData(a, b, v)
    except Exception as exc:
        raise FormatError(where, str(exc))
    node = doc.get("window")
    if not isinstance(node, dict):
        raise FormatError(where, "missing window section")
    ranks_p, ranks_q, tau, sigma, beta, _ = _context_maps_from_doc(
        d, node, False, f"{where}.window")
    lo = int_from_doc(node.get("lo", 0), f"{where}.window.lo")
    try:
        w = TriangularWindow(lo, ranks_p, ranks_q,
                             tuple(tau), tuple(sigma), tuple(beta),
                             period=node.get("period"))
    except Exception as exc:
        raise FormatError(f"{where}.window", str(exc))
    return d, w
