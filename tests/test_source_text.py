"""Source-text guards on the package.

``np.cross`` and ``np.polyval`` spend tens of microseconds a call on their
array handling, several times the arithmetic of one 3-vector or one scalar
polynomial.  The package computes those with ``geometry.cross3`` and the
scalar Horner loop of ``numerics._polish`` instead (bit for bit the same);
batches of vectors go through ``constraints._cross``.  ``np.append`` and
``np.outer`` likewise cost several times the copy or broadcast product
they make (``constraints._form`` and ``_quadric``).  ``np.roots`` re-checks
and re-strips its argument before the companion eigenvalues that
``operations._roots`` takes directly, and ``np.tensordot`` reshapes and
transposes around the one matrix product that mixes the quadrics.
``np.pad`` and ``np.roll`` copy the whole score grid where the normal
scan compares neighbours by slicing (``numerics.normal_scan``).  These
tests read ``src/fold3d/*.py`` as text, without importing anything, and
fail when any of these calls comes back.

A matrix product ``A @ v`` on a batch of candidate planes goes through BLAS,
whose rounding depends on the batch, so a Newton seed's root would depend on
its batch-mates.  The residual kernels of ``constraints._KINDS`` contract
row by row (``constraints._dot``); an ``ast`` check fails when a ``@`` comes
back into them or into the module functions they call.  The same check
covers the fold-plane search's residual path in ``numerics``
(``params_to_planes``, ``_stacked_components`` and
``stacked_components_fn``): its line search puts a varying number of step
lengths in a batch, and each row must keep its bits in any batch.

A quadric's coefficient layout is stated once, by the slot table of
``envelopes.Quadric``; meshing reads the quadric's 4x4 matrix, and an
``ast`` check fails when ``meshing.py`` reads a ``coeffs`` attribute.

A tangency kind's geometry is stated once, by its dual locus in
``constraints._KINDS``; ``envelopes`` derives each envelope and contact
point from it, so an ``ast`` check fails when ``envelopes._Family`` gets a
field beyond ``params``, ``equation`` and ``payload`` (a closed-form
envelope or contact column).

The direct solvers of I1, I2 and I4 refuse a payload through their rows'
preconditions, so each refusal and its message are stated once; an ``ast``
check fails when one of them raises on its own.

The last tests import the package.  Each option of a ``fold3d`` subcommand
must be read by its handler, directly or through the helpers it passes
``args`` to (``_emit``, ``_check_spec``), so an option that shapes nothing
cannot come back.  The others count calls.  One exact solve each makes a
budget of LAPACK calls (``np.linalg.svd``, ``det`` and ``eigvals``), so a
redundant rank test or decomposition cannot come back unseen: a curve
meeting reads each kernel off a Bezout matrix in Python floats, with no SVD.
The dual locus of each kind makes no ``np.linalg.norm``, ``np.concatenate``
or ``np.outer`` call: its entries are formed in Python floats.  One
``solve_operation`` of I5+I6 or I5+I9 makes no ``np.linalg.det``,
``np.linalg.norm`` or ``np.vstack`` call: the frames, frame maps and family
planes keep one NumPy call per dot, matrix-vector product or norm and do the
rest in Python floats, so their per-call overhead cannot come back unseen.
One normal scan makes one ``residual_components_grid`` call per constraint,
for the offsets 0 and 1 together.
"""

import ast
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fold3d").glob("*.py"))
SLOW_CALL = re.compile(
    r"\bnp\s*\.\s*(cross|polyval|append|outer|roots|tensordot|pad|roll)\s*\("
)


def test_sources_found():
    assert {"geometry.py", "numerics.py", "constraints.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_np_cross_or_polyval_call(path):  # and the other calls of SLOW_CALL
    calls = [
        f"{path.name}:{number}: {line.strip()}"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if SLOW_CALL.search(line)
    ]
    assert not calls, "\n".join(calls)


def test_guard_tells_a_call_from_a_mention():
    assert SLOW_CALL.search("    v = np.cross(n, u)")
    assert SLOW_CALL.search("p = float(np.polyval(coeffs, x))")
    assert SLOW_CALL.search("    return np.append(np.asarray(v, dtype=float), w)")
    assert SLOW_CALL.search("    q = (np.outer(f, g) + np.outer (g, f)) / 2.0")
    assert SLOW_CALL.search("    s = np.array(_near_real(np.roots(coeffs[::-1])))")
    assert SLOW_CALL.search("    a = np.tensordot(u.T, a, axes=1)")
    assert SLOW_CALL.search("    padded = np.pad(s, ((1, 1), (0, 0)), constant_values=np.inf)")
    assert SLOW_CALL.search("    left = np.roll(s, 1, axis=1)")
    assert not SLOW_CALL.search('    differences np.cross forms, column by column')
    assert not SLOW_CALL.search("    v = cross3(n, u)")
    assert not SLOW_CALL.search("    out = np.power.outer(s, powers)")
    assert not SLOW_CALL.search("    np.appendix, np.outer product")
    assert not SLOW_CALL.search("    (_roots, the companion eigenvalues of np.roots) each give")
    assert not SLOW_CALL.search("    roots = np.linalg.eigvals(companion)")
    assert not SLOW_CALL.search("    mixed by one product instead of np.tensordot")
    assert not SLOW_CALL.search("    np.pad and np.roll copy the grid")
    assert not SLOW_CALL.search("    s = np.padding(x)")


def _kernel_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """The module functions that the residual columns of ``_KINDS``
    (components, reduce, scalar) name, and those they call, transitively."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "_KINDS"
    ]
    todo = []
    for row in table.values:
        todo += [arg.id for arg in row.args[3:5] if isinstance(arg, ast.Name)]
        todo += [kw.value.id for kw in row.keywords if kw.arg in ("components", "reduce", "scalar")]
    kernels = {}
    while todo:
        name = todo.pop()
        if name in functions and name not in kernels:
            kernels[name] = functions[name]
            todo += [node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)]
    return kernels


CONSTRAINTS = next(p for p in SOURCES if p.name == "constraints.py")


def _matrix_products(source: str) -> list[str]:
    return [
        f"constraints.py:{node.lineno}: {name}"
        for name, fn in _kernel_functions(ast.parse(source)).items()
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    ]


def test_residual_kernels_have_no_matrix_product():
    kernels = _kernel_functions(ast.parse(CONSTRAINTS.read_text()))
    assert {"_i1", "_i6", "_i7", "_i10", "_i3_gap", "_reflect_pts", "_dot", "_turn"} <= set(kernels)
    products = _matrix_products(CONSTRAINTS.read_text())
    assert not products, "\n".join(products)


def test_matrix_product_guard_finds_a_product():
    source = CONSTRAINTS.read_text()
    assert "s = _dot(N, d)" in source
    assert _matrix_products(source.replace("s = _dot(N, d)", "s = N @ d"))


NUMERICS = next(p for p in SOURCES if p.name == "numerics.py")
SEARCH_RESIDUAL_PATH = ("params_to_planes", "_stacked_components", "stacked_components_fn")


def _search_path_products(source: str) -> list[str]:
    functions = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }
    return [
        f"numerics.py:{node.lineno}: {name}"
        for name in SEARCH_RESIDUAL_PATH
        for node in ast.walk(functions[name])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    ]


def test_search_residual_path_has_no_matrix_product():
    products = _search_path_products(NUMERICS.read_text())
    assert not products, "\n".join(products)


def test_search_path_guard_finds_a_product():
    source = NUMERICS.read_text()
    line = "columns = st * np.cos(ph), st * np.sin(ph), np.cos(th)"
    assert line in source
    assert _search_path_products(source.replace(line, line.replace("st * np.cos", "st @ np.cos")))
    # and one in the batch function that stacked_components_fn returns
    call = "return _stacked_components(cons, *params_to_planes(params))"
    assert call in source
    assert _search_path_products(source.replace(call, call.replace("(params)", "(params @ p)")))


MESHING = next(p for p in SOURCES if p.name == "meshing.py")


def _coeffs_reads(source: str) -> list[str]:
    """Lines that read an attribute named ``coeffs`` without calling it
    (``Plane3.coeffs()`` is a method; a quadric's ``coeffs`` is its tuple)."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [
        f"meshing.py:{node.lineno}: .coeffs"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "coeffs" and id(node) not in called
    ]


def test_meshing_reads_no_quadric_coeffs():
    reads = _coeffs_reads(MESHING.read_text())
    assert not reads, "\n".join(reads)


def test_coeffs_guard_tells_a_read_from_a_mention():
    assert _coeffs_reads("c = fam.envelope().coeffs")
    assert _coeffs_reads("z = -rest / quadric.coeffs[8]")
    assert not _coeffs_reads('"""Reads the matrix, never quadric.coeffs."""\n# c = q.coeffs\n')
    assert not _coeffs_reads("a, b, c, d = plane.coeffs()")
    source = MESHING.read_text()
    assert "z_row = quadric.matrix[2]" in source
    assert _coeffs_reads(source.replace("z_row = quadric.matrix[2]", "z_row = quadric.coeffs[2]"))


ENVELOPES = next(p for p in SOURCES if p.name == "envelopes.py")


def _family_fields(source: str) -> list[str]:
    """The fields of ``envelopes._Family``, in order."""
    (row,) = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == "_Family"
    ]
    return [node.target.id for node in row.body if isinstance(node, ast.AnnAssign)]


def test_family_rows_have_no_closed_form_columns():
    assert _family_fields(ENVELOPES.read_text()) == ["params", "equation", "payload"]


def test_family_fields_guard_finds_a_column():
    source = ENVELOPES.read_text()
    line = "    payload: Callable[[float, float], tuple] | None = None\n"
    assert line in source
    column = "    envelope: Callable[[float, float], tuple[float, ...]] | None = None\n"
    assert _family_fields(source.replace(line, line + column))[-1] == "envelope"


DIRECT_SOLVERS = ("solve_I1", "solve_I2", "solve_I4")


def _own_raises(source: str) -> list[str]:
    functions = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }
    return [
        f"constraints.py:{node.lineno}: {name}"
        for name in DIRECT_SOLVERS
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Raise)
    ]


def test_direct_solvers_refuse_through_their_rows():
    raises = _own_raises(CONSTRAINTS.read_text())
    assert not raises, "\n".join(raises)


def test_raise_guard_finds_a_raise():
    source = CONSTRAINTS.read_text()
    line = "    _pre_distinct_lines((m, n))\n"
    assert line in source
    assert _own_raises(source.replace(line, line + "    raise InvalidConstraint('m = n')\n"))


CLI = next(p for p in SOURCES if p.name == "cli.py")


def _args_reads(source: str) -> dict[str, set[str]]:
    """The attributes of ``args`` each module function of cli reads, as
    ``args.name`` or ``getattr(args, "name", ...)``, also through the module
    functions it passes ``args`` to."""
    functions = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }

    def reads(name: str, seen: set[str]) -> set[str]:
        seen.add(name)
        found = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                found.add(node.attr)
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            passed = [a for a in node.args if isinstance(a, ast.Name) and a.id == "args"]
            if node.func.id == "getattr" and passed:
                found.add(node.args[1].value)
            elif passed and node.func.id in functions and node.func.id not in seen:
                found |= reads(node.func.id, seen)
        return found

    return {name: reads(name, set()) for name in functions}


def _unread_options(source: str) -> list[str]:
    from fold3d.cli import _COMMANDS, _build_parser

    (commands,) = [a for a in _build_parser(1e-9)._actions if a.dest == "command"]
    reads = _args_reads(source)
    return [
        f"fold3d {command} {action.option_strings or [action.dest]}"
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.dest != "help" and action.dest not in reads[_COMMANDS[command].__name__]
    ]


def test_every_option_is_read():
    unread = _unread_options(CLI.read_text())
    assert not unread, "\n".join(unread)


def test_option_guard_finds_an_unread_option():
    source = CLI.read_text()
    assert "extent=args.extent" in source and "doc.to_json() if args.json" in source
    assert _unread_options(source.replace("extent=args.extent", "extent=4.0")) == [
        "fold3d envelope ['--extent']"
    ]
    # the text replaced is solve's and oracle's one read of --json
    unread = _unread_options(source.replace("doc.to_json() if args.json", "doc.to_json() if 0"))
    assert unread == ["fold3d solve ['--json']", "fold3d oracle ['--json']"]


# LAPACK calls per exact solve, (svd, det, eigvals): 3I6 takes b's SVD;
# 2I6+I11 and I3+I7 take the linear forms' and _distinct's; I6+I8+I11 takes
# the linear forms' SVD, and its binary quadratic none
CALL_BUDGET = {"2I6+I11": (2, 1, 1), "3I6": (1, 1, 1), "I3+I7": (2, 1, 1), "I6+I8+I11": (1, 0, 0)}


@pytest.mark.parametrize("text", sorted(CALL_BUDGET))
def test_exact_solve_call_budget(text):
    from fold3d import OperationSpec, solve_operation
    from helpers import random_payload

    rng = np.random.default_rng(2450)
    cons = [random_payload(rng, k) for k in OperationSpec.parse(text).kinds]
    counted = [mock.patch.object(np.linalg, name, wraps=getattr(np.linalg, name))
               for name in ("svd", "det", "eigvals")]
    with counted[0] as svd, counted[1] as det, counted[2] as eigvals:
        sol = solve_operation(cons)
    assert sol.count > 0  # so a curve meeting's kernels were read
    calls = (svd.call_count, det.call_count, eigvals.call_count)
    assert all(x <= y for x, y in zip(calls, CALL_BUDGET[text])), calls


@pytest.mark.parametrize("kind", [f"I{i}" for i in range(1, 13)])
def test_dual_locus_call_budget(kind):
    from fold3d import IncidenceKind
    from fold3d.constraints import dual_locus
    from helpers import random_payload

    c = random_payload(np.random.default_rng(2460), IncidenceKind(kind))
    counted = [mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm),
               mock.patch.object(np, "concatenate", wraps=np.concatenate),
               mock.patch.object(np, "outer", wraps=np.outer)]
    with counted[0] as norm, counted[1] as concatenate, counted[2] as outer:
        forms, quadric = dual_locus(c)
    assert len(forms) + (quadric is not None) == c.kind.codimension
    assert (norm.call_count, concatenate.call_count, outer.call_count) == (0, 0, 0)


@pytest.mark.parametrize("text, solvable", [("I5+I6", True), ("I5+I9", True), ("I5+I9", False)])
def test_i5_closed_form_call_budget(text, solvable):
    from fold3d import solve_operation
    from helpers import instance_i5_i6, instance_i5_i9

    rng = np.random.default_rng(2800)
    cons = instance_i5_i6(rng) if text == "I5+I6" else instance_i5_i9(rng, solvable)
    counted = [mock.patch.object(np.linalg, "det", wraps=np.linalg.det),
               mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm),
               mock.patch.object(np, "vstack", wraps=np.vstack)]
    with counted[0] as det, counted[1] as norm, counted[2] as vstack:
        sol = solve_operation(cons)
    assert (sol.count > 0) == solvable  # so the family's planes were built
    assert (det.call_count, norm.call_count, vstack.call_count) == (0, 0, 0)


@pytest.mark.parametrize("text", ["I1", "I5+I6", "3I6", "I3+I6+I8"])
def test_normal_scan_one_components_call_per_constraint(text):
    import fold3d.numerics
    from fold3d import OperationSpec
    from helpers import random_payload

    rng = np.random.default_rng(2700)
    cons = [random_payload(rng, k) for k in OperationSpec.parse(text).kinds]
    kernel = fold3d.numerics.residual_components_grid
    with mock.patch.object(fold3d.numerics, "residual_components_grid", wraps=kernel) as spy:
        fold3d.numerics.normal_scan(cons, 14, 28, True)
    assert spy.call_count == len(cons)
