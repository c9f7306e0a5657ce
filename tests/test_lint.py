"""Static checks on the package source, made with the standard library's
``ast`` alone: every imported name is used in its module, every module-level
private function and every private method of a class is referenced somewhere
in ``src/``, every named parameter is read in the body of its function,
every exception class derives from ``GostrataError``, every ``Enum`` member is
read by name, every defaulted parameter of a private function is passed by
some call, every private attribute read on another object is defined in
the reading module, a point is built only by ``make_point``, nothing
calls ``dataclasses.replace``, no product or sigma image is packed
again by ``mat_pack``, and ``dieudonne`` unpacks a matrix only at its
output boundary.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gostrata"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}


def _references(tree: ast.AST) -> set[str]:
    """Every name read in ``tree``: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree: ast.AST) -> list[tuple[str, int]]:
    """(bound name, line) for every import in ``tree``, ``__future__`` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
    return bound


def test_the_lint_sees_every_module():
    assert {"dieudonne.py", "strata.py", "witt.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_imported_name_is_used(name: str):
    tree = TREES[name]
    used = _references(tree)
    unused = [f"{bound} (line {line})" for bound, line in _imported(tree) if bound not in used]
    assert not unused, f"{name} imports names it never uses: {unused}"


def _private_functions(tree: ast.Module):
    """(qualified name, definition) for every private module-level function
    and every private method of a module-level class; dunders are not
    private."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for item in members:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name.startswith("_")
                and not item.name.endswith("__")
            ):
                yield prefix + item.name, item


def test_every_private_function_is_referenced():
    referenced = set().union(*(_references(tree) for tree in TREES.values()))
    referenced |= {bound for tree in TREES.values() for bound, _ in _imported(tree)}
    dead = [
        f"{name}: {qualified}"
        for name, tree in TREES.items()
        for qualified, item in _private_functions(tree)
        if item.name not in referenced
    ]
    assert not dead, f"private functions and methods that nothing calls: {dead}"


def test_the_private_lint_sees_methods():
    found = {qualified for tree in TREES.values() for qualified, _ in _private_functions(tree)}
    assert {"WittRing._sigma_table", "WittRing._pack", "WittRing._unpack", "_poly_gcdex"} <= found


def test_every_named_parameter_is_read():
    """``*args``, ``**kwargs`` and a method's receiver are exempt; a lambda
    counts as a function."""
    unread = []
    for name, tree in TREES.items():
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if id(node) in methods:
                params = params[1:]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            label = getattr(node, "name", "<lambda>")
            unread += [
                f"{name}:{node.lineno} {label}({arg.arg})" for arg in params if arg.arg not in read
            ]
    assert not unread, f"parameters that their function never reads: {unread}"


def test_every_error_class_derives_from_gostrata_error():
    """The CLI reports a ``GostrataError`` on one line with exit 1, so an error
    class outside that hierarchy would escape as a traceback.  Only the CLI's
    own ``UsageError`` (exit 2) stands apart."""
    bases = {
        node.name: [ast.unparse(base).split(".")[-1] for base in node.bases]
        for tree in TREES.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def ancestors(name: str) -> set[str]:
        seen, todo = set(), [name]
        while todo:
            for base in bases.get(todo.pop(), []):
                if base not in seen:
                    seen.add(base)
                    todo.append(base)
        return seen

    def builtin_exception(name: str) -> bool:
        value = getattr(builtins, name, None)
        return isinstance(value, type) and issubclass(value, BaseException)

    errors = {name for name in bases if any(map(builtin_exception, ancestors(name)))}
    assert {"PlaceError", "FullCycleError", "PrecisionError", "UsageError"} <= errors
    outside = sorted(
        name
        for name in errors - {"GostrataError", "UsageError"}
        if "GostrataError" not in ancestors(name)
    )
    assert not outside, f"error classes outside GostrataError: {outside}"


def test_every_enum_member_is_read():
    """Each member of an ``Enum`` in ``src/`` is read as ``Class.MEMBER``
    (or ``module.Class.MEMBER``) somewhere in ``src/``; a member that nothing
    names is a label no code can carry."""
    members = [
        (node.name, target.id)
        for tree in TREES.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).split(".")[-1] == "Enum" for base in node.bases)
        for stmt in node.body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    ]
    read = {
        (ast.unparse(node.value).split(".")[-1], node.attr)
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute))
    }
    assert members, "the lint found no Enum in src/"
    unread = [f"{cls}.{member}" for cls, member in members if (cls, member) not in read]
    assert not unread, f"enum members that nothing in src/ reads: {unread}"


def test_every_defaulted_private_parameter_is_passed():
    """A private function's defaulted parameter is passed, by position or by
    keyword, by some call in ``src/``; otherwise every caller takes the
    default and the parameter is an option no one sets.  A method's receiver
    shifts positions by one; ``*args`` or ``**kwargs`` at a call pass
    everything."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in TREES.items():
        for qualified, item in _private_functions(tree):
            args = item.args
            positional = args.posonlyargs + args.args
            skip = 1 if "." in qualified else 0
            first_default = len(positional) - len(args.defaults)
            defaulted = [
                (index - skip, arg.arg) for index, arg in enumerate(positional) if index >= first_default
            ] + [
                (None, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for index, param in defaulted:
                if not any(
                    (index is not None and len(call.args) > index)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or any(kw.arg in (param, None) for kw in call.keywords)
                    for call in calls.get(item.name, [])
                ):
                    unpassed.append(f"{module}: {qualified}({param})")
    assert not unpassed, f"defaulted parameters that no call in src/ passes: {unpassed}"


def _foreign_private_reads(trees: dict[str, ast.Module]) -> list[str]:
    """Reads of a private attribute ``x._name`` (not a dunder, ``x`` not
    ``self``) whose module does not define ``_name``: as a class field, a
    method, or by ``object.__setattr__(self, "_name", ...)``."""
    foreign = []
    for module, tree in trees.items():
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined.add(item.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        defined.add(item.target.id)
                    elif isinstance(item, ast.Assign):
                        defined |= {target.id for target in item.targets if isinstance(target, ast.Name)}
            elif (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "object.__setattr__"
                and isinstance(node.args[1], ast.Constant)
            ):
                defined.add(node.args[1].value)
        foreign += [
            f"{module}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            and node.attr not in defined
        ]
    return foreign


def test_private_attributes_are_read_only_where_they_are_defined():
    """A table such as ``ShimuraDatum._gaps`` stays behind the module that
    builds it; other modules go through its public methods."""
    assert not _foreign_private_reads(TREES), _foreign_private_reads(TREES)


def test_the_private_attribute_lint_sees_a_foreign_read():
    reader = ast.parse("def gap(datum, tau):\n    return datum._gaps[tau], datum.places._entry\n")
    owner = ast.parse(
        "class Datum:\n    _free: dict\n    def _entry(self):\n        return self._free\n"
        "    def __post_init__(self):\n        object.__setattr__(self, '_gaps', {})\n"
    )
    assert _foreign_private_reads({"places.py": owner}) == []
    assert sorted(_foreign_private_reads({"places.py": owner, "strata.py": reader})) == [
        "strata.py:2 datum._gaps", "strata.py:2 datum.places._entry"
    ]


# the functions each call may appear in: a point is built by make_point
# alone, and dataclasses.replace, which would build one through the bare
# constructor, is called nowhere
DOORS = {"DieudonnePoint": {"make_point"}, "replace": set(), "dataclasses.replace": set()}

# the names a door also sees through a module prefix, as dieudonne.DieudonnePoint
PREFIXED = {"DieudonnePoint", "mat_unpack"}


def _calls_outside_their_door(trees: dict[str, ast.Module], doors: dict = DOORS) -> list[str]:
    """Each call in ``doors`` (a name in ``PREFIXED`` also by a module
    prefix) made outside its functions, with the innermost enclosing
    function; a method such as ``str.replace`` is not ``replace``."""
    found = []

    def visit(module: str, node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                if callee.split(".")[-1] in PREFIXED:
                    callee = callee.split(".")[-1]
                if callee in doors and function not in doors[callee]:
                    found.append(f"{module}:{child.lineno} {callee}() in {function}")
            visit(module, child, inner)

    for module, tree in trees.items():
        visit(module, tree, None)
    return found


def test_a_point_is_built_only_by_make_point():
    """``make_point`` validates every point it builds.  No other code
    constructs a point, and nothing replaces the fields of one."""
    assert not _calls_outside_their_door(TREES), _calls_outside_their_door(TREES)


def test_the_door_lint_sees_a_foreign_construction():
    source = ast.parse(
        "def make_point(ring):\n    return DieudonnePoint(ring)\n"
        "def _frame_point(pt, datum):\n    return replace(pt, datum=datum)\n"
        "def twist(pt, datum):\n    name = pt.prime_id.replace('p', 'q')\n"
        "    return dieudonne.DieudonnePoint(pt.ring), dataclasses.replace(pt, datum=datum)\n"
        "def rebuild(pt):\n    def inner():\n        return replace(pt)\n    return inner\n"
        "MOVED = dataclasses.replace(POINT, prime_id='p2')\n"
    )
    assert _calls_outside_their_door({"walk.py": source}) == [
        "walk.py:4 replace() in _frame_point",
        "walk.py:7 DieudonnePoint() in twist",
        "walk.py:7 dataclasses.replace() in twist",
        "walk.py:10 replace() in inner",
        "walk.py:12 dataclasses.replace() in None",
    ]


# the calls whose matrix comes out of the packed kernel already: packing
# their result again unpacks and repacks the same ints
REPACKED = {"mat_sigma", "mat_mul", "packed_mul"}


def _repacks(trees: dict[str, ast.Module]) -> list[str]:
    """Each ``mat_pack`` call (also by a module prefix) with an argument that
    is itself a call in ``REPACKED``."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "mat_pack":
                for arg in node.args + [keyword.value for keyword in node.keywords]:
                    if isinstance(arg, ast.Call):
                        callee = ast.unparse(arg.func)
                        if callee.split(".")[-1] in REPACKED:
                            found.append(f"{module}:{node.lineno} mat_pack({callee}(...))")
    return found


def test_no_product_or_sigma_image_is_packed_again():
    """``packed_sigma`` and ``packed_mul`` keep a result packed; a tuple
    matrix from ``mat_sigma`` or ``mat_mul`` handed to ``mat_pack`` is the
    unpack-and-repack those replace."""
    assert not _repacks(TREES), _repacks(TREES)


def test_the_repack_lint_sees_a_repack():
    source = ast.parse(
        "def door(ring, a, b, pairing):\n"
        "    x = mat_pack(ring, mat_sigma(ring, pairing, 1))\n"
        "    y = witt.mat_pack(ring, a=W.mat_mul(ring, a, b))\n"
        "    z = mat_pack(ring, packed_mul(ring, a, b))\n"
        "    return mat_pack(ring, a), mat_pack(ring, mat_transpose(b)), packed_sigma(ring, x, 1)\n"
    )
    assert _repacks({"door.py": source}) == [
        "door.py:2 mat_pack(mat_sigma(...))",
        "door.py:3 mat_pack(W.mat_mul(...))",
        "door.py:4 mat_pack(packed_mul(...))",
    ]


# the functions of dieudonne that may unpack a packed matrix: its output
# boundary (the JSON record, V, the public essential composites and omega)
# and essential_frobenius_image, whose columns go into lattice_normalize
UNPACK_DOORS = {
    "mat_unpack": {
        "_mat_to_json",
        "v_matrix",
        "essential_frobenius_matrix",
        "essential_verschiebung_matrix",
        "omega_lattice",
        "essential_frobenius_image",
    }
}


def test_dieudonne_unpacks_only_at_its_boundary():
    """A point's matrices are packed, and the frame stage, ``make_point``
    and the Hasse invariants read them packed; a ``mat_unpack`` anywhere
    else in ``dieudonne`` is an unpack that the packed kernel replaces."""
    found = _calls_outside_their_door({"dieudonne.py": TREES["dieudonne.py"]}, UNPACK_DOORS)
    assert not found, found


def test_the_unpack_lint_sees_an_unpack():
    source = ast.parse(
        "def v_matrix(pt, emb):\n    return mat_unpack(pt.ring, pt.f_mats[emb])\n"
        "def _framed_f_mats(pt, emb):\n    return witt.mat_unpack(pt.ring, pt.f_mats[emb])\n"
        "def hasse_vanishes(pt, emb):\n    def inner(x):\n        return mat_unpack(pt.ring, x)\n"
        "    return inner, mat_pack(pt.ring, x)\n"
        "ROWS = mat_unpack(RING, MAT)\n"
    )
    assert _calls_outside_their_door({"dieudonne.py": source}, UNPACK_DOORS) == [
        "dieudonne.py:4 mat_unpack() in _framed_f_mats",
        "dieudonne.py:7 mat_unpack() in inner",
        "dieudonne.py:9 mat_unpack() in None",
    ]
