"""Static checks on the package source: no unused import, no dead private name,
only relative imports within the package, exit codes decided in ``cli.main``
alone, ``compare``'s rows built in ``analysis`` alone, a grid search whose
loops build no ``Fraction``, every byte order named and every delivery XOR in
one place; and on the tests' reference, which reads only the public API."""

import ast
from pathlib import Path

import hpda

SRC = Path(__file__).resolve().parents[1] / "src" / "hpda"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
REFERENCE = Path(__file__).with_name("reference.py")


def _reads(tree):
    """Names the module reads: bare names, attribute names, and ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _imports(tree):
    """(line, name bound, name imported) of every import but ``__future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0], alias.name


def _private_definitions(tree):
    """(line, name) of every private function, class or variable at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_sources_parse():
    assert {"__init__.py", "hierarchy.py", "pda.py"} <= set(TREES)


def test_every_import_is_used():
    unused = [
        f"{module}:{line} {bound}"
        for module, tree in TREES.items()
        for line, bound, _ in _imports(tree)
        if bound not in _reads(tree)
    ]
    assert unused == []


def test_every_private_module_level_name_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= _reads(tree)
        referenced.update(name for _, _, name in _imports(tree))
    dead = [
        f"{module}:{line} {name}"
        for module, tree in TREES.items()
        for line, name in _private_definitions(tree)
        if name not in referenced
    ]
    assert dead == []


def _absolute_hpda_imports(tree):
    """Lines of every ``import hpda...`` and ``from hpda... import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "hpda" for module in modules):
            yield node.lineno


def test_the_package_imports_itself_only_relatively():
    # A copy of the package loaded under another name, as an A/B benchmark
    # loads the parent's, must not reach into whichever ``hpda`` is installed.
    absolute = [
        f"{module}:{line}" for module, tree in TREES.items() for line in _absolute_hpda_imports(tree)
    ]
    assert absolute == []
    assert list(_absolute_hpda_imports(ast.parse("import hpda.pda\nfrom hpda import Pda"))) == [1, 2]


def test_the_reference_imports_only_public_names():
    # The reference must not share code with what it checks: it imports no
    # submodule and no name outside ``hpda.__all__``, and reads no private
    # attribute.
    tree = ast.parse(REFERENCE.read_text(), str(REFERENCE))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "hpda"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hpda":
            names = [alias.name for alias in node.names]
            found += names if node.module != "hpda" else sorted(set(names) - set(hpda.__all__))
        elif isinstance(node, ast.Attribute) and node.attr[:1] == "_" != node.attr[1:2]:
            found.append(ast.unparse(node))
    assert found == []
    assert "from hpda import" in REFERENCE.read_text()


def test_only_main_maps_exceptions_to_exit_codes():
    # No handler catches anything: main maps every exception to its exit code.
    handlers = [
        node
        for node in TREES["cli.py"].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(handlers) == 5
    guarded = [
        handler.name for handler in handlers for node in ast.walk(handler) if isinstance(node, ast.Try)
    ]
    assert guarded == []


def test_cli_takes_every_compare_row_from_compare_sweep():
    # The CLI builds no row: the searches, their parameters and the row order
    # stay in analysis, behind one call.
    imported = [
        alias.name
        for node in ast.walk(TREES["cli.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "analysis"
        for alias in node.names
    ]
    assert imported == ["compare_sweep"]


def test_only_the_array_modules_read_the_star_marker():
    # The plan and the simulation read placement bytes from the occurrence
    # index, never cells.
    readers = {
        module
        for module, tree in TREES.items()
        if "STAR" in _reads(tree) | {name for _, _, name in _imports(tree)}
    }
    assert readers <= {"__init__.py", "pda.py", "hierarchy.py", "grids.py"}
    assert {"plan.py", "simulation.py"} <= set(TREES)


def test_analysis_makes_no_float():
    # No float may enter a reported number: no float literal, no float() call
    # and no float-valued math function.  The name ``float`` is read only by
    # the ``Rational`` alias and ``_fraction``, which converts a caller's
    # float input exactly through its repr.
    exact_math = {"ceil", "comb", "floor", "gcd", "isqrt", "lcm", "prod"}
    found = []
    for top in TREES["analysis.py"].body:
        caller_input = (isinstance(top, ast.FunctionDef) and top.name == "_fraction") or (
            isinstance(top, ast.Assign) and ast.unparse(top.targets[0]) == "Rational"
        )
        for node in ast.walk(top):
            if (
                (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
                or (isinstance(node, ast.Name) and node.id == "float" and not caller_input)
                or (
                    isinstance(node, ast.Attribute)
                    and ast.unparse(node.value) == "math"
                    and node.attr not in exact_math
                )
            ):
                found.append(f"analysis.py:{node.lineno} {ast.unparse(node)}")
    assert found == []


def _unnamed_byte_orders(tree):
    """Lines of every ``from_bytes``/``to_bytes`` use that leaves the byte
    order to a default.

    A call passes it positionally or as ``byteorder=``; a conversion mapped
    over iterables gets an iterable for every argument.  ``int.to_bytes``
    read from the class takes the int as one more argument.
    """
    mapped = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "map" and node.args:
            mapped[id(node.args[0])] = node
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes")):
            continue
        needed = 3 if ast.unparse(node) == "int.to_bytes" else 2
        if id(node) in calls:
            call = calls[id(node)]
            named = any(keyword.arg == "byteorder" for keyword in call.keywords)
            if len(call.args) < needed and not named:
                yield node.lineno
        elif id(node) not in mapped or len(mapped[id(node)].args) < needed + 1:
            yield node.lineno


def test_every_byte_conversion_names_its_byte_order():
    # int.from_bytes and int.to_bytes have no default byte order before
    # Python 3.11, so a call that leaves it out fails only on 3.10.
    found = [f"{module}:{line}" for module, tree in TREES.items() for line in sorted(_unnamed_byte_orders(tree))]
    assert found == []
    assert "from_bytes" in ast.unparse(TREES["simulation.py"]) + ast.unparse(TREES["plan.py"])
    snippet = (
        "int.from_bytes(b)\n"
        "x.to_bytes(8)\n"
        "int.to_bytes(x, 8)\n"
        "map(int.from_bytes, bs)\n"
        "map(int.to_bytes, xs, repeat(8))\n"
        "f = int.from_bytes\n"
        "int.from_bytes(b, 'big')\n"
        "x.to_bytes(8, byteorder='big')\n"
        "map(int.to_bytes, xs, repeat(8), repeat('big'))\n"
    )
    assert sorted(_unnamed_byte_orders(ast.parse(snippet))) == [1, 2, 3, 4, 5, 6]


def _imported_from(tree, module):
    """Every name that ``tree`` imports from the package's ``module``."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module
        for alias in node.names
    }


def test_only_the_simulation_converts_packets():
    # The plan compiles and executes on ints; hpda.simulation alone turns
    # packets and signals into ints and back, and reaches into the plan only
    # for its compiler.
    wire = {"from_bytes", "to_bytes", "BYTEORDER"}
    plan = _reads(TREES["plan.py"]) | {name for _, _, name in _imports(TREES["plan.py"])}
    assert plan & wire == set()
    assert wire <= _reads(TREES["simulation.py"])
    assert _imported_from(TREES["plan.py"], "simulation") == {"DecodingError"}
    assert _imported_from(TREES["simulation.py"], "plan") == {"DeliveryPlan", "compile_plan"}


def _xors(node, scope=""):
    """(scope, line) of every XOR under ``node``: each ``^`` or ``^=`` and
    each read of the name ``xor``, where scope is the dotted name of the
    enclosing function or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.BitXor):
            yield scope, child.lineno
        elif isinstance(child, ast.Name) and child.id == "xor" and isinstance(child.ctx, ast.Load):
            yield scope, child.lineno
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from _xors(child, inner)


def test_every_delivery_xors_in_one_place():
    # Every stage takes its runs from the one running XOR in Runs.payloads and
    # adds each run to its start in _fold, so a second XOR path cannot come
    # back unnoticed.
    sites = {f"{module}:{scope}" for module, tree in TREES.items() for scope, _ in _xors(tree)}
    assert sites == {"plan.py:Runs.payloads", "plan.py:_fold"}
    def running(tree):
        """The ``accumulate`` and ``reduce`` calls over ``xor`` under ``tree``."""
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("accumulate", "reduce")
            and "xor" in map(ast.unparse, node.args)
        ]

    payloads = next(
        node
        for node in ast.walk(TREES["plan.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "payloads"
    )
    assert sum(len(running(tree)) for tree in TREES.values()) == len(running(payloads)) == 1
    snippet = "class A:\n    def f(self):\n        return a ^ b\ndef g():\n    x ^= 1\n    reduce(xor, xs)\n"
    assert list(_xors(ast.parse(snippet))) == [("A.f", 3), ("g", 5), ("g", 6)]


def _calls_in_loops(function):
    """(line, name) of every call of ``Fraction``, ``SplitPoint`` or ``_r2``
    under a ``for`` loop of ``function``."""
    return {
        (node.lineno, ast.unparse(node.func))
        for loop in ast.walk(function)
        if isinstance(loop, ast.For)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("Fraction", "SplitPoint", "_r2")
    }


def test_the_grid_search_loops_on_integers_only():
    # search_min_r1 builds its Fractions and its SplitPoint once, after the
    # scan, from the best point's integers.
    search = next(
        node
        for node in TREES["analysis.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "search_min_r1"
    )
    assert _calls_in_loops(search) == set()
    assert "SplitPoint(" in ast.unparse(search)
    snippet = "def f():\n    for a in x:\n        for b in y:\n            _r2(p, SplitPoint(a, b))\n    return Fraction(1)\n"
    assert sorted(_calls_in_loops(ast.parse(snippet).body[0])) == [(4, "SplitPoint"), (4, "_r2")]
