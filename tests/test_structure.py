"""Module structure: every import sits at module level and the imports form a DAG; every
export, public member and defaulted parameter has a reader outside the tests."""

import ast
import graphlib
from pathlib import Path
from typing import NamedTuple

import pytest

import coorbitkit
from coorbitkit import cli
from test_neighbourhood import LOCAL_MAX_MODELS, Q_NEIGHBOURHOOD_MODELS

PACKAGE = Path(coorbitkit.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(node) -> set:
    """Package modules an import statement names; ``from . import x`` of a non-module is __init__."""
    if isinstance(node, ast.ImportFrom) and node.level:
        if node.module:
            return {node.module.split(".")[0]}
        return {a.name if a.name in TREES else "__init__" for a in node.names}
    names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
    return {name.split(".")[1] if "." in name else "__init__"
            for name in names if name and name.split(".")[0] == "coorbitkit"}


def _import_graph() -> dict:
    """Module -> package modules it imports, counting every import statement in the file."""
    return {
        name: set().union(*(_imported_modules(node) for node in ast.walk(tree)
                            if isinstance(node, (ast.Import, ast.ImportFrom))))
        for name, tree in TREES.items()
    }


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_import_inside_a_function(module):
    local = [f"{module}.py:{node.lineno}"
             for fn in ast.walk(TREES[module])
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"function-local imports: {local}"


def test_import_graph_is_acyclic():
    graph = _import_graph()
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert "frames" not in graph["cdmatrix"]  # the power series lives in cdmatrix


def _unused_imports(tree) -> list:
    """Names bound by module-level imports (``__future__`` aside) that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__"}))
def test_no_unused_module_import(module):
    assert not _unused_imports(TREES[module]), f"{module}.py imports unused names"


def test_unused_import_check_catches_a_leftover():
    tree = ast.parse("import json\nfrom x import a, b as c\nimport os.path\nprint(a, os)\n")
    assert _unused_imports(tree) == ["json (line 1)", "c (line 2)"]


def _foreign_private_reads(tree) -> list:
    """``obj._name`` (single underscore, not a dunder) read on anything but ``self`` or ``cls``."""
    return [f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_private_attribute_read_across_objects(module):
    assert not _foreign_private_reads(TREES[module]), f"{module}.py reads another object's privates"


def test_private_read_check_catches_a_leftover():
    tree = ast.parse("h0 = h_vals[model._k_max, :]\nself._a = cls._b + o.__len__()\n")
    assert _foreign_private_reads(tree) == ["model._k_max (line 1)"]


def _holders(matches, modules=TREES) -> set:
    """``module.function`` for every function in ``modules`` holding a node ``matches`` accepts."""
    return {f"{module}.{fn.name}" for module in modules for fn in ast.walk(TREES[module])
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(matches(node) for node in ast.walk(fn))}


def _callers(matches) -> set:
    """``module.function`` for every function whose body holds a call that ``matches`` accepts."""
    return _holders(lambda node: isinstance(node, ast.Call) and matches(node))


def _calls(name):
    return lambda node: isinstance(node.func, ast.Name) and node.func.id == name


def _draws_random(node) -> bool:
    """A call that makes a random generator or draws from a global one: ``default_rng``,
    or anything under ``np.random``, ``numpy.random`` or the standard ``random``."""
    name = ast.unparse(node.func)
    return name.split(".")[-1] == "default_rng" \
        or name.startswith(("np.random.", "numpy.random.", "random."))


def _parameters(tree, name) -> list:
    """The parameter names of the function ``name`` defined in ``tree``."""
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return [arg.arg for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]


def test_no_seeded_pair_draw():
    """The molecule pair checks read every pair: ``pair_check`` takes no seed, nothing in
    sampling draws at random, and in frames only the Rayleigh-quotient oracle does."""
    assert "seed" not in _parameters(TREES["sampling"], "pair_check")
    assert [ast.unparse(node) for node in ast.walk(TREES["sampling"])
            if isinstance(node, ast.Call) and _draws_random(node)] == []
    assert _holders(lambda node: isinstance(node, ast.Call) and _draws_random(node),
                    ["frames"]) == {"frames.rayleigh_extremes"}


def test_random_draw_check_catches_a_leftover():
    tree = ast.parse("def f(n, seed):\n    rng = np.random.default_rng(seed)\n"
                     "    g = default_rng()\n    s = numpy.random.Philox(key=1)\n"
                     "    return rng.integers(0, n, 5), random.random(), g.random()\n")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert sorted(ast.unparse(node.func) for node in calls if _draws_random(node)) \
        == ["default_rng", "np.random.default_rng", "numpy.random.Philox", "random.random"]
    assert "seed" in _parameters(tree, "f")


def test_one_half_step_recheck():
    """Both quadrature runners re-check through one helper; only it and the drift check raise."""
    assert _callers(_calls("_rechecked")) == {"experiments.run_counterexample_realline",
                                              "experiments.run_counterexample_affine"}
    assert _callers(_calls("ResolutionError")) == {"experiments._rechecked",
                                                   "experiments.run_counterexample_affine"}


def test_one_orbit_per_window():
    """A window's orbit is formed by the kernel system; the calibration orbits its atoms."""
    def orbit_call(node):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "orbit"

    assert _callers(orbit_call) == {"frames.form", "coorbit.calibrate_constants"}


def test_orbit_families_fit_no_envelope():
    """The frame-kernel check's weighted atoms are an orbit family: its envelope is one
    column, so it calls no ``fit_envelope``; the fitted path serves the other families."""
    assert _callers(_calls("fit_envelope")) == {"frames.dual_frame",
                                                "coorbit.calibrate_constants",
                                                "coorbit.extend_operator_check"}
    assert "frames.frame_kernel_envelope_check" in _callers(_calls("orbit_envelope"))


def test_one_covariance_pass():
    """The duals and the frame-kernel check decide covariance by the same generating-set
    pass, formed on each call: a test may set ``fs.tau`` after the frame is built."""
    assert _callers(_calls("_covariant_rows")) == {"frames.dual_frame",
                                                   "frames.frame_kernel_envelope_check"}


def _is_scatter_max(node) -> bool:
    """A call of ``<module>.maximum.at``: numpy's unbuffered scatter-max."""
    func = node.func
    return isinstance(func, ast.Attribute) and func.attr == "at" \
        and isinstance(func.value, ast.Attribute) and func.value.attr == "maximum"


def test_scatter_max_only_in_groups():
    """Envelope bins are filled by the group model, whose base scatter-max is the oracle."""
    assert _callers(_is_scatter_max) == {"groups.relative_max"}


def test_scatter_max_check_catches_a_leftover():
    tree = ast.parse("def f(phi, z, m):\n    np.maximum.at(phi, z, m)\n"
                     "    np.minimum.at(phi, z, m)\n    return np.maximum(phi, m)\n")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert [ast.unparse(node) for node in calls if _is_scatter_max(node)] \
        == ["np.maximum.at(phi, z, m)"]


def _is_np_convolve(node) -> bool:
    """A call of numpy's ``convolve``, through ``np`` or ``numpy``."""
    func = node.func
    return isinstance(func, ast.Attribute) and func.attr == "convolve" \
        and ast.unparse(func.value) in ("np", "numpy")


def _is_left_translates(node) -> bool:
    return isinstance(node.func, ast.Attribute) and node.func.attr == "left_translates"


def _kind_reads(tree) -> list:
    """Every read of an attribute named ``kind``, the tag a switch on the model would test."""
    return [f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "kind"]


def test_one_convolution():
    """Convolution is the model kernel: numpy convolves only in groups' ``convolve``, the
    left translates are read inside groups only, and no module switches on a model kind."""
    assert _callers(_is_np_convolve) == {"groups.convolve"}
    assert {label.split(".")[0] for label in _callers(_is_left_translates)} == {"groups"}
    assert {module: _kind_reads(tree) for module, tree in TREES.items()
            if _kind_reads(tree)} == {}


def test_convolution_checks_catch_a_leftover():
    tree = ast.parse("def f(v, w, m):\n    if m.kind == 'line':\n        return np.convolve(v, w)\n"
                     "    return m.left_translates(w, v) @ v\n"
                     "def g(m, v):\n    return m.convolve(v, v) + numpy.convolve(v, v)\n"
                     "kind = 'cyclic'\n")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert sorted(ast.unparse(node) for node in calls if _is_np_convolve(node)) \
        == ["np.convolve(v, w)", "numpy.convolve(v, v)"]
    assert [ast.unparse(node) for node in calls if _is_left_translates(node)] \
        == ["m.left_translates(w, v)"]
    assert _kind_reads(tree) == ["m.kind (line 2)"]


def _phase_forms(tree) -> list:
    """``Class.method`` (or the function) of each ``np.exp`` of a complex multiple of pi."""
    def is_phase(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.exp", "numpy.exp") \
            and any(isinstance(c, ast.Constant) and isinstance(c.value, complex)
                    for c in ast.walk(node)) \
            and any(isinstance(a, ast.Attribute) and a.attr == "pi" for a in ast.walk(node))

    owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}
    return [f"{owner[id(fn)]}.{fn.name}" if id(fn) in owner else fn.name
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if is_phase(node)]


def _method_calls(tree, cls, method, attr) -> list:
    """The calls of ``.attr`` inside ``cls.method``."""
    return [ast.unparse(node) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            and c.name == cls for fn in c.body
            if isinstance(fn, ast.FunctionDef) and fn.name == method
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == attr]


def test_one_gabor_phase_table():
    """exp(2 pi i k l / N) is formed once, as Z_N x Z_N's ``chi`` table, which the
    representation and the cocycle read; the twisted sum reads no y^{-1}x table of its own."""
    assert {module: _phase_forms(tree) for module, tree in TREES.items()
            if _phase_forms(tree)} == {"groups": ["CyclicPhaseSpace.chi"]}
    assert _method_calls(TREES["groups"], "GroupModel", "convolve", "div_indices") == []


def test_phase_checks_catch_a_leftover():
    tree = ast.parse("class Representation:\n    def __init__(self, n):\n"
                     "        self.phase = np.exp(2j * np.pi * t[:, None] * t / n)\n"
                     "class GroupModel:\n    def convolve(self, v, b):\n"
                     "        return v[self.div_indices(b[:, None], b)]\n"
                     "    def cocycle_values(self, k, l):\n"
                     "        return numpy.exp(-2j * np.pi * k * l / self.n)\n"
                     "def gaussian(d, n):\n    return np.exp(-np.pi * d * d / n)\n")
    assert _phase_forms(tree) == ["Representation.__init__", "GroupModel.cocycle_values"]
    assert _method_calls(tree, "GroupModel", "convolve", "div_indices") \
        == ["self.div_indices(b[:, None], b)"]


def _window_views(tree) -> list:
    """Every import or attribute read of numpy's ``sliding_window_view``."""
    name = "sliding_window_view"
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name.split(".")[-1] == name for alias in node.names)
            or isinstance(node, ast.Attribute) and node.attr == name]


def _overrides(tree, methods) -> set:
    """(class, method) for each of ``methods`` a GroupModel subclass defines in its own body."""
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def is_model(name) -> bool:
        return name == "GroupModel" or name in classes and any(
            is_model(ast.unparse(base)) for base in classes[name].bases)

    return {(name, fn.name) for name, node in classes.items()
            if name != "GroupModel" and is_model(name)
            for fn in node.body if isinstance(fn, ast.FunctionDef) and fn.name in methods}


def _untested(overrides, tested) -> list:
    """``class.method`` for each override whose class has no model in its method's base-loop set."""
    return sorted(f"{cls}.{method}" for cls, method in overrides if cls not in tested[method])


def test_one_window_max():
    """Every window max goes through groups._window_max: no module reads sliding_window_view."""
    assert {module: _window_views(tree) for module, tree in TREES.items()
            if _window_views(tree)} == {}


def test_every_neighbourhood_override_meets_the_base_loop():
    """A model overriding local_max or q_neighbourhood is in that method's base-loop test."""
    tested = {method: {type(build()).__name__ for build in models.values()}
              for method, models in (("local_max", LOCAL_MAX_MODELS),
                                     ("q_neighbourhood", Q_NEIGHBOURHOOD_MODELS))}
    overrides = set().union(*(_overrides(tree, set(tested)) for tree in TREES.values()))
    assert ("RealLineModel", "q_neighbourhood") in overrides
    assert _untested(overrides, tested) == []


def test_window_and_override_checks_catch_a_leftover():
    tree = ast.parse("from numpy.lib.stride_tricks import sliding_window_view\n"
                     "import numpy.lib.stride_tricks.sliding_window_view\n"
                     "w = np.lib.stride_tricks.sliding_window_view(v, 3)\n"
                     "class GroupModel:\n    def local_max(self): pass\n"
                     "class A(GroupModel):\n    def local_max(self): pass\n"
                     "class B(A):\n    def q_neighbourhood(self): pass\n    def other(self): pass\n"
                     "class C:\n    def local_max(self): pass\n")
    assert _window_views(tree) == ["line 1", "line 2", "line 3"]
    overrides = _overrides(tree, {"local_max", "q_neighbourhood"})
    assert overrides == {("A", "local_max"), ("B", "q_neighbourhood")}
    assert _untested(overrides, {"local_max": {"A"}, "q_neighbourhood": {"A"}}) \
        == ["B.q_neighbourhood"]


def _along_axis_gathers(tree) -> list:
    """Every import, attribute read or name read of numpy's ``take_along_axis``."""
    name = "take_along_axis"
    return sorted(f"line {node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and any(alias.name.split(".")[-1] == name for alias in node.names)
                  or isinstance(node, ast.Attribute) and node.attr == name
                  or isinstance(node, ast.Name) and node.id == name)


def test_no_gather_along_an_axis():
    """No module gathers by take_along_axis: affine M^L reads shifted scale rows, not a
    carrier-sized gather per q_x."""
    assert {module: _along_axis_gathers(tree) for module, tree in TREES.items()
            if _along_axis_gathers(tree)} == {}


def test_along_axis_check_catches_a_leftover():
    tree = ast.parse("from numpy import take_along_axis as gather\n"
                     "a = np.take_along_axis(v, i, axis=0)\n"
                     "b = take_along_axis(v, i, -1)\n"
                     "c = np.take(v, i, axis=0)\n"
                     "np.put_along_axis(v, i, c, axis=0)\n")
    assert _along_axis_gathers(tree) == ["line 1", "line 2", "line 3"]


def _is_translates(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr == "translates"


def _translates_loops(tree) -> list:
    """``.translates(...)`` iterated: by a ``for`` or a comprehension, or by ``next``,
    ``list`` or ``iter``; the table is one array, read whole."""
    iterated = [node.iter for node in ast.walk(tree)
                if isinstance(node, (ast.For, ast.comprehension))]
    iterated += [node.args[0] for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id in ("next", "list", "iter") and node.args]
    return sorted(f"line {node.lineno}" for node in iterated if _is_translates(node))


def _is_repeat_rule(node) -> bool:
    """An assignment of ABSENT through a comparison mask, as ``s[1:][s[1:] == s[:-1]] =
    ABSENT`` drops the products an earlier u_j gave."""
    return isinstance(node, ast.Assign) and ast.unparse(node.value) == "ABSENT" \
        and any(isinstance(target, ast.Subscript)
                and any(isinstance(n, ast.Compare) for n in ast.walk(target.slice))
                for target in node.targets)


def _repeat_rules(tree) -> list:
    return [f"line {node.lineno}" for node in ast.walk(tree) if _is_repeat_rule(node)]


def test_translates_are_one_table():
    """No module loops over a translates table, and the repeat rule (a translate is a set)
    is written once, in groups.drop_repeats."""
    assert {module: _translates_loops(tree) for module, tree in TREES.items()
            if _translates_loops(tree)} == {}
    assert {module: len(_repeat_rules(tree)) for module, tree in TREES.items()
            if _repeat_rules(tree)} == {"groups": 1}
    assert _holders(_is_repeat_rule, ["groups"]) == {"groups.drop_repeats"}


def test_translates_check_catches_a_leftover():
    tree = ast.parse("for t in model.translates(p, q):\n    hit[t] = True\n"
                     "a = [t for t in self.translates(p, u)]\n"
                     "b = next(model.translates(y, [x]))\n"
                     "c = np.array(list(self.translates(p, q)))\n"
                     "d = model.translates(p, q)[0]\n"
                     "for row in d:\n    pass\n"
                     "def _distinct(rows):\n"
                     "    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = ABSENT\n"
                     "e[e < 0] = 0\nf[0] = ABSENT\n")
    assert _translates_loops(tree) == ["line 1", "line 3", "line 4", "line 5"]
    assert _repeat_rules(tree) == ["line 10"]


def _bindings(tree, name) -> list:
    """The lines that bind ``name`` by an assignment or define it as a function."""
    def targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        return [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []

    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
        or any(isinstance(t, ast.Name) and t.id == name for t in targets(node)))]


def _mentions(tree, name) -> list:
    """The lines that name ``name``: as a name, an attribute or an imported name."""
    return [f"line {line}" for line in sorted({
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)})]


def test_one_block_budget():
    """One entry budget bounds every blocked kernel (the convolution, the Z_N x Z_N
    Q-gathers, the pair check and envelope fitting): ``_BLOCK_ENTRIES`` and
    ``_block_items`` are bound once each, in groups, and no ``_CONVOLVE_BLOCK`` is left."""
    for name in ("_BLOCK_ENTRIES", "_block_items"):
        assert {module: len(_bindings(tree, name)) for module, tree in TREES.items()
                if _bindings(tree, name)} == {"groups": 1}, name
    assert {module: _mentions(tree, "_CONVOLVE_BLOCK") for module, tree in TREES.items()
            if _mentions(tree, "_CONVOLVE_BLOCK")} == {}


def test_block_budget_check_catches_a_leftover():
    tree = ast.parse("_BLOCK_ENTRIES = 2 ** 18\n_CONVOLVE_BLOCK = 512\n"
                     "def _block_items(entries):\n    _BLOCK_ENTRIES: int = entries\n"
                     "    return groups._CONVOLVE_BLOCK\n"
                     "from .groups import _CONVOLVE_BLOCK as block\n"
                     "x = _BLOCK_ENTRIES // block\n_BLOCK_ENTRIES += 1\n")
    assert _bindings(tree, "_BLOCK_ENTRIES") == ["line 1", "line 4", "line 8"]
    assert _bindings(tree, "_block_items") == ["line 3"]
    assert _mentions(tree, "_CONVOLVE_BLOCK") == ["line 2", "line 5", "line 6"]


# the tie certificates of a law that rounds the float sum x + a y to a cell
_SNAPPED_LAW = {"_TIE_MARGIN", "_certified_rint", "_snap_x", "_pack"}
# the affine methods that form products: each shifts cell indices, reading no x-coordinate
_INDEX_LAW = {"mul_indices", "inv_indices", "_shift", "_cell", "_left_rows", "_right_rows",
              "q_neighbourhood"}


def _defined_names(tree) -> set:
    """Every function or class ``tree`` defines, and every name its module body assigns."""
    targets = (target for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in getattr(node, "targets", [getattr(node, "target", None)]))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))} \
        | {target.id for target in targets if isinstance(target, ast.Name)}


def _coordinate_readers(tree, cls, methods) -> list:
    """Each of ``methods`` of class ``cls`` whose body reads an ``x_coords`` attribute."""
    body = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == cls).body
    return sorted(fn.name for fn in body if isinstance(fn, ast.FunctionDef) and fn.name in methods
                  and any(isinstance(node, ast.Attribute) and node.attr == "x_coords"
                          for node in ast.walk(fn)))


def test_affine_group_law_is_on_indices():
    """The affine law shifts cell indices: groups keeps no tie certificate of a snapped
    float sum, and no method that forms a product reads an x-coordinate."""
    names = _defined_names(TREES["groups"])
    assert names & _SNAPPED_LAW == set() and _INDEX_LAW <= names
    assert _coordinate_readers(TREES["groups"], "AffineGridModel", _INDEX_LAW) == []


def test_index_law_check_catches_a_leftover():
    tree = ast.parse("_TIE_MARGIN: float = 1e-6\ndef _certified_rint(c): pass\n"
                     "class AffineGridModel:\n    def _snap_x(self, x): pass\n"
                     "    def _pack(self, x, ma): pass\n"
                     "    def mul_indices(self, i, j):\n        return self.x_coords[i]\n"
                     "    def index_of(self, c):\n        return self.x_coords\n")
    assert _defined_names(tree) & _SNAPPED_LAW == _SNAPPED_LAW
    assert _coordinate_readers(tree, "AffineGridModel", _INDEX_LAW) == ["mul_indices"]


def _constructions(tree, name) -> list:
    """The lines that call ``name``, bare or as an attribute such as ``argparse.name``."""
    return [f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) == name]


def test_one_flat_cli_parser():
    """The command line is one flat parser: ``group`` and ``variant`` are its positionals,
    so cli builds one ``ArgumentParser`` and no subparser tree."""
    assert len(_constructions(TREES["cli"], "ArgumentParser")) == 1
    assert _mentions(TREES["cli"], "add_subparsers") == []


def test_flat_parser_check_catches_a_leftover():
    tree = ast.parse("def build_parser() -> argparse.ArgumentParser:\n"
                     "    parser = argparse.ArgumentParser(prog='p')\n"
                     "    sub = parser.add_subparsers(dest='group')\n"
                     "    return ArgumentParser(parents=[parser])\n")
    assert _constructions(tree, "ArgumentParser") == ["line 2", "line 4"]
    assert _mentions(tree, "add_subparsers") == ["line 3"]


_CELL_FORMS = {"DisjointCover", "cell_masses"}
_SPLITS = {f"{np}.{fn}" for np in ("np", "numpy") for fn in ("split", "array_split")}


def _cover_parts(trees) -> tuple:
    """In ``trees``: the per-cell forms each module defines, its numpy split calls, and
    ``module.function`` for every function that calls ``build_cover``."""
    cell_forms = sorted(f"{module}.{name}" for module, tree in trees.items()
                        for name in _defined_names(tree) & _CELL_FORMS)
    splits = sorted(f"{module} line {node.lineno}" for module, tree in trees.items()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and ast.unparse(node.func) in _SPLITS)
    callers = sorted({f"{module}.{fn.name}" for module, tree in trees.items()
                      for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef) and _constructions(fn, "build_cover")})
    return cell_forms, splits, callers


def test_a_cover_is_its_owner_array():
    """``build_cover`` returns the owner array: no module keeps a per-cell container or
    splits an array into cells, and the frame build, which reads tau as one weighted
    bincount of the owners, is the one caller."""
    assert _cover_parts(TREES) == ([], [], ["frames.build_almost_tight_frame"])


def test_cover_check_catches_a_leftover():
    tree = ast.parse("class DisjointCover:\n    def cell_masses(self): pass\n"
                     "def build_cover(s, u):\n    return np.split(order, ends)\n"
                     "def frame(s, u):\n    return sampling.build_cover(s, u)\n"
                     "def cells(s, u):\n    return numpy.array_split(build_cover(s, u), 3)\n")
    assert _cover_parts({"m": tree}) == (["m.DisjointCover", "m.cell_masses"],
                                         ["m line 4", "m line 8"], ["m.cells", "m.frame"])


def test_one_molecule_bound():
    """M^L Theta * M^R Phi is formed in the molecule bound and nowhere else."""
    def conv_of_left_max(node):
        return _calls("convolve")(node) and bool(node.args) \
            and isinstance(node.args[0], ast.Call) and _calls("maximal_left")(node.args[0])

    assert _callers(conv_of_left_max) == {"sampling.molecule_bound"}
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    assert sum(src.count("convolve(maximal_left(") for src in sources) == 1


def test_one_eigendecomposition_and_no_solve_in_frames():
    """phi(M) is the power series or one residual-checked eigh; frames solves no system."""
    def linalg(attr):
        return lambda node: isinstance(node, ast.Attribute) and node.attr == attr \
            and ast.unparse(node.value) == "np.linalg"

    assert _holders(linalg("eigh"), ["frames"]) == {"frames._eigh"}
    assert not any(linalg("solve")(node) for node in ast.walk(TREES["frames"]))


def test_one_identity_gap():
    """X - I is formed by the identity-gap helper only, in frames and experiments."""
    def minus_eye(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
            and isinstance(node.right, ast.Call) and ast.unparse(node.right.func) == "np.eye"

    modules = ["frames", "experiments"]
    assert _holders(minus_eye, modules) == {"frames._identity_gap"}
    assert sum(minus_eye(node) for module in modules for node in ast.walk(TREES[module])) == 1


def test_one_relaxed_series_for_every_frame():
    """The frame phi(S) path is the relaxed series: it reaches no eigh and has no cut-off."""
    frame_phi = next(fn for fn in ast.walk(TREES["frames"])
                     if isinstance(fn, ast.FunctionDef) and fn.name == "_frame_phi")
    calls = [node for node in ast.walk(frame_phi) if isinstance(node, ast.Call)]
    assert not any(_calls("_eigh")(node) for node in calls)
    (series_call,) = [node for node in calls if _calls("_series_apply")(node)]
    # the series is always summed, relaxed by fs.relaxation
    assert ast.unparse(series_call) == "_series_apply(s, phi, tail_tol, fs.relaxation)"
    assert _callers(_calls("_frame_phi")) == {"frames.dual_frame", "frames.parseval_frame"}
    assert _callers(_calls("_eigh")) == {"frames.hermitian_extremes", "frames.build_riesz_system"}
    cutoffs = [ast.unparse(node) for node in ast.walk(TREES["frames"])
               if isinstance(node, ast.Compare)
               and any(isinstance(c, ast.Constant) and c.value == 0.999
                       for c in [node.left, *node.comparators])]
    assert not cutoffs, f"frames compares against 0.999: {cutoffs}"


def test_phi_is_the_series_only():
    """_frame_phi is the relaxed series only: no tail_tol or eig parameter, no _eigh
    or eigh reached."""
    (phi,) = [fn for fn in TREES["frames"].body
              if isinstance(fn, ast.FunctionDef) and fn.name == "_frame_phi"]
    params = [arg.arg for arg in phi.args.args + phi.args.kwonlyargs]
    assert params == ["fs", "phi"]
    called = {ast.unparse(node.func) for node in ast.walk(phi) if isinstance(node, ast.Call)}
    assert "_series_apply" in called
    assert not called & {"_eigh", "np.linalg.eigh", "hermitian_extremes"}


def test_riesz_constructions_read_the_system():
    """The Gramian is formed in gramian only; the Riesz constructions take a RieszSystem."""
    assert _callers(_calls("gramian")) == {"frames.build_riesz_system"}
    for name in ("biorthogonal_system", "orthonormalize"):
        (fn,) = [fn for fn in TREES["frames"].body
                 if isinstance(fn, ast.FunctionDef) and fn.name == name]
        assert [(arg.arg, ast.unparse(arg.annotation)) for arg in fn.args.args] \
            == [("rs", "RieszSystem")]


NORMS = ("coorbit_norm", "sequence_norm", "magnitude_norm", "amalgam_norm", "lpw_norm")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _norms_per_sample(tree) -> list:
    """Norm calls inside a loop or a comprehension, and every lambda: a norm taken per sample."""
    looped = [f"{ast.unparse(node)} (line {node.lineno})"
              for loop in ast.walk(tree) if isinstance(loop, LOOPS)
              for node in ast.walk(loop)
              if isinstance(node, ast.Call) and any(_calls(name)(node) for name in NORMS)]
    return looped + [f"lambda (line {node.lineno})" for node in ast.walk(tree)
                     if isinstance(node, ast.Lambda)]


def test_coorbit_norms_take_stacks():
    """Every sup over samples measures its stack in one norm call; _ratios divides two arrays."""
    tree = TREES["coorbit"]
    assert not _norms_per_sample(tree), "coorbit.py takes a norm per sample"
    (ratios,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_ratios"]
    assert [arg.arg for arg in ratios.args.args] == ["num", "den"]


def test_per_sample_norm_check_catches_a_loop():
    tree = ast.parse("def f(ctx, fs):\n    return max(coorbit_norm(ctx, f) for f in fs)\n"
                     "def g(s):\n    return _ratios(lambda c: 1.0, s)\n")
    assert _norms_per_sample(tree) == ["coorbit_norm(ctx, f) (line 2)", "lambda (line 4)"]


def _inserts_an_axis(node) -> bool:
    """A subscript whose index holds ``None``, such as ``v[..., None]`` or ``c[:, None, :]``."""
    if not isinstance(node, ast.Subscript):
        return False
    parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(isinstance(part, ast.Constant) and part.value is None for part in parts)


def _per_row_products(tree) -> list:
    """A ``_matvecs`` binding, and each ``np.matmul`` call or ``@`` with an operand that
    inserts an axis: a stack multiplied one row at a time."""
    found = [(node.lineno, "_matvecs") for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "_matvecs"
             or isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "_matvecs" for t in node.targets)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.matmul", "numpy.matmul"):
            operands = node.args
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        else:
            continue
        if any(_inserts_an_axis(operand) for operand in operands):
            found.append((node.lineno, ast.unparse(node)))
    return [f"{text} (line {line})" for line, text in sorted(found)]


def test_a_stack_is_one_matrix_product():
    """A map over a stack of vectors is one matrix product: no module binds ``_matvecs`` or
    multiplies a stack row by row, and ``_coefficient_norm`` takes the coefficient stack
    its caller forms once, not the atoms."""
    assert {module: _per_row_products(tree) for module, tree in TREES.items()
            if _per_row_products(tree)} == {}
    assert _parameters(TREES["coorbit"], "_coefficient_norm") \
        == ["ctx", "coefficients", "sample", "f_norms"]


def test_one_product_check_catches_a_leftover():
    tree = ast.parse("def _matvecs(m, v):\n    return np.matmul(m, v[..., None])[..., 0]\n"
                     "images = np.matmul(c[:, None, :], atoms)[:, 0]\n"
                     "rows = (c[:, None, :] @ atoms)[:, 0]\n"
                     "duals = (tau[:, None] * atoms) @ s.T\n_matvecs = None\n"
                     "def _coefficient_norm(ctx, atoms, sample, f_samples, f_norms): pass\n")
    assert _per_row_products(tree) == ["_matvecs (line 1)", "np.matmul(m, v[..., None]) (line 2)",
                                       "np.matmul(c[:, None, :], atoms) (line 3)",
                                       "c[:, None, :] @ atoms (line 4)", "_matvecs (line 6)"]
    assert _parameters(tree, "_coefficient_norm") == ["ctx", "atoms", "sample", "f_samples",
                                                      "f_norms"]


def _sample_orbit_reads(tree) -> list:
    """``orbit[...]`` subscripts by a sample's ``points`` outside class KernelSystem, whose
    ``atoms(sample)`` is the one read of sample rows that checks the sample's model."""
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "KernelSystem"
              for node in ast.walk(cls)}
    return [f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and id(node) not in inside
            and isinstance(node.value, ast.Attribute) and node.value.attr == "orbit"
            and any(isinstance(n, ast.Attribute) and n.attr == "points"
                    for n in ast.walk(node.slice))]


def test_sample_rows_are_read_through_atoms():
    assert {module: _sample_orbit_reads(tree) for module, tree in TREES.items()
            if _sample_orbit_reads(tree)} == {}


def test_sample_orbit_check_catches_a_leftover():
    tree = ast.parse("a = ks.orbit[sample.points]\nb = ks.orbit[cols].T\n"
                     "class KernelSystem:\n    def atoms(self, s):\n"
                     "        return self.orbit[s.points]\n"
                     "c = fs.kernel_system.orbit[fs.sample.points[:3]]\n")
    assert _sample_orbit_reads(tree) == ["ks.orbit[sample.points] (line 1)",
                                         "fs.kernel_system.orbit[fs.sample.points[:3]] (line 6)"]


# ---------------------------------------------------------------------------
# readers: every export, public member and defaulted parameter of the package is
# reached from src/, perfbench/ or demos/, never from the tests alone

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = [ast.parse(path.read_text()) for folder in ("perfbench", "demos")
           for path in sorted((ROOT / folder).glob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Scanned(NamedTuple):
    """One walk of a reader file, shared by the three reader checks."""

    tree: ast.Module
    nodes: list  # (node, ids of the definitions enclosing it) for every node
    attributes: dict  # attribute name -> enclosing ids of each load not through a module
    calls: dict  # called name (``f(...)`` or ``x.f(...)``) -> (call, enclosing ids) pairs


def _root(node):
    """The node an attribute chain, a subscript or a call starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node


def _scan(tree) -> Scanned:
    """The nodes of ``tree``, its attribute loads and its calls, each with its enclosing
    definitions.  A load rooted at a name the file binds to a module (``np.linalg.inv``)
    is a read of the module, not of a member."""
    nodes, stack = [], [(tree, frozenset())]
    while stack:
        node, outer = stack.pop()
        nodes.append((node, outer))
        inner = outer | {id(node)} if isinstance(node, DEFINITIONS) else outer
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    modules = set()
    for node, _ in nodes:
        if isinstance(node, ast.Import):
            modules |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules |= {a.asname or a.name for a in node.names if a.name in TREES}
    attributes, calls = {}, {}
    for node, outer in nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = _root(node.value)
            if not (isinstance(root, ast.Name) and root.id in modules):
                attributes.setdefault(node.attr, []).append(outer)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            calls.setdefault(name, []).append((node, outer))
    return Scanned(tree, nodes, attributes, calls)


MODULES = [_scan(tree) for module, tree in TREES.items() if module != "__init__"]
SCRIPT_READERS = [_scan(tree) for tree in SCRIPTS]
READERS = [_scan(TREES["__init__"]), *MODULES, *SCRIPT_READERS]


def _exports() -> list:
    """The names ``coorbitkit/__init__.py`` re-exports from its modules."""
    return [alias.asname or alias.name for node in TREES["__init__"].body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _read_in_module(module: Scanned, name) -> bool:
    """A module that defines or imports ``name`` loads it outside its own definition."""
    own = {id(node) for node in module.tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name}
    imported = any(isinstance(node, ast.ImportFrom) and name in {a.asname or a.name
                                                                 for a in node.names}
                   for node in module.tree.body)
    return bool(own or imported) and any(
        isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
        and not own & outer for node, outer in module.nodes)


def _script_reads(script: Scanned) -> set:
    """Names a script imports from the package, reads off a package module (``ck.<name>``)
    or passes by name next to one, as ``wrap(tracer, frames, "voice_transform")`` does."""
    nodes = [node for node, _ in script.nodes]
    modules = {(a.asname or a.name).split(".")[0] for node in nodes
               if isinstance(node, ast.Import) for a in node.names
               if a.name.split(".")[0] == "coorbitkit"}
    imported = {a.name for node in nodes if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "coorbitkit" for a in node.names}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in modules}
    by_name = {arg.value for call in nodes if isinstance(call, ast.Call)
               for module, arg in zip(call.args, call.args[1:])
               if isinstance(module, ast.Name) and module.id in modules
               and isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    return imported | attributes | by_name


def _unread(names, modules, scripts) -> list:
    """The names no module reads (outside their own definition) and no script reaches."""
    outside = set().union(*map(_script_reads, scripts))
    return [name for name in names if name not in outside
            and not any(_read_in_module(module, name) for module in modules)]


def test_every_export_has_a_reader():
    """Each export is read in src, by perfbench or by a demo; none is there for the tests alone."""
    assert _unread(_exports(), MODULES, SCRIPT_READERS) == [], "exports nothing reads"


def test_export_reader_check_catches_a_leftover():
    module = ast.parse("from .a import helper\ndef used():\n    return helper()\n"
                       "def recursive(n):\n    return recursive(n - 1)\n"
                       "def caller():\n    return used()\ndef shadowed():\n    shadowed = 1\n")
    script = ast.parse("import coorbitkit as ck\nimport coorbitkit.frames as frames\n"
                       "from coorbitkit.frames import imported\nck.via_alias(imported)\n"
                       "wrap(frames, 'by_name')\nwrap('quoted', frames)\n")
    names = ["helper", "used", "recursive", "caller", "shadowed", "via_alias", "imported",
             "by_name", "quoted"]
    assert _unread(names, [_scan(module)], [_scan(script)]) \
        == ["recursive", "caller", "shadowed", "quoted"]


def _members(trees) -> list:
    """(``Class.name``, definition) of every public method and property of ``trees``' classes."""
    return [(f"{cls.name}.{fn.name}", fn) for tree in trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]


def _unread_members(members, files) -> list:
    """The members whose name no file reads as an attribute outside their own definition.

    Reads are matched by name, so a read of any object's ``name`` counts.
    """
    return [label for label, fn in members
            if not any(id(fn) not in outer for file in files
                       for outer in file.attributes.get(fn.name, ()))]


def test_every_public_member_has_a_reader():
    """Each public method and property is read in src, by perfbench or by a demo."""
    assert _unread_members(_members(TREES.values()), READERS) == [], "members nothing reads"


def test_member_reader_check_catches_a_leftover():
    module = ast.parse("import numpy as np\n"
                       "class A:\n    def used(self):\n        return 0\n"
                       "    def own(self):\n        return self.own\n"
                       "    def inv(self):\n        return 1\n"
                       "    @property\n    def shown(self):\n        return 2\n"
                       "    @property\n    def hidden(self):\n        return 3\n"
                       "    def _private(self):\n        return 4\n"
                       "np.linalg.inv(a.used())\n")
    script = ast.parse("import coorbitkit as ck\nprint(ck.hidden, make().shown)\n")
    assert _unread_members(_members([module]), [_scan(module), _scan(script)]) \
        == ["A.own", "A.inv", "A.hidden"]


def _functions(trees: dict) -> list:
    """(label, definition, called name, is a method) for every function in ``trees``.

    A constructor ``__init__`` is called by its class's name.
    """
    out = []
    for module, tree in trees.items():
        owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                cls = owner.get(id(fn))
                called = cls.name if cls and fn.name == "__init__" else fn.name
                out.append((f"{cls.name if cls else module}.{fn.name}", fn, called,
                            cls is not None))
    return out


def _defaulted(fn, is_method) -> list:
    """(positional index, or None if keyword-only, and name) of each defaulted parameter;
    a method's index skips ``self`` or ``cls``."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return [(i - is_method, arg.arg) for i, arg in enumerate(positional) if i >= first] \
        + [(None, arg.arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
           if default is not None]


def _passes(call, index, name) -> bool:
    """``call`` passes the parameter: by keyword, by position, or maybe by ``*`` or ``**``."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    starred = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
    return index is not None and (len(call.args) > index or bool(starred) and starred[0] <= index)


def _unpassed(functions, files, exempt=()) -> list:
    """``function.parameter`` for each default that no call in ``files`` passes outside the
    function's own definition.  Calls are matched to functions by name."""
    return [f"{label}.{name}" for label, fn, called, is_method in functions
            if fn.name not in exempt for index, name in _defaulted(fn, is_method)
            if not any(id(fn) not in outer and _passes(call, index, name)
                       for file in files for call, outer in file.calls.get(called, ()))]


def test_every_default_is_passed_somewhere():
    """Each defaulted parameter is set by a call in src, perfbench or a demo.  The runners'
    are exempt: the CLI sets them from the user's JSON."""
    runners = {runner.__name__ for runner in cli._RUNNERS.values()}
    assert _unpassed(_functions(TREES), READERS, runners) == [], "defaults nothing passes"


def test_default_check_catches_a_leftover():
    module = ast.parse("def f(a, b=1, *, c=2, d=3):\n    return f(a, 1, c=3)\n"
                       "class K:\n    def __init__(self, x, y=0):\n        pass\n"
                       "    def m(self, z=1, w=2):\n        return self.m(5)\n"
                       "def run(p=1):\n    return K(1, 2).m(**{})\n"
                       "f(0, *rest, d=4)\n")
    assert _unpassed(_functions({"mod": module}), [_scan(module)], {"run"}) == ["mod.f.c"]
