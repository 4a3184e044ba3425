"""Source checks that need no CI runner."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import tightmaps

PACKAGE = Path(tightmaps.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACE_CHILD = ROOT / "benchmarks" / "trace_child.py"
README = ROOT / "README.md"
WORKFLOWS = ROOT / ".github" / "workflows"


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips asserts, so exactness checks must raise explicitly
    found = []
    for path, tree in _package_trees():
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_no_package_module_expands_a_multiset():
    # a branching is (factor, copies) pairs; Counter.elements() would write
    # one entry per copy again
    found = [
        f"{path.name}:{n.lineno}"
        for path, tree in _package_trees()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "elements"
    ]
    assert found == []


def test_no_package_module_peels_strings():
    # branching divides the Weyl numerator; the string peel of the Freudenthal
    # evaluation multiset is only the oracle in tests/test_branching.py
    found = [
        f"{path.name}:{n.lineno}"
        for path, tree in _package_trees()
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "_peel_strings"
    ]
    assert found == []


def test_no_package_module_converts_fraction_pairings():
    # su(1,1) pairings reach the class maps as doubled ints over denominator
    # 1; the Fraction-matrix adapter is only a helper in tests/test_kahler.py
    # nor through the central element: a doubled pairing is a positive-block
    # sum, and the central-element helpers are the oracle in tests/test_su11.py
    gone = {"class_map", "_integral", "_pair_with_z", "tensor_factor_pairings",
            "_scaled_z_element", "diagonal_disc_z", "_doubled_pairing", "_in_tensor_basis"}
    found = [
        f"{path.name}:{n.lineno}"
        for path, tree in _package_trees()
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name in gone
    ]
    assert found == []


def test_no_package_module_runs_freudenthal():
    # the character is the Weyl numerator divided by every positive root;
    # Freudenthal's recursion, with its orbit sizes and Weyl-image rows, is
    # only the oracle in tests/test_rootsys.py
    oracle_only = {"orbit_size", "dominant_multiplicities", "coroot_images", "_dominant_depths"}
    found, table_calls = [], set()
    for path, tree in _package_trees():
        for n in ast.walk(tree):
            name = getattr(n, "name", None) or getattr(n, "id", None) or getattr(n, "attr", None)
            if name in oracle_only:
                found.append(f"{path.name}:{n.lineno}")
            if isinstance(n, ast.FunctionDef) and n.name == "_multiplicity_table":
                table_calls = {getattr(c.func, "id", None) for c in ast.walk(n)
                               if isinstance(c, ast.Call)}
    assert found == []
    assert {"_weyl_numerator", "_divide"} <= table_calls


def _reachable_loads(modules, start):
    """Module-level definitions of the package ``modules``, as one table, that
    ``start`` reaches through the names their bodies load, and every name those
    bodies load; ``rank2._class_map`` loads ``_class_map`` when ``rank2`` is
    one of the ``modules``."""
    defs = {}
    for module in modules:
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.Assign):
                defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    reached, loaded, todo = set(), set(), [start]
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        names = {n.id for n in _loads(defs[name]) if isinstance(n, ast.Name)}
        names |= {n.attr for n in _loads(defs[name])
                  if isinstance(n, ast.Attribute) and _dotted(n.value) in modules}
        loaded |= names
        todo += names
    return reached, loaded


def test_the_constructive_route_uses_none_of_the_theorem_route():
    # the two routes stay independent: the constructive verdicts come from
    # witnesses and class maps, and only classify and cross_check compare them.
    # The route's branching half is in rank2, so both modules are one table
    modules = ("classify", "rank2")
    reached, loaded = _reachable_loads(modules, "constructive_verdict")
    theorem = {"theorem_tight", "_pair_tight_rule", "HOLOMORPHIC_WEIGHTS", "RouteDisagreement"}
    assert loaded & theorem == set()
    assert {"_certificate", "_class_map", "_branching"} <= reached
    assert {"theorem_tight", "RouteDisagreement"} <= _reachable_loads(modules, "classify")[1]
    # one route for every algebra: no per-algebra function, no dispatch table
    bodies = [ast.parse((PACKAGE / f"{m}.py").read_text()).body for m in modules]
    defined = {n.name for body in bodies for n in body if isinstance(n, ast.FunctionDef)}
    defined |= {t.id for body in bodies for n in body if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)}
    assert [name for name in defined if name.startswith("_constructive")] == []
    assert "_CONSTRUCTIVE" not in defined


def test_submodule_import_yields_the_module():
    import tightmaps.classify as module

    assert module.__name__ == "tightmaps.classify"


def _layer_functions():
    """The bench harness's wrapped names, ``{module: (name, ...)}``."""
    tree = ast.parse(TRACE_CHILD.read_text(), filename=str(TRACE_CHILD))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"]
    ]
    return layers


def test_traced_layer_functions_exist():
    # the bench harness wraps these names by getattr; a missing one would
    # only surface in a traced bench run
    layers = _layer_functions()
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not hasattr(importlib.import_module(f"tightmaps.{layer}"), name)
    ]
    assert layers and missing == []


def _is_abs_call(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "abs"


def test_one_copy_of_the_disc_criterion():
    # |pairing| == |disc value| is decided in classify._pairing_verdict alone
    found = [
        f"{path.name}:{n.lineno}"
        for path, tree in _package_trees()
        for n in ast.walk(tree)
        if isinstance(n, ast.Compare)
        and isinstance(n.ops[0], ast.Eq)
        and _is_abs_call(n.left)
        and _is_abs_call(n.comparators[0])
    ]
    assert len(found) == 1, found


def _imported_modules(node):
    """Modules an import statement names; a package module by its bare name
    however it is spelled (``.su11``, ``tightmaps.su11``, ``from . import su11``)."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module in (None, "tightmaps"):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module]
    else:
        return []
    return [name.removeprefix("tightmaps.") for name in names]


def _imports_of(module, files=None):
    """Where package modules (or just ``files``) import ``module`` or from it."""
    return [
        f"{path.name}:{n.lineno}"
        for path, tree in _package_trees()
        if files is None or path.name in files
        for n in ast.walk(tree)
        if module in _imported_modules(n)
    ]


def test_no_package_module_imports_dataclasses():
    # records are collections.namedtuple classes: importing dataclasses (and
    # the inspect module it pulls in) and exec-ing each decorated class's
    # generated methods are start-up costs that every fresh command would pay
    assert _imports_of("dataclasses") == []


def test_no_package_module_imports_typing_or_fractions_at_import():
    # typing.NamedTuple compiles every annotation of a record, and fractions
    # pulls in decimal and numbers; no command makes a Fraction, so none pays
    # for either.  Only the Fraction-valued library functions of su11 and
    # kahler import fractions, inside the function that makes one
    assert _imports_of("typing") == []
    assert [path.name for path, _ in _package_trees() if "NamedTuple" in path.read_text()] == []
    top_level = [path.name for path, tree in _package_trees()
                 for n in tree.body if "fractions" in _imported_modules(n)]
    assert top_level == []
    assert len(_imports_of("fractions")) > 1  # the check can see the others


def test_rootsys_and_branching_import_nothing_from_fractions():
    # roots and weights are integer tuples there; a rational in the kernel
    # would be a second arithmetic representation
    assert _imports_of("fractions", ("rootsys.py", "branching.py")) == []
    assert _imports_of("fractions", ("su11.py",)) != []  # the check can see one


def test_branching_imports_nothing_from_su11():
    # a branching holds sl2 highest weights only; the signatures of its
    # factors are read from su11 by the branch command, when it writes them
    assert _imports_of("su11", ("branching.py",)) == []
    assert _imports_of("su11", ("classify.py", "cli.py")) != []  # the check can see one


def _fresh(code):
    """Standard output of ``code`` run by a fresh interpreter.  ``-S`` skips
    ``site``, whose ``.pth`` files may import modules (``certifi`` loads
    ``random``, say) that the program itself does not."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    ))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, tightmaps.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert _fresh(code) == "[]"


def test_fresh_cli_import_loads_neither_typing_nor_fractions():
    code = (
        "import sys, tightmaps.cli\n"
        "print(sorted({'typing', 'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    )
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("command", [
    "classify --algebra su11 --weight 3",
    "classify --algebra su11xsu11 --weight 1,2",
    "classify --algebra sp4 --weight 1,0",
    "classify --algebra sp4su11 --weight 0,0,3",
    "classify --algebra su21 --weight 0,1",
    # the sweeps of the three bench workloads
    "sweep --algebra sp4 --max 8",
    "sweep --algebra su21 --max 9",
    "sweep --algebra sp4su11 --max 6",
    "sweep --algebra su11xsu11 --max 16",
    "branch --algebra sp4 --weight 4,4 --sub a1+a2",
    "verify kahler-lemmas",
    "verify lemma-bla",
    # beyond the acceptance bounds, where each command runs both routes on
    # every row, replays every witness and exits 3 on a disagreement
    "sweep --algebra sp4 --max 40 --format json",
    "sweep --algebra su21 --max 60 --format json",
    "sweep --algebra sp4su11 --max 32 --format json",
    "classify --algebra sp4 --weight 240,240 --format json",
    # su(1,1) models of degree about 2e6 and 2e7, and a tensor product of
    # dimension about 4e6, pair through their block sums in constant memory
    "classify --algebra su11 --weight 2000001 --format json",
    "classify --algebra su11 --weight 20000001 --format json",
    "classify --algebra su11xsu11 --weight 2001,2000 --format json",
])
def test_only_commands_that_make_a_fraction_load_fractions(command):
    # no command makes one: verdicts are decided in integers, su(1,1)
    # pairings stay doubled ints up to the wire, and every rational a report
    # prints is written by errors.ratio
    code = (
        "import contextlib, io, sys, tightmaps.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({command.split()!r})\n"
        "print(code, sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    )
    assert _fresh(code) == "0 []"


def test_fresh_cli_import_loads_every_traced_layer():
    # the bench harness takes each layer module from sys.modules after
    # `import tightmaps.cli`; a layer loaded later would fail a traced run
    layers = _layer_functions()
    code = (
        "import sys, tightmaps.cli\n"
        f"layers = {layers!r}\n"
        "print(sorted(f'{layer}.{name}' for layer, names in layers.items() for name in names\n"
        "             if not hasattr(sys.modules.get(f'tightmaps.{layer}'), name)))"
    )
    assert layers and _fresh(code) == "[]"


_LAYERS = {"rootsys", "branching", "su11", "kahler", "classify", "rank2"}


@pytest.mark.parametrize("command,ran", [
    ("", set()),  # the import alone
    ("classify --algebra su11 --weight 3", {"classify", "su11"}),
    ("sweep --algebra su11xsu11 --max 3", {"classify", "su11"}),
    ("verify kahler-lemmas", {"kahler", "lemmas"}),
    ("sweep --algebra sp4 --max 2", _LAYERS),
    ("verify lemma-bla", {"lemmas"}),
    ("sweep --algebra sp4su11 --max 2", _LAYERS),
    ("classify --algebra su21 --weight 1,0", _LAYERS),
    ("classify --algebra sp4su11 --weight 0,0,3", {"classify", "su11"}),
])
def test_each_command_runs_only_the_layers_it_uses(command, ran):
    # every layer is in sys.modules from the start, but a lazy one is a
    # placeholder until its first attribute read runs it; type() reads none.
    # The su(1,1) models decide a weight that is zero on any rank-two factor,
    # so rank2, and the layers only it reads, stay unrun; a rank-two top
    # branches, and a tight row builds its class map
    code = (
        "import contextlib, io, sys, types, tightmaps.cli as cli\n"
        f"argv = {command.split()!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(argv) if argv else 0\n"
        "modules = {k.removeprefix('tightmaps.'): m for k, m in sys.modules.items()\n"
        "           if k.startswith('tightmaps.')}\n"
        "print(code, sorted(k for k, m in modules.items() if type(m) is types.ModuleType),\n"
        "      sorted(modules))"
    )
    every = sorted(_LAYERS | {"cli", "errors"} | ({"lemmas"} & ran))
    assert _fresh(code) == f"0 {sorted(ran | {'cli', 'errors'})} {every}"


@pytest.mark.parametrize("path,layer", [
    ("classify.py", "rootsys"), ("classify.py", "rank2"), ("lemmas.py", "kahler"),
    ("rank2.py", "rootsys"), ("rank2.py", "branching"), ("rank2.py", "kahler"),
    ("rank2.py", "su11"),
])
def test_layer_is_read_as_a_module_where_a_command_may_skip_it(path, layer):
    # a module-level `from .rootsys import weight` runs rootsys when classify
    # runs, so the rank-one commands would compile a root system; `from .rank2
    # import ...` would compile the branching half on them too; and `from
    # .kahler import ...` would run kahler on `verify lemma-bla`.  rank2 reads
    # its layers as modules too, so a function the bench harness (or a test)
    # rebinds there, `branching.restrict_rep` say, is the one it calls
    body = ast.parse((PACKAGE / path).read_text()).body
    froms = [(n.module or "").removeprefix("tightmaps.") for n in body
             if isinstance(n, ast.ImportFrom)]
    as_module = [a.name for n in body if isinstance(n, ast.ImportFrom) and not n.module
                 for a in n.names]
    assert layer not in froms and layer in as_module


@pytest.mark.parametrize("command,loaded", [
    ("", False),  # the import alone
    ("classify --algebra su11 --weight 3", False),
    ("sweep --algebra sp4 --max 2", False),
    ("branch --algebra sp4 --weight 1,1 --sub a1+a2", False),
    ("verify kahler-lemmas", True),
    ("verify lemma-bla", True),
])
def test_only_verify_loads_the_batteries(command, loaded):
    # the lemma fixtures, the lemma-bla system and `random` are compiled and
    # imported by the command that runs them, not by every start-up
    code = (
        "import contextlib, io, sys, tightmaps.cli as cli\n"
        f"argv = {command.split()!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(argv) if argv else 0\n"
        "print(code, sorted({'random', 'tightmaps.lemmas'} & set(sys.modules)))"
    )
    assert _fresh(code) == f"0 {['random', 'tightmaps.lemmas'] if loaded else []}"


def test_traced_kahler_functions_count_every_battery_call(monkeypatch, capsys):
    # the bench harness rebinds each wrapped name in every loaded package
    # module before the command runs; the battery module, imported after
    # that, must reach the wrappers
    from tightmaps import cli, kahler

    monkeypatch.delitem(sys.modules, "tightmaps.lemmas", raising=False)
    monkeypatch.delattr(tightmaps, "lemmas", raising=False)
    calls = Counter()

    def traced(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    package = [mod for key, mod in sys.modules.items()
               if key == "tightmaps" or key.startswith("tightmaps.")]
    for name in ("run_lemma_fixtures", "compose"):
        original = getattr(kahler, name)
        wrapper = traced(name, original)
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    assert cli.main(["verify", "kahler-lemmas", "--format", "json"]) == 0
    assert '"agreement": true' in capsys.readouterr().out
    # 25 rounds, each composing in four middle-factor and one strict-positive
    # fixture, which composes twice
    assert calls == {"run_lemma_fixtures": 1, "compose": 25 * 6}


def test_no_record_is_rebuilt_past_its_validation():
    # NamedTuple._replace and ._make build through tuple.__new__, skipping
    # the raises in a validated record's __new__
    found = [
        f"{path.name}:{n.lineno}"
        for path, tree in _package_trees()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("_replace", "_make")
    ]
    assert found == []


def _public_api():
    """``module.name`` entries of the README's public-API list."""
    section = README.read_text().split("### Public API", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^- `(\w+\.\w+)`", section, re.MULTILINE))


def _readme_witness_schema():
    """``{kind: (fields, algebras, certifies tight)}`` read off the README's
    witness-kind table, whose rows end in 'yes' or 'no'."""
    table = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0][:1] == "`" and cells[3] in ("yes", "no"):
            (kind,), fields, algebras = (tuple(re.findall(r"`(\w+)`", c)) for c in cells[:3])
            table[kind] = (fields, algebras, cells[3] == "yes")
    return table


def test_every_check_is_a_test_and_no_workflow_makes_one():
    # `python -m pytest` is the one runner: a digest pinned, or a command
    # run, in a workflow alone would be a check no local run makes
    workflows = {path.name: path.read_text() for path in sorted(WORKFLOWS.glob("*.y*ml"))}
    assert "tier1.yml" in workflows
    assert [name for name, text in workflows.items() if re.search("[0-9a-fA-F]{64}", text)] == []
    assert [name for name, text in workflows.items()
            if re.search(r"python[0-9.]* -m tightmaps", text)] == []
    jobs = re.split(r"(?m)^(?=\S)", workflows["tier1.yml"].split("\njobs:\n", 1)[1])[0]
    assert re.findall(r"(?m)^  ([^\s#][^:]*):", jobs) == ["tests"]


def test_readme_witness_table_is_the_schema():
    # the README's copy of classify.WITNESS_SCHEMA, row for row
    from tightmaps.classify import WITNESS_SCHEMA

    assert _readme_witness_schema() == {kind: tuple(row) for kind, row in WITNESS_SCHEMA.items()}


def _loads(node):
    return [n for n in ast.walk(node) if isinstance(getattr(n, "ctx", None), ast.Load)]


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _module_handles(tree, module):
    """How ``tree`` reaches the functions of the package module ``module``:
    ``{local name: function}`` for the names it imports from the module, and
    the dotted names bound to the module itself (``kahler``, an alias, or
    ``tightmaps.kahler``)."""
    names, handles = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "tightmaps"):
            handles |= {a.asname or a.name for a in node.names if a.name == module}
        elif isinstance(node, ast.ImportFrom) and node.module.removeprefix("tightmaps.") == module:
            names |= {a.asname or a.name: a.name for a in node.names}
        elif isinstance(node, ast.Import):
            handles |= {a.asname or a.name for a in node.names if a.name == f"tightmaps.{module}"}
    return names, handles


def _read_from_elsewhere(trees, path):
    """Names of ``path``'s module that the other package modules read: by a
    name imported from it, or as an attribute of the imported module."""
    found = set()
    for other_path, other in trees:
        if other_path == path:
            continue
        names, handles = _module_handles(other, path.stem)
        for n in _loads(other):
            if isinstance(n, ast.Name) and n.id in names:
                found.add(names[n.id])
            elif isinstance(n, ast.Attribute) and _dotted(n.value) in handles:
                found.add(n.attr)
    return found


def _uncalled_functions(trees, public, layers):
    """Module-level functions that nothing in the package can reach: no other
    top-level statement of their module reads the name, no other module reads
    it through an import of it or of its module, and neither the public-API
    list nor the bench harness's wrapped names account for it."""
    uncalled = []
    for path, tree in trees:
        elsewhere = _read_from_elsewhere(trees, path)
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            at_home = any(
                isinstance(n, ast.Name) and n.id == node.name
                for other in tree.body if other is not node
                for n in _loads(other)
            )
            name = f"{path.stem}.{node.name}"
            if not (at_home or node.name in elsewhere or name in public
                    or node.name in layers.get(path.stem, ())):
                uncalled.append(name)
    return uncalled


@pytest.mark.parametrize(
    "home,user,uncalled",
    [
        ("", "def g():\n    f = 1\n    return f\n", ["a.f"]),  # a local of that name
        ("", "def g(x):\n    return x.f()\n", ["a.f"]),  # an attribute of another value
        ("", "import a\ndef g():\n    return a.f()\n", ["a.f"]),  # not the package's a
        ("def h():\n    return f\n", "", []),
        ("def h():\n    f = 1\n", "", ["a.f"]),  # a store is no read
        ("", "from .a import f\ndef g():\n    return f()\n", []),
        ("", "from tightmaps.a import f as k\ndef g():\n    return k()\n", []),
        ("", "from . import a\ndef g():\n    return a.f()\n", []),
        ("", "import tightmaps.a\ndef g():\n    return tightmaps.a.f()\n", []),
    ],
)
def test_a_caller_counts_only_where_it_reaches_the_function(home, user, uncalled):
    trees = [
        (Path("a.py"), ast.parse("def f():\n    return f\n" + home)),
        (Path("b.py"), ast.parse(user)),
    ]
    found = _uncalled_functions(trees, set(), {})
    assert [name for name in found if name == "a.f"] == uncalled


def test_every_module_function_has_a_caller_or_is_public():
    # library code that nothing calls, the bench does not wrap and the
    # README does not offer is dead weight that every command compiles
    public = _public_api()
    assert public
    assert _uncalled_functions(list(_package_trees()), public, _layer_functions()) == []
    missing = [
        entry for entry in public
        if not hasattr(importlib.import_module(f"tightmaps.{entry.split('.')[0]}"),
                       entry.split(".")[1])
    ]
    assert missing == []


def test_cli_finishes_every_report_in_main():
    # one report path: main alone reads the clock, writes the report and
    # picks the exit code, and a command handler only builds its report
    tree = ast.parse((PACKAGE / "cli.py").read_text())

    def sites(match):
        return [
            getattr(node, "name", node.lineno)
            for node in tree.body
            for n in ast.walk(node)
            if match(n)
        ]

    codes = {"OK", "USAGE_ERROR", "VALIDATION_ERROR", "VERIFICATION_FAILURE"}
    assert sites(lambda n: isinstance(n, ast.Call) and _dotted(n.func) == "_emit") == ["main"]
    # one measurement: a clock read on each side of args.run(args)
    assert sites(lambda n: "perf_counter" in (getattr(n, "id", None), getattr(n, "attr", None))) \
        == ["main", "main"]
    assert set(sites(
        lambda n: isinstance(n, ast.Return) and n.value is not None
        and any(isinstance(m, ast.Name) and m.id in codes for m in ast.walk(n.value))
    )) == {"main"}
