"""Import layering: Tensor is the tape's type and stays inside the tape.

model and flow build tape graphs, and training runs their reverse pass;
every other module works on plain float64 arrays. The package __init__
binds __version__ alone, so importing a module loads only what it
imports. No module takes another's private name. The synthetic
embedding stand-ins are built once, in metrics,
and every scorer reads them from there. Every output file is written
through container.replacing, and only container renames a file into
place, so a command's output set is committed in one place. No public
container reader calls another. Beyond the standard library the package
imports numpy alone.
"""

import ast
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import foleyflow

PACKAGE = Path(foleyflow.__file__).parent

# module -> the tensor names it may import (None: any)
ALLOWED = {"model": None, "flow": None, "training": {"backward"}}


def _private_imports(tree: ast.Module) -> list:
    """module.name of each private name a module takes from another
    foleyflow module: imported by name, or read off an imported module."""
    found, modules = [], {}  # modules: local name -> foleyflow module name

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("foleyflow")):
            source = (node.module or "").removeprefix("foleyflow").removeprefix(".")
            if source:
                found += [f"{source}.{a.name}" for a in node.names if private(a.name)]
            else:  # from . import metrics
                modules |= {a.asname or a.name: a.name for a in node.names}
        elif isinstance(node, ast.Import):
            prefixed = [a for a in node.names if a.asname and a.name.startswith("foleyflow.")]
            modules |= {a.asname: a.name.removeprefix("foleyflow.") for a in prefixed}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if private(node.attr):
                found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_name():
    # a private name is free to change with its module; a shared rule is public
    found = {path.stem: _private_imports(ast.parse(path.read_text(encoding="utf-8"))) for path in PACKAGE.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_import_probe_sees_every_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from .metrics import _row_dots, SHARED\n"
        "from foleyflow.container import _write as write\n"
        "from . import tensor, model as m\n"
        "from foleyflow import flow\n"
        "import foleyflow.rng as r\n"
        "import numpy as np\n"
        "x = tensor._from_op, m._declare, r._mask, flow.sample, flow.__name__, self._params, np._core\n"
    )
    assert sorted(_private_imports(tree)) == [
        "container._write", "metrics._row_dots", "model._declare", "rng._mask", "tensor._from_op"
    ]


def _tensor_imports(tree: ast.Module) -> list:
    """Names a module takes from foleyflow.tensor; "tensor" for the module itself."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = node.level == 1
            if (relative and node.module == "tensor") or (node.level == 0 and node.module == "foleyflow.tensor"):
                names += [alias.name for alias in node.names]
            elif (relative and node.module is None) or (node.level == 0 and node.module == "foleyflow"):
                names += ["tensor" for alias in node.names if alias.name == "tensor"]
        elif isinstance(node, ast.Import):
            names += ["tensor" for alias in node.names if alias.name == "foleyflow.tensor"]
    return names


def test_only_the_tape_modules_import_tensor():
    modules = {path.stem: path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "tensor"}
    assert {"cli", "refiner", "metrics", "training", "model", "flow"} <= set(modules)
    offenders = {}
    for name, path in modules.items():
        imported = _tensor_imports(ast.parse(path.read_text(encoding="utf-8")))
        allowed = ALLOWED.get(name, set())
        if allowed is not None and not set(imported) <= allowed:
            offenders[name] = sorted(set(imported) - allowed)
    assert offenders == {}


# tensor exports without a caller in the program. perfbench's
# test_tracer_skips_deleted_names_and_counts_new_op_kinds still calls them,
# so they go with the next change to the benchmark.
UNCALLED_TENSOR_NAMES = {"elementwise", "softmax", "transpose"}


def _loaded_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_tensor_export_is_used_by_the_program():
    # used: read inside tensor itself, or imported by a module that builds
    # or runs the tape; an op only tests call is dead weight on the engine
    from foleyflow import tensor

    def tree(name):
        return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))

    used = _loaded_names(tree("tensor"))
    for name in ("model", "flow", "training"):
        used |= set(_tensor_imports(tree(name)))
    assert set(tensor.__all__) - used == UNCALLED_TENSOR_NAMES


def _definitions_used(trees: dict) -> set:
    """(module, name) of each top-level function or class that a module
    loads: its own module outside the definition, a module that imports
    the name and loads it, or a module that reads it as module.name."""
    used = set()
    for module, tree in trees.items():
        loaded = _loaded_names(tree)
        per_statement = [(node, _loaded_names(node)) for node in tree.body]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if any(node.name in names for other, names in per_statement if other is not node):
                    used.add((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used |= {(node.module, a.name) for a in node.names if (a.asname or a.name) in loaded}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
    return used


def test_every_definition_has_a_caller_in_the_program():
    # a function or class that only tests reach is a second path to keep
    # right; the tensor exports above wait for the benchmark's next change
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    uncalled = {("tensor", name) for name in UNCALLED_TENSOR_NAMES}
    assert defined - _definitions_used(trees) == uncalled


def test_caller_probe_sees_every_use_form():
    trees = {
        "a": ast.parse("def f(): return g()\ndef g(): return 1\ndef lone(): return lone()\nclass K: pass\n"),
        "b": ast.parse("from .a import K\nfrom . import a\nx = K()\ny = a.f\n"),
        "c": ast.parse("from .a import lone\n"),
    }
    assert _definitions_used(trees) >= {("a", "f"), ("a", "g"), ("a", "K")}
    assert ("a", "lone") not in _definitions_used(trees)


def test_name_probe_sees_loads_only():
    tree = ast.parse("def f(a):\n    b = a.transpose()\n    return g(b)\n")
    assert _loaded_names(tree) == {"a", "g", "b"}


def _reaches(tree: ast.Module) -> dict:
    """Name of each top-level function -> the module's top-level functions
    it calls, directly or through others."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    direct = {name: _loaded_names(node) & defs.keys() for name, node in defs.items()}
    reached = {}
    for name in defs:
        seen, todo = set(), list(direct[name])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo += direct[callee]
        reached[name] = seen
    return reached


def test_no_public_container_reader_calls_another():
    # perfbench sums container.read* calls by name prefix, so a reader that
    # called another would count that file's bytes and time twice
    reached = _reaches(ast.parse((PACKAGE / "container.py").read_text(encoding="utf-8")))
    readers = {name for name in reached if name.startswith("read")}
    assert readers == {"read_checkpoint", "read_latents"}
    assert {name: sorted(reached[name] & readers - {name}) for name in readers} == {name: [] for name in readers}


def _model_references(tree: ast.Module) -> list:
    """"model" for each import of foleyflow.model, in any form, and each
    string constant that equals a ModelConfig field name."""
    from foleyflow.model import ModelConfig

    names = {f.name for f in fields(ModelConfig)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level == 1 and node.module == "model") or (node.level == 0 and node.module == "foleyflow.model"):
                found.append("model")
            elif (node.level == 1 and node.module is None) or (node.level == 0 and node.module == "foleyflow"):
                found += ["model" for alias in node.names if alias.name == "model"]
        elif isinstance(node, ast.Import):
            found += ["model" for alias in node.names if alias.name == "foleyflow.model"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names:
            found.append(node.value)
    return found


def test_container_knows_nothing_of_the_model_config():
    # a checkpoint's config record is a run of ints; ModelConfig alone says
    # which field each one is, so the format never lists them a second time
    assert _model_references(ast.parse((PACKAGE / "container.py").read_text(encoding="utf-8"))) == []


def test_model_reference_probe_sees_every_form():
    tree = ast.parse(
        "from .model import ModelConfig\n"
        "from . import model\n"
        "from foleyflow.model import fields\n"
        "import foleyflow.model\n"
        "from . import rng\n"
        "x = ('d_model', 'n_heads ', b't_audio')\n"
        "y = f'{x}: t_audio'\n"
    )
    assert _model_references(tree) == ["model", "model", "model", "model", "d_model"]


def test_reach_probe_sees_calls_through_helpers():
    tree = ast.parse(
        "def read_a(): return _h()\n"
        "def _h(): return _g(read_b)\n"
        "def _g(f): return f()\n"
        "def read_b(): return read_b()\n"
        "def read_c(): return len([])\n"
    )
    assert _reaches(tree) == {
        "read_a": {"_h", "_g", "read_b"},
        "_h": {"_g", "read_b"},
        "_g": set(),
        "read_b": {"read_b"},
        "read_c": set(),
    }


def _fresh_interpreter(code: str) -> str:
    """stdout of code run in a new interpreter, so nothing this process imported counts."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_array_modules_load_without_the_tape():
    tape = ["foleyflow.tensor", "foleyflow.model", "foleyflow.flow", "foleyflow.training"]
    for module in ("foleyflow.container", "foleyflow.metrics", "foleyflow.datapipe"):
        loaded = _fresh_interpreter(f"import sys, {module}; print(sorted(set({tape!r}) & set(sys.modules)))")
        assert (module, loaded) == (module, "[]")
    # the package binds no public name beside __version__
    public = "import foleyflow; print(foleyflow.__version__, [n for n in vars(foleyflow) if not n.startswith('_')])"
    assert _fresh_interpreter(public) == f"{foleyflow.__version__} []"


def test_probe_sees_every_import_form():
    tree = ast.parse(
        "from .tensor import Tensor\n"
        "from . import tensor\n"
        "from foleyflow.tensor import backward\n"
        "import foleyflow.tensor\n"
        "from .model import ConditionBundle\n"
    )
    assert _tensor_imports(tree) == ["Tensor", "tensor", "backward", "tensor"]


def _embedder_constructions(tree: ast.Module) -> int:
    """Calls of SyntheticEmbedder, by bare name or as a module attribute."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            count += name == "SyntheticEmbedder"
    return count


def test_only_metrics_constructs_the_stand_ins():
    counts = {
        name: _embedder_constructions(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))
        for name in ("metrics", "cli", "refiner", "datapipe")
    }
    assert counts["metrics"] > 0
    assert {name: n for name, n in counts.items() if name != "metrics" and n} == {}


def test_embedder_probe_sees_every_call_form():
    tree = ast.parse(
        "a = SyntheticEmbedder('x', 2)\n"
        "b = providers.SyntheticEmbedder('y', 2)\n"
        "c = metrics.SHARED.embed(z)\n"
    )
    assert _embedder_constructions(tree) == 2


def _writes(tree: ast.Module) -> list:
    """Source of each call that writes or renames a file: open (builtin,
    io, os or a Path's) with a w, x or a mode or a mode that is not a
    literal, .write_text or .write_bytes, os.replace, os.rename,
    shutil.move, and a Path's .replace or .rename (one positional
    argument, where str.replace takes two)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
        if name in ("write_text", "write_bytes") or (owner, name) == ("shutil", "move"):
            found.append(ast.unparse(node))
        elif name in ("replace", "rename") and isinstance(func, ast.Attribute):
            if owner == "os" or (len(node.args) == 1 and not node.keywords):
                found.append(ast.unparse(node))
        elif name in ("open", "fdopen"):
            # io.open(path, mode) and os.open(path, flags) take the path first, Path.open(mode) does not
            index = 1 if isinstance(func, ast.Name) or owner in ("io", "os", "builtins") else 0
            mode = next((kw.value for kw in node.keywords if kw.arg in ("mode", "flags")), None)
            if mode is None and len(node.args) > index:
                mode = node.args[index]
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wxa"):
                found.append(ast.unparse(node))
    return found


def test_only_container_writes_files():
    # the one file written in place is train's events.log, a stream a
    # diverged run keeps up to its failing step
    writes = {
        path.stem: _writes(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "container"
    }
    assert {name: found for name, found in writes.items() if found} == {"cli": ["open(log_path, 'w', encoding='utf-8')"]}


def test_write_probe_sees_every_call_form():
    tree = ast.parse(
        "open(p, 'w')\n"
        "open(p, mode='ab')\n"
        "open(p, 'x', encoding='utf-8')\n"
        "open(p, chosen)\n"
        "io.open(p, 'w+')\n"
        "os.fdopen(fd, 'wb')\n"
        "os.open(p, os.O_WRONLY | os.O_CREAT)\n"
        "Path(p).open('w')\n"
        "p.open(mode='a')\n"
        "Path(p).write_text(s)\n"
        "p.write_bytes(b)\n"
        "os.replace(a, b)\n"
        "os.rename(a, b)\n"
        "shutil.move(a, b)\n"
        "Path(a).replace(b)\n"
        "p.rename(b)\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "io.open(p, encoding='utf-8')\n"
        "Path(p).open()\n"
        "p.open('r')\n"
        "Path(p).read_text()\n"
        "out.write(s)\n"
        "key.replace('_', '-')\n"
        "replace(record, parse_problems=())\n"
        "moment.replace(year=2000)\n"
    )
    assert _writes(tree) == [
        "open(p, 'w')",
        "open(p, mode='ab')",
        "open(p, 'x', encoding='utf-8')",
        "open(p, chosen)",
        "io.open(p, 'w+')",
        "os.fdopen(fd, 'wb')",
        "os.open(p, os.O_WRONLY | os.O_CREAT)",
        "Path(p).open('w')",
        "p.open(mode='a')",
        "Path(p).write_text(s)",
        "p.write_bytes(b)",
        "os.replace(a, b)",
        "os.rename(a, b)",
        "shutil.move(a, b)",
        "Path(a).replace(b)",
        "p.rename(b)",
    ]


def _foreign_imports(tree: ast.Module) -> list:
    """Top-level names of imported modules outside the standard library, numpy and foleyflow."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
    allowed = sys.stdlib_module_names | {"numpy", "foleyflow"}
    return [name for name in names if name not in allowed]


def test_package_imports_numpy_and_the_standard_library_only():
    offenders = {
        path.stem: _foreign_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_dependency_probe_sees_every_import_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math, json\n"
        "import numpy as np\n"
        "from . import tensor\n"
        "from foleyflow.errors import FormatError\n"
        "import scipy.signal\n"
        "from scipy.signal import find_peaks\n"
    )
    assert _foreign_imports(tree) == ["scipy", "scipy"]


def _defaults(trees: dict) -> list:
    """(module, name, callee, parameter, position) of each parameter default
    of a function or method. name is Class.method for a method; callee is
    the name its calls use: the class for __init__ and __new__, else its own
    name. position counts after a method's self or cls, and is None for a
    keyword-only parameter."""
    found = []

    def visit(node, module, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                bound = cls is not None and not static
                callee = cls if bound and child.name in ("__init__", "__new__") else child.name
                name = f"{cls}.{child.name}" if cls is not None else child.name
                first = len(positional) - len(args.defaults)
                for i, param in enumerate(positional[first:], start=first - bound):
                    found.append((module, name, callee, param.arg, i))
                for param, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((module, name, callee, param.arg, None))
                visit(child, module, None)
            else:
                visit(child, module, cls)

    for module, tree in trees.items():
        visit(tree, module, None)
    return found


def _call_forms(trees: dict) -> list:
    """(callee, positional count, keyword names) of each call. The callee is
    the called name or attribute, the class itself for cls(...) in its body,
    and "__call__" for any other expression, such as blocks[i](...). A *
    argument may fill every position, and a ** argument (None among the
    keywords) every keyword."""
    forms = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                callee = cls if func.id == "cls" and cls is not None else func.id
            else:
                callee = func.attr if isinstance(func, ast.Attribute) else "__call__"
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            forms.append((callee, math.inf if starred else len(node.args), {kw.arg for kw in node.keywords}))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for tree in trees.values():
        visit(tree, None)
    return forms


def _never_omitted(defined: dict, callers: dict) -> set:
    """(module, name, parameter) of each default in defined that no call in
    callers leaves to its default."""
    forms = _call_forms(callers)
    return {
        (module, name, param)
        for module, name, callee, param, position in _defaults(defined)
        if not any(
            called == callee and param not in keywords and None not in keywords
            and (position is None or position >= count)
            for called, count, keywords in forms
        )
    }


# defaults that only perfbench omits: it must keep running parent commits,
# so they go with the next change to the benchmark
KEPT_FOR_PERFBENCH = {("training", "run_curriculum", "sink"), ("tensor", "matmul", "bias")}


def test_every_default_is_left_to_itself_by_some_call():
    # a default that every call passes is a second form that only tests use
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    bench = {
        str(path): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted([*perfbench.glob("*.py"), *perfbench.glob("tests/*.py")])
    }
    assert bench
    assert _never_omitted(program, program) == KEPT_FOR_PERFBENCH
    assert _never_omitted(program, {**program, **bench}) == set()


def test_default_probe_sees_every_call_form():
    defined = {
        "a": ast.parse(
            "def f(x, y=1, *, z=2): pass\n"
            "class K:\n"
            "    def __init__(self, v=0): pass\n"
            "    def m(self, w=1): pass\n"
            "    def __call__(self, u=None): pass\n"
            "    @staticmethod\n"
            "    def s(t=0): pass\n"
        )
    }
    every = {("a", "f", "y"), ("a", "f", "z"), ("a", "K.__init__", "v"), ("a", "K.m", "w"),
             ("a", "K.__call__", "u"), ("a", "K.s", "t")}

    def never(calls: str) -> set:
        return _never_omitted(defined, {"b": ast.parse(calls)})

    assert never("") == every
    assert never("f(0, 1)") == every - {("a", "f", "z")}  # positional
    assert never("f(0, z=3)") == every - {("a", "f", "y")}  # keyword
    assert never("mod.f(0)") == every - {("a", "f", "y"), ("a", "f", "z")}
    assert never("f(*xs)") == every - {("a", "f", "z")}  # a * may fill y, never the keyword-only z
    assert never("f(0, **kw)") == every  # a ** may fill both
    assert never("K()\nK(1)\nk.m(1)\nK.s()") == every - {("a", "K.__init__", "v"), ("a", "K.s", "t")}
    assert never("blocks[0](x)") == every  # the one argument fills u
    assert never("make()()") == every - {("a", "K.__call__", "u")}
    assert never("class K:\n    @classmethod\n    def make(cls):\n        return cls()\n") == every - {
        ("a", "K.__init__", "v")
    }
