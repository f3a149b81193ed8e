"""Import layering: Tensor is the tape's type and stays inside the tape.

model and flow build tape graphs, and training runs their reverse pass;
every other module works on plain float64 arrays. The package __init__
binds __version__ alone, so importing a module loads only what it
imports. The synthetic embedding stand-ins are built once, in metrics,
and every scorer reads them from there. Every output file is written
through container.replacing. Beyond the standard library the package
imports numpy alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import foleyflow

PACKAGE = Path(foleyflow.__file__).parent

# module -> the tensor names it may import (None: any)
ALLOWED = {"model": None, "flow": None, "training": {"backward"}}


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
    """Source of each call that writes a file: open (builtin, io, os or a
    Path's) with a w, x or a mode or a mode that is not a literal, and
    .write_text or .write_bytes."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append(ast.unparse(node))
        elif name in ("open", "fdopen"):
            # io.open(path, mode) and os.open(path, flags) take the path first, Path.open(mode) does not
            owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
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
        "open(p)\n"
        "open(p, 'rb')\n"
        "io.open(p, encoding='utf-8')\n"
        "Path(p).open()\n"
        "p.open('r')\n"
        "Path(p).read_text()\n"
        "out.write(s)\n"
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
