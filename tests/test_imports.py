"""Every module of the package and the tests reads each name it imports,
every definition of the package is read by the package or the tests, every
dataclass field of the package is read by the package itself, every error
type of ``srled.errors`` is raised somewhere in the package, no path of the
package loads a scipy module beyond those ``import srled`` loads (and never
``scipy.signal``), the oracles of ``tests/oracles.py`` share no code with
what they check, and every function the benchmark's tracer wraps still
exists under its name, with the argument it splits its span by.

``srled/__init__.py`` imports names only to export them; test_exports.py
covers it, and an export alone does not count as a read. ``from __future__``
imports switch on language features and bind nothing that is read.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "srled").glob("*.py") if p.name != "__init__.py")
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py")))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args
                           + args.kwonlyargs + [args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    read = _read(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in read]
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"


def _defined(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes, assigned names and methods -> line;
    dunder names are left out."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            defined.update((f"{node.name}.{item.name}", item.lineno) for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {name: line for name, line in defined.items()
            if not name.split(".")[-1].startswith("__")}


def test_no_unread_definitions():
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    read = set().union(*(_read(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
                         for tree in trees.values()))
    unread = [f"{path.name}:{line} {name}" for path in PACKAGE
              for name, line in _defined(trees[path]).items()
              if name.split(".")[-1] not in read]
    assert not unread, f"definitions nothing reads: {', '.join(unread)}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated with dataclass, dataclasses.dataclass or a call of either."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(ast.unparse(d).split(".")[-1] == "dataclass" for d in decorators)


def _fields(tree: ast.Module) -> dict[str, int]:
    """Fields of the module's dataclasses as Class.field -> line; ClassVar
    annotations declare class constants, not fields."""
    fields = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields.update((f"{node.name}.{item.target.id}", item.lineno) for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                          and "ClassVar" not in ast.unparse(item.annotation))
    return fields


def test_no_unread_dataclass_fields():
    # a field that only the tests read is stored for nothing; construction
    # by keyword is not a read
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)}
    unread = [f"{path.name}:{line} {name}" for path, tree in trees.items()
              for name, line in _fields(tree).items() if name.split(".")[-1] not in read]
    assert not unread, f"dataclass fields the package never reads: {', '.join(unread)}"


def _raised(tree: ast.Module) -> set[str]:
    """Names raised by ``raise Name`` or ``raise Name(...)``."""
    excs = [n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            for n in ast.walk(tree) if isinstance(n, ast.Raise)]
    return {e.id for e in excs if isinstance(e, ast.Name)}


def test_every_error_type_has_a_raiser():
    # an exception class nothing raises is an export that promises a refusal
    # the package no longer makes
    errors = ast.parse((ROOT / "src" / "srled" / "errors.py").read_text())
    types = [n.name for n in errors.body if isinstance(n, ast.ClassDef)]
    raised = set().union(*(_raised(ast.parse(path.read_text())) for path in PACKAGE))
    unraised = [t for t in types if t not in raised]
    assert types and not unraised, f"error types nothing raises: {', '.join(unraised)}"


ORACLES = ROOT / "tests" / "oracles.py"
# the modules whose code the oracles check, so must not share
CHECKED = [ROOT / "src" / "srled" / name for name in ("quadrature.py", "g2.py")]


def _import_targets(node: ast.AST) -> list[str]:
    """Dotted modules and names an import statement loads; [] for other nodes."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [module] + [f"{module}.{alias.name}" for alias in node.names]
    return []


def test_package_does_not_import_oracles():
    offenders = [f"{path.name}:{node.lineno}"
                 for path in PACKAGE + [ROOT / "src" / "srled" / "__init__.py"]
                 for node in ast.walk(ast.parse(path.read_text()))
                 if any("oracles" in target.split(".") for target in _import_targets(node))]
    assert not offenders, f"srled imports the test oracles: {', '.join(offenders)}"


def _modules(node: ast.AST) -> list[str]:
    """Absolute modules an import statement loads, a relative one read in
    srled; [] for other nodes."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if not node.level:
        return [node.module]
    if node.module:
        return [f"srled.{node.module}"]
    return [f"srled.{alias.name}" for alias in node.names]


def test_quadrature_imports_no_srled_module_but_errors():
    # the adaptive integrator is a leaf of the package: the fixed rules of
    # the cumulant and everything else that reads the model live in g2
    tree = ast.parse((ROOT / "src" / "srled" / "quadrature.py").read_text())
    loaded = {module for node in ast.walk(tree) for module in _modules(node)
              if module.split(".")[0] == "srled"}
    assert loaded <= {"srled.errors"}, f"srled.quadrature imports {sorted(loaded)}"


def test_oracles_import_nothing_quadrature_or_g2_defines():
    # an oracle must not share the code it checks: no name that
    # srled.quadrature or srled.g2 defines, whether imported from it,
    # re-exported by another srled module, or read as an attribute of a
    # name an srled import binds (a module such as srled.photon)
    shared = {path.stem for path in CHECKED} | {
        name for path in CHECKED for name in _defined(ast.parse(path.read_text()))
        if "." not in name}
    tree = ast.parse(ORACLES.read_text())
    srled_names = set()
    offenders = []
    for node in ast.walk(tree):
        targets = [t for t in _import_targets(node) if t.split(".")[0] == "srled"]
        offenders += [f"{t} (line {node.lineno})" for t in targets
                      if shared & set(t.split("."))]
        if isinstance(node, ast.Import):
            srled_names |= {alias.asname or alias.name.split(".")[0]
                              for alias in node.names if alias.name.split(".")[0] == "srled"}
        elif isinstance(node, ast.ImportFrom) and targets:
            srled_names |= {alias.asname or alias.name for alias in node.names}
    offenders += [f"{node.value.id}.{node.attr} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in srled_names and node.attr in shared]
    assert not offenders, f"oracles.py reads srled.quadrature or srled.g2: {', '.join(offenders)}"


FOOTPRINT = """
import contextlib
import io
import json
import sys


def scipy_modules():
    return {name for name in sys.modules if name.split(".")[0] == "scipy"}


import srled
loaded = scipy_modules()
assert "scipy.linalg.lapack" in loaded and "scipy.signal" not in loaded
from srled.cli import main
from srled.montecarlo import record_rng
from srled.validation import EX1
pops = srled.derive_populations(EX1)
srled.g2_bruteforce(EX1, pops, mode="delta")
srled.g2_bruteforce(EX1, pops, mode="full")
srled.mean_photon_quadrature(EX1, pops, mode="exact")
config = srled.MonteCarloConfig.for_model(EX1, pops, n_records=30)
srled.run_monte_carlo(EX1, pops, config)
srled.run_monte_carlo(EX1, pops.without_fluctuations(), config)
srled.simulate_field_record(EX1, pops, config, record_rng(config, 0))
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["mc", "--records", "30"]) == 0
print(json.dumps(sorted(scipy_modules() - loaded)))
"""


def test_runs_load_no_scipy_module_beyond_import():
    # Monte Carlo's AR(1) solve comes from scipy.linalg, which
    # scipy.integrate loads with the package; scipy.signal alone would add
    # about 0.7 s and 23 MiB to every process that runs an ensemble
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


SPANS = ROOT / "perfbench" / "spans.py"


def test_benchmark_trace_pins_exist():
    # perfbench/spans.py wraps each function of its SPANS by name and reads
    # the argument that splits a span (omega, mode or fmt) by name, so a
    # renamed function or argument breaks every traced benchmark run
    spec = importlib.util.spec_from_file_location("srled_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for modname, entries in spans.SPANS.items():
        module = importlib.import_module(modname)
        for fname, split in entries:
            fn = getattr(module, fname, None)
            if not callable(fn):
                missing.append(f"{modname}.{fname}")
            elif split is not None and split not in inspect.signature(fn).parameters:
                missing.append(f"{modname}.{fname}({split}=...)")
    assert not missing, f"perfbench/spans.py traces what srled no longer has: {', '.join(missing)}"
