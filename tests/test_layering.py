"""Module layering: each corpusforge module imports only from lower layers.

errors < text_pipeline < (word_align, lm) < (mine, selection, eval_mt)
< corpus_io < demo < cli

Every function, class and method the package defines is also used by the
package or the benchmark: code only tests use lives under tests/. Every
defaulted parameter is also passed by one of their call sites: a default no
caller overrides is a constant, not an option. A setting out of range
raises SettingError, not a bare ValueError. Every name the benchmark's
tracer wraps exists, and its seed-0 jobs write their recorded bytes.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corpusforge"

LAYERS = {
    "__init__": 0,
    "errors": 0,
    "text_pipeline": 1,
    "word_align": 2,
    "lm": 2,
    "mine": 3,
    "selection": 3,
    "eval_mt": 3,
    "corpus_io": 4,
    "demo": 5,
    "cli": 6,
}


def _imported_modules(tree: ast.AST):
    """The corpusforge modules a module's import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["corpusforge" if node.level else "", node.module]))
            if module == "corpusforge":
                names = [f"corpusforge.{alias.name}" for alias in node.names]
            else:
                names = [module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "corpusforge" and len(parts) > 1:
                yield parts[1]


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(LAYERS)


def test_imports_point_to_strictly_lower_layers():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        for imported in _imported_modules(tree):
            if LAYERS.get(imported, len(LAYERS)) >= LAYERS[path.stem]:
                upward.append(f"{path.stem} -> {imported}")
    assert upward == []


def _mentions(node: ast.AST):
    """The names a subtree refers to: names, attributes, imports and strings
    (the benchmark wraps functions by their attribute name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def test_every_definition_is_used_outside_the_tests():
    package = {path: ast.parse(path.read_text("utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text("utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    mentions = Counter(name for tree in [*package.values(), *bench] for name in _mentions(tree))
    # unused: every mention of the name lies inside its own definition
    unused = [
        f"{path.stem}.{qualname}"
        for path, tree in package.items()
        for qualname, node in _definitions(tree)
        if mentions[node.name] == Counter(_mentions(node))[node.name]
    ]
    assert unused == []


def _defaulted_parameters(func: ast.FunctionDef):
    """(name, position) of each defaulted parameter; position is None for a
    keyword-only one, and counts from the first argument a caller passes."""
    positional = func.args.posonlyargs + func.args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    for index, arg in enumerate(positional[len(positional) - len(func.args.defaults) :]):
        yield arg.arg, len(positional) - len(func.args.defaults) + index - skip
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: a **mapping
        return True
    if position is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) > position


def test_every_optional_parameter_is_passed():
    package = {path: ast.parse(path.read_text("utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text("utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*package.values(), *bench]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    # entry points only tests call with these: the CLI's argv, and corpus BLEU's
    # smoothing (the CLI reaches it through report, which shares BLEU's n-gram pass)
    exempt = {("cli", "run", "argv"), ("eval_mt", "bleu", "smooth")}
    never_passed = [
        f"{path.stem}.{func.name}({name})"
        for path, tree in package.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for name, position in _defaulted_parameters(func)
        if (path.stem, func.name, name) not in exempt
        and not any(_passes(call, name, position) for call in calls.get(func.name, []))
    ]
    assert never_passed == []


def _raised_value_errors(tree: ast.Module):
    """The function around each `raise ValueError` in a module."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                yield getattr(scope, "name", "<module>")


def test_settings_out_of_range_raise_setting_error():
    # a bare ValueError from a setting check would reach the CLI's user as a
    # traceback; the two left are caught by config_defaults itself
    raised = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _raised_value_errors(ast.parse(path.read_text("utf-8")))
    ]
    assert sorted(raised) == ["cli._parse_bool", "cli.config_defaults"]


def test_benchmark_tracer_finds_every_name_it_wraps():
    # in a child process: instrumenting replaces the package's attributes
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", "import layers, spans; layers.instrument(spans.Tracer(0))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# Wrap as layers.instrument does, noting each name; run every workload's
# seed-0 job with one worker; print the wrapped names that no job reached.
_UNREACHED = """
import sys
from pathlib import Path
import gen, job, layers, spans

tracer = spans.Tracer(0)
wrapped = set()
wrap = tracer.wrap


def noted_wrap(owner, attr, name, **kwargs):
    wrapped.add(name)
    wrap(owner, attr, name, **kwargs)


tracer.wrap = noted_wrap
layers.instrument(tracer)
for workload, run in sorted(job.JOBS.items()):
    inputs = Path(sys.argv[1], workload)
    gen.generate(workload, 0, inputs)
    run(inputs, Path(sys.argv[1], workload + ".out"), 1, tracer.counters)
reached = {rec[spans.NAME] for rec in tracer.spans} | set(tracer.calls)
print(*sorted(wrapped - reached))
"""


def test_every_wrapped_name_but_three_is_on_a_benchmark_path(tmp_path):
    # A wrapped call taken off every job's path reads 0 in its per-layer
    # metrics; this fails instead. The three are wrapped but never called.
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", _UNREACHED, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "corpus_io.read_parallel_files", "eval_mt.bleu", "eval_mt.nist",
    ]


# Every workload's seed-0 job untraced with one worker, mine also with two,
# then each again traced as the benchmark runs it (mine with two workers);
# print the outputs whose digests differ from the recorded ones.
_DIFFERING = """
import sys
from collections import defaultdict
from pathlib import Path
import check, gen, job, layers, spans

root = Path(sys.argv[1])
for workload in sorted(job.JOBS):
    gen.generate(workload, 0, root / workload)
differing = []
runs = [(workload, 1) for workload in sorted(job.JOBS)] + [("mine", 2)]
counters = defaultdict(float)
for traced in (False, True):
    if traced:
        tracer = spans.Tracer(0)
        layers.instrument(tracer)
        counters = tracer.counters
        runs = [(workload, 2 if workload == "mine" else 1) for workload in sorted(job.JOBS)]
    for workload, workers in runs:
        out = root / f"{workload}.{workers}w{'.traced' if traced else ''}"
        job.JOBS[workload](root / workload, out, workers, counters)
        if check.tree_digests(out) != check.recorded_digests(workload):
            differing.append(out.name)
print(*differing)
"""


def test_benchmark_jobs_write_their_recorded_bytes(tmp_path):
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", _DIFFERING, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
