"""Static checks over the library source tree.

Exception hygiene
-----------------
A resilience layer is only trustworthy if failures it does not explicitly
handle keep propagating.  This test walks every module under ``src/repro``
and rejects the two patterns that silently eat errors:

* a bare ``except:`` clause (catches SystemExit/KeyboardInterrupt too);
* ``except Exception:`` (or ``except BaseException:``) whose body is only
  ``pass``/``...`` — caught, then dropped on the floor.

Handlers that re-raise, log, count, or fall back are fine; the lint only
flags handlers that do nothing at all.

Timing hygiene
--------------
Durations in the library must come from ``time.perf_counter()`` (or
``time.monotonic()`` for deadlines): ``time.time()`` jumps under NTP
adjustments, which corrupts timers, histograms, and trace spans.  The
lint bans ``time.time()`` calls and ``from time import time`` imports
under ``src/repro``.  True wall-clock timestamps (run manifests, file
metadata) are allowed when the line carries an explicit
``# wall-clock: <reason>`` comment.

Concurrency hygiene
-------------------
``repro.parallel`` is the repo's single concurrency primitive: its pool
guarantees deterministic results, crash retries, and metric merging.  Ad
hoc ``multiprocessing.Pool``/``Process``, raw ``os.fork()``, or direct
``ProcessPoolExecutor`` use anywhere else under ``src/repro`` would
bypass all three guarantees, so the lint bans them outside
``src/repro/parallel``.

Logging hygiene
---------------
Library code must not ``print()``: diagnostics belong to the structured
JSON logger (``repro.observability.logging``), where they carry
timestamps, levels, and request ids and can be shipped or silenced.  The
one exception is ``cli.py`` — the CLI's job *is* writing to stdout.

Autograd encapsulation
----------------------
``Tensor._make`` is the raw graph-node constructor: it wires parents
and a backward closure with no validation, and the tape/profiler
machinery assumes every node is produced by ``apply(kind, inputs,
**meta)`` (``repro.autograd.tensor``), the one seam that runs an op-table
entry and notifies the tape recorder and the profiler.  A ``._make``
call outside ``repro.autograd`` would create graph nodes the tape cannot
capture and the profiler cannot attribute, so the lint bans it
everywhere else under ``src/repro``; inside ``repro.autograd`` the only
function that may call it is ``apply``.

Training hygiene
----------------
The Alg 1 loss terms — ``consistency_loss``, ``adaptivity_loss`` and
``combined_loss`` — are called only from ``core/trainer.py``, which
holds the one forward that builds the loss.  A second caller
would be a second forward that can drift from the first, and would sit
outside the ``core/trainer.py`` module globals that the training
benchmark's layer timers patch.

Import hygiene
--------------
A serving process loads the package, the serving tier and the CLI, and
nothing else.  ``networkx`` (the graph generators) and
``scipy.optimize`` (the Hungarian matching) are imported inside the
functions that use them, so ``import repro, repro.serving, repro.cli``
must leave both out of ``sys.modules``: together they are about half of
a serving process's modules and memory.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

_BROAD_NAMES = {"Exception", "BaseException"}


def _is_broad(handler_type):
    return (
        isinstance(handler_type, ast.Name)
        and handler_type.id in _BROAD_NAMES
    )


def _body_is_noop(body):
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def _violations(path, label=None):
    label = label if label is not None else str(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append(f"{label}:{node.lineno}: bare 'except:' clause")
        elif _is_broad(node.type) and _body_is_noop(node.body):
            found.append(
                f"{label}:{node.lineno}: 'except {node.type.id}:' with an "
                "empty body silently swallows errors"
            )
    return found


#: Comment marker that exempts a line needing a genuine wall-clock
#: timestamp (manifest fields, not durations).
_WALL_CLOCK_MARKER = "# wall-clock:"


def _wall_clock_violations(path, label=None):
    label = label if label is not None else str(path)
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    found = []

    def allowed(lineno):
        return _WALL_CLOCK_MARKER in lines[lineno - 1]

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            names = [alias.name for alias in node.names]
            if "time" in names and not allowed(node.lineno):
                found.append(
                    f"{label}:{node.lineno}: 'from time import time' — "
                    "import the module and use time.perf_counter()"
                )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "time"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
            and not allowed(node.lineno)
        ):
            found.append(
                f"{label}:{node.lineno}: time.time() is wall-clock and "
                "jumps under NTP; use time.perf_counter() for durations "
                f"(or annotate the line with '{_WALL_CLOCK_MARKER} <reason>' "
                "for a real timestamp)"
            )
    return found


#: Constructs that must only appear inside repro.parallel.
_POOL_NAMES = {"Pool", "Process", "ProcessPoolExecutor"}
_POOL_MODULES = {
    "multiprocessing",
    "multiprocessing.pool",
    "concurrent.futures",
    "concurrent.futures.process",
}


def _concurrency_violations(path, label=None):
    label = label if label is not None else str(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in _POOL_MODULES:
                for alias in node.names:
                    if alias.name in _POOL_NAMES:
                        found.append(
                            f"{label}:{node.lineno}: 'from {node.module} "
                            f"import {alias.name}' — schedule work through "
                            "repro.parallel.WorkerPool instead"
                        )
        elif isinstance(node, ast.Attribute):
            if (
                node.attr in _POOL_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id in ("multiprocessing", "mp")
            ):
                found.append(
                    f"{label}:{node.lineno}: multiprocessing.{node.attr} — "
                    "schedule work through repro.parallel.WorkerPool instead"
                )
            elif (
                node.attr == "fork"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                found.append(
                    f"{label}:{node.lineno}: raw os.fork() — worker "
                    "processes belong to repro.parallel.WorkerPool"
                )
            elif node.attr == "ProcessPoolExecutor":
                found.append(
                    f"{label}:{node.lineno}: ProcessPoolExecutor — "
                    "schedule work through repro.parallel.WorkerPool instead"
                )
    return found


def _print_violations(path, label=None):
    label = label if label is not None else str(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            found.append(
                f"{label}:{node.lineno}: print() in library code — emit a "
                "structured event via repro.observability.get_logger() "
                "instead"
            )
    return found


def _is_make_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_make"
    )


def _make_violations(path, label=None):
    label = label if label is not None else str(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if _is_make_call(node):
            found.append(
                f"{label}:{node.lineno}: ._make() call — raw graph-node "
                "construction belongs inside repro.autograd; build tensors "
                "through the public Tensor ops instead"
            )
    return found


def _make_callers(path, label=None):
    """``(location, enclosing function name)`` for every ``._make`` call."""
    label = label if label is not None else str(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            function = node
        elif _is_make_call(node):
            name = getattr(function, "name", "<module or lambda>")
            found.append((f"{label}:{node.lineno}", name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _make_outside_apply_violations(path, label=None):
    """``._make`` calls whose enclosing function is not ``apply``."""
    return [
        f"{location}: {name} calls Tensor._make — graph nodes are built "
        "only by apply(kind, inputs, **meta), which the profiler and the "
        "tape recorder observe"
        for location, name in _make_callers(path, label)
        if name != "apply"
    ]


_LOSS_TERMS = {
    "consistency_loss",
    "adaptivity_loss",
    "combined_loss",
}


def _loss_term_violations(path, label=None):
    """Calls to an Alg 1 loss term, by bare name or as an attribute."""
    label = label if label is not None else str(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None
        )
        if name in _LOSS_TERMS:
            found.append(
                f"{label}:{node.lineno}: {name}() outside core/trainer.py "
                "— the Alg 1 loss is built by GAlignTrainer's one forward"
            )
    return found


def test_source_tree_exists():
    assert SRC_ROOT.is_dir(), f"expected library sources at {SRC_ROOT}"
    assert list(SRC_ROOT.rglob("*.py")), "no python modules found to lint"


def test_no_silent_exception_swallowing():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        violations.extend(
            _violations(path, label=str(path.relative_to(SRC_ROOT.parent)))
        )
    assert not violations, (
        "silent exception handling in src/repro "
        "(re-raise, count in the metrics registry, or fall back "
        "explicitly):\n" + "\n".join(violations)
    )


def test_lint_catches_bare_except(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text("try:\n    x = 1\nexcept:\n    pass\n")
    assert any("bare 'except:'" in v for v in _violations(sample))


def test_lint_catches_swallowed_exception(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text("try:\n    x = 1\nexcept Exception:\n    pass\n")
    assert any("silently swallows" in v for v in _violations(sample))


def test_lint_catches_swallowed_ellipsis_body(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text("try:\n    x = 1\nexcept BaseException:\n    ...\n")
    assert any("silently swallows" in v for v in _violations(sample))


def test_lint_allows_handled_exception(tmp_path):
    sample = tmp_path / "ok.py"
    sample.write_text(
        "try:\n    x = 1\nexcept Exception as error:\n    raise "
        "RuntimeError('context') from error\n"
    )
    assert not _violations(sample)


def test_lint_allows_narrow_empty_handler(tmp_path):
    # Narrow catches (e.g. a best-effort os.remove) may legitimately pass.
    sample = tmp_path / "ok.py"
    sample.write_text("try:\n    x = 1\nexcept KeyError:\n    pass\n")
    assert not _violations(sample)


def test_no_wall_clock_timing():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        violations.extend(
            _wall_clock_violations(
                path, label=str(path.relative_to(SRC_ROOT.parent))
            )
        )
    assert not violations, (
        "wall-clock timing in src/repro (use time.perf_counter(), or "
        f"annotate genuine timestamps with '{_WALL_CLOCK_MARKER} <reason>'):"
        "\n" + "\n".join(violations)
    )


def test_no_ad_hoc_concurrency():
    parallel_pkg = SRC_ROOT / "parallel"
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if parallel_pkg in path.parents:
            continue
        violations.extend(
            _concurrency_violations(
                path, label=str(path.relative_to(SRC_ROOT.parent))
            )
        )
    assert not violations, (
        "ad hoc concurrency in src/repro (use repro.parallel.WorkerPool — "
        "it is the only place allowed to own worker processes):\n"
        + "\n".join(violations)
    )


def test_no_print_in_library_code():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path == SRC_ROOT / "cli.py":
            continue  # the CLI's job is writing to stdout
        violations.extend(
            _print_violations(
                path, label=str(path.relative_to(SRC_ROOT.parent))
            )
        )
    assert not violations, (
        "print() in src/repro (route diagnostics through the structured "
        "logger, repro.observability.get_logger()):\n"
        + "\n".join(violations)
    )


def test_no_make_outside_autograd():
    autograd_pkg = SRC_ROOT / "autograd"
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if autograd_pkg in path.parents:
            continue
        violations.extend(
            _make_violations(
                path, label=str(path.relative_to(SRC_ROOT.parent))
            )
        )
    assert not violations, (
        "Tensor._make called outside repro.autograd (the tape and "
        "profiler only see nodes built by the public ops):\n"
        + "\n".join(violations)
    )


def test_only_apply_builds_graph_nodes():
    violations, callers = [], []
    for path in sorted((SRC_ROOT / "autograd").rglob("*.py")):
        label = str(path.relative_to(SRC_ROOT.parent))
        violations.extend(_make_outside_apply_violations(path, label))
        callers.extend(name for _location, name in _make_callers(path))
    assert not violations, (
        "autograd functions building graph nodes outside the dispatch "
        "seam:\n" + "\n".join(violations)
    )
    assert callers == ["apply"], "apply must be the node constructor's caller"


def test_dispatch_lint_catches_make_outside_apply(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text(
        "from repro.autograd.tensor import Tensor\n"
        "def cube(x):\n"
        "    return Tensor._make(x.data ** 3, (x,), None)\n"
        "def apply(kind, inputs, **meta):\n"
        "    def node(data):\n"
        "        return Tensor._make(data, inputs, None)\n"
        "    return node(inputs[0].data)\n"
    )
    violations = _make_outside_apply_violations(sample)
    assert any("cube calls Tensor._make" in v for v in violations)
    # A helper nested inside apply is a different function.
    assert any("node calls Tensor._make" in v for v in violations)


def test_dispatch_lint_allows_make_in_apply(tmp_path):
    sample = tmp_path / "ok.py"
    sample.write_text(
        "from repro.autograd.tensor import Tensor\n"
        "def apply(kind, inputs, **meta):\n"
        "    data = inputs[0].data ** 3\n"
        "    return Tensor._make(data, inputs, lambda grad: None)\n"
    )
    assert not _make_outside_apply_violations(sample)


def test_make_lint_catches_call(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text(
        "from repro.autograd.tensor import Tensor\n"
        "out = Tensor._make(data, (a, b), backward)\n"
    )
    assert any("._make()" in v for v in _make_violations(sample))


def test_make_lint_catches_instance_call(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text("out = some_tensor._make(data, (), None)\n")
    assert any("._make()" in v for v in _make_violations(sample))


def test_make_lint_allows_public_ops(tmp_path):
    sample = tmp_path / "ok.py"
    sample.write_text(
        "from repro.autograd import Tensor\n"
        "out = (Tensor([1.0]) * 2.0).sum()\n"
        "make = object()  # a bare name called 'make' is fine\n"
    )
    assert not _make_violations(sample)


def test_loss_terms_called_only_from_trainer():
    trainer = SRC_ROOT / "core" / "trainer.py"
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path == trainer:
            continue
        violations.extend(
            _loss_term_violations(
                path, label=str(path.relative_to(SRC_ROOT.parent))
            )
        )
    assert not violations, (
        "Alg 1 loss terms called outside core/trainer.py:\n"
        + "\n".join(violations)
    )
    assert _loss_term_violations(trainer), (
        "core/trainer.py no longer calls the loss terms; update the lint"
    )


def test_loss_term_lint_catches_calls(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text(
        "from repro.core import losses\n"
        "from repro.core.losses import combined_loss\n"
        "a = losses.consistency_loss(c, h)\n"
        "b = combined_loss(a, None, 0.8)\n"
    )
    violations = _loss_term_violations(sample)
    assert len(violations) == 2
    assert any("consistency_loss()" in v for v in violations)
    assert any("combined_loss()" in v for v in violations)


def test_loss_term_lint_allows_definitions_and_imports(tmp_path):
    sample = tmp_path / "ok.py"
    sample.write_text(
        "from repro.core.losses import combined_loss\n"
        "def adaptivity_loss(a, b):\n"
        "    return a\n"
        "terms = [combined_loss]\n"
    )
    assert not _loss_term_violations(sample)


def test_print_lint_catches_call(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text("print('debugging')\n")
    assert any("print()" in v for v in _print_violations(sample))


def test_print_lint_allows_logger(tmp_path):
    sample = tmp_path / "ok.py"
    sample.write_text(
        "from repro.observability import get_logger\n"
        "get_logger('x').info('event', value=1)\n"
    )
    assert not _print_violations(sample)


def test_print_lint_ignores_docstring_mentions(tmp_path):
    # A docstring describing print() is not a call.
    sample = tmp_path / "ok.py"
    sample.write_text('"""Example::\n\n    print(result)\n"""\nx = 1\n')
    assert not _print_violations(sample)


def test_concurrency_lint_catches_mp_pool(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text("import multiprocessing\np = multiprocessing.Pool(4)\n")
    assert any("multiprocessing.Pool" in v
               for v in _concurrency_violations(sample))


def test_concurrency_lint_catches_raw_fork(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text("import os\npid = os.fork()\n")
    assert any("os.fork()" in v for v in _concurrency_violations(sample))


def test_concurrency_lint_catches_executor_import(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text(
        "from concurrent.futures import ProcessPoolExecutor\n"
    )
    assert any("ProcessPoolExecutor" in v
               for v in _concurrency_violations(sample))


def test_concurrency_lint_allows_worker_pool(tmp_path):
    sample = tmp_path / "ok.py"
    sample.write_text(
        "from repro.parallel import WorkerPool\n"
        "results = WorkerPool(2).map(len, [('a',)])\n"
    )
    assert not _concurrency_violations(sample)


def test_wall_clock_lint_catches_call(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text("import time\nstart = time.time()\n")
    assert any("time.time()" in v for v in _wall_clock_violations(sample))


def test_wall_clock_lint_catches_from_import(tmp_path):
    sample = tmp_path / "bad.py"
    sample.write_text("from time import time\n")
    assert any(
        "from time import time" in v for v in _wall_clock_violations(sample)
    )


def test_wall_clock_lint_allows_annotated_timestamp(tmp_path):
    sample = tmp_path / "ok.py"
    sample.write_text(
        "import time\n"
        "stamp = time.time()  # wall-clock: manifest created_at field\n"
    )
    assert not _wall_clock_violations(sample)


def test_wall_clock_lint_allows_monotonic_clocks(tmp_path):
    sample = tmp_path / "ok.py"
    sample.write_text(
        "import time\n"
        "a = time.perf_counter()\nb = time.monotonic()\n"
    )
    assert not _wall_clock_violations(sample)


_LAZY_MODULES = ("networkx", "scipy.optimize")


def test_serving_imports_leave_out_lazy_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script = (
        "import sys\n"
        "import repro, repro.serving, repro.cli\n"
        f"print(' '.join(m for m in {_LAZY_MODULES!r} if m in sys.modules))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()
    assert not loaded, (
        f"importing the serving surface loads {loaded}; import them "
        "inside the functions that use them"
    )
