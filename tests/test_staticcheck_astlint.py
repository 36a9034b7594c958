"""The concurrency/numerics AST linter (PAR/NUM rules)."""

from pathlib import Path

import repro.parallel as parallel_pkg
import repro.robustness as robustness_pkg
from repro.staticcheck.astlint import (
    WRAPPER_CLASS_NAMES,
    lint_engine_boundary,
    lint_engine_paths,
    lint_paths,
    lint_source,
    lint_wrapper_construction,
)
from repro.staticcheck.findings import Severity

WORKER_WRITES = """
from concurrent.futures import ThreadPoolExecutor

def run(jobs):
    results = {}
    total = 0
    def worker(i):
        nonlocal total
        total += 1
        results[i] = i * 2
        return i
    with ThreadPoolExecutor() as pool:
        for i in jobs:
            pool.submit(worker, i)
    return results, total
"""


def test_worker_shared_writes_flagged():
    findings = lint_source(WORKER_WRITES, "fixture.py")
    par = [f for f in findings if f.rule_id == "PAR001"]
    assert len(par) == 2
    messages = " ".join(f.message for f in par)
    assert "total" in messages and "results" in messages
    assert all(f.severity is Severity.ERROR for f in par)


def test_locked_worker_writes_pass():
    source = """
import threading
from concurrent.futures import ThreadPoolExecutor

def run(jobs):
    results = {}
    lock = threading.Lock()
    def worker(i):
        value = i * 2
        with lock:
            results[i] = value
        return value
    with ThreadPoolExecutor() as pool:
        for i in jobs:
            pool.submit(worker, i)
    return results
"""
    assert lint_source(source, "fixture.py") == []


def test_worker_returning_values_passes():
    source = """
from concurrent.futures import ThreadPoolExecutor

def run(jobs):
    def worker(i):
        local = {}
        local[i] = i * 2
        return local[i]
    with ThreadPoolExecutor() as pool:
        futures = [pool.submit(worker, i) for i in jobs]
    return [f.result() for f in futures]
"""
    assert lint_source(source, "fixture.py") == []


def test_thread_target_detected():
    source = """
import threading

def run(out):
    def worker():
        out["x"] = 1
    t = threading.Thread(target=worker)
    t.start()
"""
    findings = lint_source(source, "fixture.py")
    assert [f.rule_id for f in findings] == ["PAR001"]


GLOBAL_REBIND_UNLOCKED = """
import threading

_LOCK = threading.Lock()
_POOL = None
_COUNT = 0

def reset():
    global _POOL, _COUNT
    _POOL = None
    _COUNT += 1
"""


def test_global_rebind_outside_lock_flagged():
    findings = lint_source(GLOBAL_REBIND_UNLOCKED, "fixture.py")
    par = [f for f in findings if f.rule_id == "PAR001"]
    assert len(par) == 2
    messages = " ".join(f.message for f in par)
    assert "_POOL" in messages and "_COUNT" in messages
    assert all(f.severity is Severity.ERROR for f in par)


def test_global_rebind_under_lock_passes():
    source = """
import threading

_LOCK = threading.Lock()
_POOL = None

def reset():
    global _POOL
    with _LOCK:
        _POOL = None
"""
    assert lint_source(source, "fixture.py") == []


def test_global_read_without_rebind_passes():
    # Declaring `global` and only *reading* the name is not a rebind.
    source = """
_POOL = None

def peek():
    global _POOL
    return _POOL
"""
    assert lint_source(source, "fixture.py") == []


def test_global_rebind_in_nested_function_not_charged_to_outer():
    # The nested function owns the unlocked rebind; the outer function
    # declares no global and must stay clean — one finding, not two.
    source = """
_STATE = None

def outer():
    def inner():
        global _STATE
        _STATE = 1
    return inner
"""
    findings = lint_source(source, "fixture.py")
    par = [f for f in findings if f.rule_id == "PAR001"]
    assert len(par) == 1
    assert "'inner'" in par[0].message


def test_legacy_numpy_rng_flagged_but_generator_ok():
    bad = "import numpy as np\nx = np.random.rand(4)\nnp.random.seed(0)\n"
    findings = lint_source(bad, "fixture.py")
    assert [f.rule_id for f in findings] == ["PAR002", "PAR002"]
    good = "import numpy as np\nrng = np.random.default_rng(0)\n"
    assert lint_source(good, "fixture.py") == []


def test_stdlib_random_module_flagged_but_instance_ok():
    bad = "import random\nx = random.random()\n"
    assert [f.rule_id for f in lint_source(bad, "f.py")] == ["PAR002"]
    good = "import random\nrng = random.Random(0)\nx = rng.random()\n"
    assert lint_source(good, "f.py") == []


def test_bare_except_is_num001():
    source = "try:\n    x = 1\nexcept:\n    x = 2\n"
    findings = lint_source(source, "fixture.py")
    assert any(f.rule_id == "NUM001" for f in findings)


def test_silent_swallow_severity_depends_on_gemm():
    plain = "try:\n    x = f()\nexcept Exception:\n    pass\n"
    f1 = [f for f in lint_source(plain, "a.py") if f.rule_id == "NUM002"]
    assert len(f1) == 1 and f1[0].severity is Severity.WARNING
    around_gemm = "try:\n    C = gemm(A, B)\nexcept Exception:\n    pass\n"
    f2 = [f for f in lint_source(around_gemm, "a.py") if f.rule_id == "NUM002"]
    assert len(f2) == 1 and f2[0].severity is Severity.ERROR


def test_handled_broad_except_passes():
    # A broad handler that *does something* (log, fallback) is allowed —
    # this is the executor's legitimate recovery pattern.
    source = """
def run(gemm, S, T):
    try:
        return gemm(S, T)
    except Exception as exc:
        log(exc)
        return None
"""
    assert lint_source(source, "fixture.py") == []


def test_inline_suppression():
    # NUM001/NUM002 report at the handler line, which carries the ignore.
    source = "try:\n    x = 1\nexcept:  # lint: ignore[NUM001, NUM002]\n    pass\n"
    findings = lint_source(source, "fixture.py")
    assert findings == []
    blanket = "import numpy as np\nx = np.random.rand(3)  # lint: ignore\n"
    assert lint_source(blanket, "fixture.py") == []


def test_syntax_error_reported_not_raised():
    findings = lint_source("def broken(:\n", "bad.py")
    assert len(findings) == 1 and findings[0].severity is Severity.ERROR


def test_run_in_executor_worker_detected():
    """Closures shipped to a loop's thread pool are workers too: the
    serving layer dispatches via ``loop.run_in_executor(pool, fn)``."""
    source = """
async def run(loop, pool, jobs):
    total = 0
    def worker(i):
        nonlocal total
        total += i
        return i
    for i in jobs:
        await loop.run_in_executor(pool, worker, i)
    return total
"""
    findings = lint_source(source, "fixture.py")
    assert [f.rule_id for f in findings] == ["PAR001"]
    assert "total" in findings[0].message


def test_run_in_executor_value_returning_worker_passes():
    source = """
async def run(loop, pool, jobs):
    def worker(i):
        return i * 2
    return [await loop.run_in_executor(pool, worker, i) for i in jobs]
"""
    assert lint_source(source, "fixture.py") == []


def test_serve_is_a_default_lint_root():
    from repro.staticcheck.astlint import DEFAULT_LINT_ROOTS

    assert "repro/serve" in DEFAULT_LINT_ROOTS


def test_repo_execution_stack_is_clean():
    """The shipped parallel/, robustness/, and serve/ trees pass."""
    import repro.serve as serve_pkg

    roots = [Path(parallel_pkg.__file__).parent,
             Path(robustness_pkg.__file__).parent,
             Path(serve_pkg.__file__).parent]
    assert lint_paths(roots) == []


# ----------------------------------------------------------------------
# ENG001 — the engine single-dispatch-point boundary
# ----------------------------------------------------------------------


def test_engine_private_import_flagged():
    source = "from repro.core.apa_matmul import _apa_matmul_impl\n"
    findings = lint_engine_boundary(source, "src/repro/nn/train.py")
    assert len(findings) == 1
    f = findings[0]
    assert f.rule_id == "ENG001" and f.severity is Severity.ERROR
    assert "_apa_matmul_impl" in f.message


def test_engine_private_call_and_attribute_flagged():
    source = """
import repro.parallel.executor as ex

def run(A, B, alg):
    return ex._threaded_matmul_impl(A, B, alg, 2)
"""
    findings = lint_engine_boundary(source, "src/repro/bench/thing.py")
    assert [f.rule_id for f in findings] == ["ENG001"]
    assert "_threaded_matmul_impl" in findings[0].message


def test_engine_module_itself_is_exempt():
    source = "from repro.core.batched import _batched_matmul_impl\n"
    assert lint_engine_boundary(source, "src/repro/core/engine.py") == []


def test_engine_private_definition_not_flagged():
    # The home module *defines* the impl; only uses are violations.
    source = "def _apa_matmul_impl(A, B, algorithm):\n    return A @ B\n"
    assert lint_engine_boundary(source, "src/repro/core/apa_matmul.py") == []


def test_engine_inline_suppression():
    source = ("from repro.core.apa_matmul import _apa_matmul_impl"
              "  # lint: ignore[ENG001]\n")
    assert lint_engine_boundary(source, "src/repro/bench/hotpath.py") == []


def test_repo_engine_boundary_is_clean():
    """The shipped package honors the single-dispatch-point invariant."""
    root = Path(parallel_pkg.__file__).parent.parent
    findings, scanned = lint_engine_paths([root])
    assert findings == []
    assert scanned > 50  # the whole repro package, not a subtree


# ----------------------------------------------------------------------
# ENG002 — wrapper construction outside repro/backends/
# ----------------------------------------------------------------------


def test_wrapper_construction_flagged():
    source = """
from repro.backends.guard import GuardedBackend

def build(inner):
    return GuardedBackend(inner)
"""
    findings = lint_wrapper_construction(source, "src/repro/nn/train.py")
    assert len(findings) == 1
    f = findings[0]
    assert f.rule_id == "ENG002" and f.severity is Severity.ERROR
    assert "GuardedBackend" in f.message


def test_wrapper_attribute_construction_flagged():
    source = """
import repro.backends.guard as guard

def build(inner):
    return guard.GuardedBackend(inner)
"""
    findings = lint_wrapper_construction(source, "src/repro/bench/thing.py")
    assert [f.rule_id for f in findings] == ["ENG002"]
    assert "GuardedBackend" in findings[0].message


def test_only_guarded_backend_is_a_wrapper_class():
    assert WRAPPER_CLASS_NAMES == frozenset({"GuardedBackend"})


def test_wrapper_construction_inside_backends_exempt():
    source = ("from repro.backends.guard import GuardedBackend\n"
              "backend = GuardedBackend(None)\n")
    assert lint_wrapper_construction(
        source, "src/repro/backends/stack.py") == []


def test_wrapper_import_alone_not_flagged():
    # Importing (e.g. for isinstance checks or annotations) is fine;
    # only *constructing* bypasses the stack.
    source = ("from repro.backends.guard import GuardedBackend\n"
              "def check(b):\n"
              "    return isinstance(b, GuardedBackend)\n")
    assert lint_wrapper_construction(source, "src/repro/serve/server.py") == []


def test_wrapper_inline_suppression():
    source = ("from repro.backends.guard import GuardedBackend\n"
              "b = GuardedBackend(None)"
              "  # lint: ignore[ENG002]: test fixture\n")
    assert lint_wrapper_construction(source, "src/repro/obs/demo.py") == []


def test_repo_wrapper_boundary_is_clean():
    """Every in-tree wrapper construction is either in repro/backends/
    or carries a reasoned suppression."""
    root = Path(parallel_pkg.__file__).parent.parent
    findings, _ = lint_engine_paths([root])
    assert [f for f in findings if f.rule_id == "ENG002"] == []
