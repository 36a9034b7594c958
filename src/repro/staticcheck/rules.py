"""The rule catalog: every rule id `repro lint` can emit, in one place.

Rule families
-------------
``APA0xx``
    Symbolic algorithm verification (:mod:`repro.staticcheck.algcheck`).
``GEN0xx``
    Execution-plan term-list audit (:mod:`repro.staticcheck.codecheck`).
``PAR0xx``
    Concurrency lints over the execution stack
    (:mod:`repro.staticcheck.astlint`).
``NUM0xx``
    Numerics/exception-hygiene lints (:mod:`repro.staticcheck.astlint`).
``ENG0xx``
    Execution-engine boundary lints (:mod:`repro.staticcheck.astlint`):
    the single-dispatch-point invariant of :mod:`repro.core.engine`.
``ASY0xx``
    Whole-program async-safety (:mod:`repro.staticcheck.flow`): blocking
    operations transitively reachable from coroutines.
``LCK0xx``
    Whole-program lock-order and held-across-blocking analysis
    (:mod:`repro.staticcheck.flow`).
``OWN0xx``
    Ownership/escape analysis for pooled arena workspaces
    (:mod:`repro.staticcheck.flow`).
``LNT0xx``
    Meta-rules about the lint machinery itself (unreasoned
    suppressions).

Default severities here are what the analyzers emit; ``--select`` /
``--ignore`` filter by id, and inline suppression comments of the form
``# lint: ignore[ID]: reason`` silence source-line findings (the
trailing reason is required — see ``LNT001``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.staticcheck.findings import Severity

__all__ = ["RuleInfo", "RULES", "describe_rules"]


@dataclass(frozen=True)
class RuleInfo:
    rule_id: str
    severity: Severity
    summary: str


_RULE_LIST: tuple[RuleInfo, ...] = (
    # -- symbolic algorithm verification ------------------------------
    RuleInfo("APA000", Severity.ERROR,
             "decomposition invalid: contraction does not reproduce the "
             "matmul tensor (surviving negative powers or wrong lambda**0 "
             "term)"),
    RuleInfo("APA001", Severity.ERROR,
             "stored metadata (sigma, phi, rank, speedup, dims) disagrees "
             "with the statically derived values"),
    RuleInfo("APA002", Severity.ERROR,
             "dead multiplication: a triplet column is entirely zero in "
             "U, V, or W"),
    RuleInfo("APA003", Severity.ERROR,
             "duplicate multiplication: two triplets share identical "
             "(U, V) columns — one is redundant (the Bini M9/M10 bug "
             "shape)"),
    RuleInfo("APA004", Severity.WARNING,
             "cancellation-heavy combination: coefficient growth "
             "max_i ||U_i||_1 ||V_i||_1 ||W_i||_1 exceeds the threshold, "
             "predicting a poor effective phi"),
    RuleInfo("APA005", Severity.ERROR,
             "catalog tables inconsistent: TABLE1 row and "
             "EXPECTED_PROPERTIES disagree for the same name"),
    # -- plan term-list audit -----------------------------------------
    RuleInfo("GEN001", Severity.ERROR,
             "rank mismatch: a plan must hold exactly r S, T and W term "
             "lists"),
    RuleInfo("GEN002", Severity.ERROR,
             "write-once violation: a block index repeats within one term "
             "list, or names a block outside the operand"),
    RuleInfo("GEN003", Severity.ERROR,
             "dead product: an S/T list is empty (zero operand) or a W "
             "list is empty (product never read)"),
    RuleInfo("GEN004", Severity.ERROR,
             "output coverage broken: some of the m*k output blocks of C "
             "are never written"),
    # -- concurrency lints --------------------------------------------
    RuleInfo("PAR001", Severity.ERROR,
             "shared mutable state written without holding a lock: a "
             "worker-thread function mutating closed-over state, or any "
             "function rebinding a module global outside a lock-guarded "
             "with block"),
    RuleInfo("PAR002", Severity.ERROR,
             "non-reentrant RNG: legacy global random state "
             "(np.random.* / random.*) used instead of a Generator"),
    # -- numerics / exception hygiene ---------------------------------
    RuleInfo("NUM001", Severity.ERROR,
             "bare 'except:' clause"),
    RuleInfo("NUM002", Severity.WARNING,
             "silent exception swallow: broad handler whose body is only "
             "'pass' (error when the try block contains a gemm call)"),
    RuleInfo("NUM003", Severity.ERROR,
             "silent float narrowing: a float64 value flows into a "
             "float32 buffer (gemm out=, np.copyto, in-place store) "
             "without an explicit astype — invalidates the per-dtype "
             "APA error bound"),
    # -- engine boundary ----------------------------------------------
    RuleInfo("ENG001", Severity.ERROR,
             "single-dispatch-point violation: engine-private internals "
             "(_apa_matmul_impl / _threaded_matmul_impl / "
             "_batched_matmul_impl / _process_matmul_impl / "
             "_shard_matmul_impl) imported or called outside "
             "core/engine.py — go through apa_matmul or the "
             "ExecutionEngine"),
    RuleInfo("ENG002", Severity.ERROR,
             "direct wrapper construction: the backend wrapper class "
             "GuardedBackend instantiated outside "
             "repro/backends/ — compose stages through "
             "BackendStack.from_config or the guarded=/fault= config "
             "knobs"),
    # -- whole-program async safety -----------------------------------
    RuleInfo("ASY001", Severity.ERROR,
             "blocking wait reachable from a coroutine: time.sleep, "
             "Future.result(), Thread.join(), or Executor.shutdown("
             "wait=True) on the event-loop thread"),
    RuleInfo("ASY002", Severity.ERROR,
             "synchronous lock acquisition reachable from a coroutine: "
             "a non-awaited .acquire() on a threading lock stalls the "
             "event loop behind other threads"),
    RuleInfo("ASY003", Severity.ERROR,
             "heavy compute on the event loop: a gemm (np.matmul / "
             "apa_matmul family) reachable from a coroutine without an "
             "intervening run_in_executor hop"),
    # -- whole-program lock order -------------------------------------
    RuleInfo("LCK001", Severity.ERROR,
             "lock-order cycle: two execution paths acquire the same "
             "locks in opposite orders (composed across call edges) — "
             "a concurrent interleaving deadlocks"),
    RuleInfo("LCK002", Severity.ERROR,
             "lock held across a blocking point: an await or a blocking "
             "primitive executes inside a with-lock region"),
    # -- ownership / escape -------------------------------------------
    RuleInfo("OWN001", Severity.ERROR,
             "pooled workspace escapes its checkout scope: returned, "
             "yielded, stored on self/shared state, or captured by an "
             "escaping closure — aliases the next caller's arena after "
             "release"),
    RuleInfo("OWN002", Severity.ERROR,
             "shared-memory view escapes its segment's lifetime: a view "
             "over SharedMemory.buf is returned/stored/captured after "
             "the scope closes or unlinks the segment — it points into "
             "a torn-down mapping"),
    # -- lint meta ----------------------------------------------------
    RuleInfo("LNT001", Severity.ERROR,
             "suppression without a reason: inline ignore comments must "
             "carry a trailing ': why the rule is wrong here'"),
)

RULES: dict[str, RuleInfo] = {r.rule_id: r for r in _RULE_LIST}


def describe_rules() -> str:
    """The rule catalog as aligned text (``repro lint --rules``)."""
    lines = [f"{'rule':8s} {'severity':8s} summary"]
    for rule in _RULE_LIST:
        lines.append(f"{rule.rule_id:8s} {str(rule.severity):8s} {rule.summary}")
    return "\n".join(lines)
