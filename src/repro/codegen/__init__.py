"""Code generation for bilinear algorithms (paper §3, Benson & Ballard).

The paper generates C++/OpenMP from the triplet encoding; we generate
specialized Python/NumPy: one function per algorithm with unrolled block
views, literal lambda-coefficient expressions, the ``r`` gemm calls, and
unrolled output combinations.  Generated code is importable, depends only
on NumPy, and is verified equivalent to the generic plan evaluator
(:mod:`repro.core.plan`) by the test suite.
"""

from repro.codegen.generate import generate_source
from repro.codegen.cache import compile_algorithm, clear_cache

__all__ = ["generate_source", "compile_algorithm", "clear_cache"]
