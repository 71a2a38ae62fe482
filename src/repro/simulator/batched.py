"""Compatibility names for the benchmark's traced run.

Nothing in ``src/`` imports this module.  Its two callers are
``perfbench/spans.py``, which wraps :func:`make_batched_runner` to
record the ``simulator.batched.span`` metric (now always 0), and
``perfbench/test_perfbench.py``, which compares :func:`batch_mode`
verdicts with and without tracing.  A later benchmark change deletes it.
"""

from repro.native.runner import non_stock_reason
from repro.simulator.engine import make_classic_runner


def batch_mode(hierarchy, core) -> str:
    """The stock-hierarchy guard's verdict (``""`` when all stock)."""
    return non_stock_reason(hierarchy, core)


def make_batched_runner(trace, hierarchy, core):
    """The classic span runner.  A function of its own, not an alias:
    the tracer rebinds every module global bound to the object it wraps."""
    return make_classic_runner(trace, hierarchy, core)
