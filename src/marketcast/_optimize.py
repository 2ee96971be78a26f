"""`minimize` for arima and garch, with scipy.optimize imported on first call.

scipy.optimize and scipy.signal take over a second to import, and most
commands never fit a model, so marketcast imports no scipy module at import
time. Both model modules bind this one function as their module-level
``minimize`` and look it up on each fit, so the benchmark's layer trace
(perfbench/tracing.py) can wrap it by name.
"""


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize` with the same arguments; returns its OptimizeResult."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)
