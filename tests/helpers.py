"""Functions only the tests call: a chronological frame split, a
single-window LSTM forward, a checked GARCH variance recursion, and a
GARCH(1,1) series simulator."""

from __future__ import annotations

import math

import numpy as np

from marketcast.errors import DataError
from marketcast.frame import SplitSpec, TimeSeriesFrame, split_bounds
from marketcast.garch import GarchParams, _check_inputs, _variances
from marketcast.lstm import LstmNetwork, _draw_masks, _forward_batch


def chrono_split(frame: TimeSeriesFrame, spec: SplitSpec) -> list[TimeSeriesFrame]:
    """Partition a frame into contiguous chronological parts.

    The k-th boundary sits at floor(cumulative_fraction_k * length); remainder
    rows accrue to the final part.
    """
    n = len(frame)
    k = len(spec.fractions)
    if n < k:
        raise DataError(f"frame of {n} rows cannot be split {k} ways")
    bounds = split_bounds(n, spec)
    return [frame.rows(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def forward(network: LstmNetwork, window, mode: str = "eval", rng: np.random.Generator | None = None):
    """Single-window forward pass. Returns (prediction, cache), the cache
    `backward` reads.

    In train mode inverted dropout runs with masks drawn from `rng`; eval
    mode never touches the RNG and applies no scaling.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[1] != network.config.input_size:
        raise DataError(
            f"window shape {window.shape} does not match input size {network.config.input_size}"
        )
    if mode == "train":
        masks = _draw_masks(network.config, rng)
    else:
        masks = [None] * network.config.num_layers
    cache: dict = {}
    preds = _forward_batch(network, window[None, :, :], masks, cache)
    return float(preds[0]), cache


def garch_recursion(params: GarchParams, residuals, sigma2_0: float) -> np.ndarray:
    """Variances sigma2_1 .. sigma2_n from residuals eps_0 .. eps_{n-1}.

    Element t of the output is the variance the model implies for the step
    after residual t; the output has the same length as the input.
    """
    eps = np.asarray(residuals, dtype=float)
    _check_inputs(eps, sigma2_0)
    return _variances(params.alpha0, params.alpha1, params.beta1, eps, sigma2_0)


def simulate_garch11(params: GarchParams, n: int, rng: np.random.Generator, burn: int = 500) -> np.ndarray:
    """Simulate a GARCH(1,1) residual series with standard normal shocks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = n + burn
    z = rng.standard_normal(total)
    eps = np.empty(total)
    sig2 = params.long_run_variance
    for t in range(total):
        if t > 0:
            sig2 = params.alpha0 + params.alpha1 * eps[t - 1] ** 2 + params.beta1 * sig2
        eps[t] = math.sqrt(sig2) * z[t]
    return eps[burn:]
