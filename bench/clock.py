"""Run times that hold still on a shared machine.

On a host shared with other tenants the same run can take 1.7x longer when
it lands in a busy spell, and such spells come and go within a second as
well as over minutes. A median of whole-run wall times follows the share of
busy spells a benchmark run happened to meet.

So each run is cut into slices, at fixed counts of calls to
``DenseNet.forward_cached``: every forward pass of every network (fits,
predictions, Method-2 training, inference) goes through it. For one input
the calls are the same on every repetition, so slice ``k`` is the same work
in every repetition. Over a window of ``WINDOW`` consecutive repetitions,
the time of a run is the sum over slices of each slice's fastest time: the
run as it goes when the host is not busy.

A repetition that calls ``forward_cached`` a different number of times than
the others in its window cannot be sliced alike; that window falls back to
its fastest whole-run wall time.

Slice minima remove spells shorter than a window, not a slow state that
covers the whole benchmark run. So every repetition also runs
``reference()``, a fixed numpy loop with the program's operation mix, cut
into slices the same way. Per window the program's time is divided by the
reference's time over the same repetitions; the figure reported is the
median of these ratios times ``REF_SECONDS``, the reference's time on a calm
host of the machine the benchmark was built on. It reads as the run's time
on that host, and a change to the program moves it by the same share.
"""

from __future__ import annotations

import statistics
import time
from array import array
from dataclasses import dataclass

SLICES = 4096  # a run is cut into SLICES to 2 x SLICES slices
WINDOW = 5  # consecutive repetitions whose per-slice minima are summed
REF_UNITS = 500  # slices of reference(), one unit of work each
REF_SECONDS = 0.167  # reference() on a calm host of the 2-vCPU build machine


@dataclass
class Sample:
    """One timed repetition: wall time and per-slice durations."""

    wall: float
    calls: int  # forward_cached calls: the work done, as a count
    stride: int  # calls per slice
    slices: array


class SliceClock:
    """Times one repetition at a time, cut into slices of ``stride`` calls.

    The stride starts at 1 and doubles (merging slices pairwise) whenever
    there are more than ``2 * SLICES`` slices, so it depends only on the
    number of calls a repetition makes."""

    def __init__(self):
        self._calls = 0
        self._stride = 1
        self._stamps = array("d")
        self._installed = None

    def install(self, fleetopt) -> None:
        net_cls = fleetopt.nn.DenseNet
        original = net_cls.forward_cached
        clock = self

        def forward_cached(net, X):
            clock._calls += 1
            if clock._calls % clock._stride == 0:
                clock._stamp()
            return original(net, X)

        net_cls.forward_cached = forward_cached
        self._installed = (net_cls, original)

    def uninstall(self) -> None:
        if self._installed is not None:
            net_cls, original = self._installed
            net_cls.forward_cached = original
            self._installed = None

    def _stamp(self) -> None:
        self._stamps.append(time.perf_counter())
        if len(self._stamps) > 2 * SLICES:
            self._stamps = self._stamps[::2]
            self._stride *= 2

    def start(self) -> None:
        self._calls, self._stride = 0, 1
        self._stamps = array("d", [time.perf_counter()])

    def stop(self) -> Sample:
        end = time.perf_counter()
        stamps = self._stamps
        stamps.append(end)
        slices = array("d", (b - a for a, b in zip(stamps, stamps[1:])))
        return Sample(wall=end - stamps[0], calls=self._calls, stride=self._stride,
                      slices=slices)


def window_times(samples: list[Sample], window: int = WINDOW) -> list[float]:
    """Per window of ``window`` consecutive samples (one window of all of
    them when there are fewer): the sum of per-slice minima."""
    if not samples:
        return []
    window = min(window, len(samples))
    out = []
    for i in range(len(samples) - window + 1):
        group = samples[i:i + window]
        if len({(s.stride, len(s.slices)) for s in group}) == 1:
            out.append(sum(map(min, zip(*(s.slices for s in group)))))
        else:
            out.append(min(s.wall for s in group))
    return out


def reference() -> Sample:
    """A fixed unit of work, timed per unit: ``REF_UNITS`` times a minibatch
    SGD step on a 32-row batch of a 12-64-64-1 softplus network, then 20
    one-row forward passes. These are the program's hot operations, written
    here so that a change to the program does not change the reference."""
    import numpy as np  # imported here: the benchmark sets thread limits first

    rng = np.random.default_rng(0)
    shapes = ((12, 64), (64, 64), (64, 1))
    weights = [rng.normal(size=s) / np.sqrt(s[0]) for s in shapes]
    velocity = [np.zeros(s) for s in shapes]
    X, y, x1 = rng.normal(size=(32, 12)), rng.normal(size=(32, 1)), rng.normal(size=(1, 12))

    def forward(a):
        acts = [a]
        for W in weights[:-1]:
            z = a @ W
            a = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
            acts.append(a)
        return a @ weights[-1], acts

    stamps = array("d", [time.perf_counter()])
    for _ in range(REF_UNITS):
        out, acts = forward(X)
        grad = (out - y) / len(X)
        for i in range(len(weights) - 1, -1, -1):
            g_w = acts[i].T @ grad
            if i:
                grad = (grad @ weights[i].T) * (1.0 - np.exp(-acts[i]))
            velocity[i] = 0.9 * velocity[i] - 1e-3 * g_w
            weights[i] = weights[i] + velocity[i]
        for _ in range(20):
            forward(x1)
        stamps.append(time.perf_counter())
    slices = array("d", (b - a for a, b in zip(stamps, stamps[1:])))
    return Sample(wall=stamps[-1] - stamps[0], calls=REF_UNITS, stride=1, slices=slices)


def normalized_time(samples: list[Sample], refs: list[Sample], window: int = WINDOW) -> float:
    """``REF_SECONDS`` times the median over windows of the program's window
    time over the reference's window time, ``refs[i]`` being run in the same
    repetition as ``samples[i]``; nan when there are none."""
    ratios = [p / r for p, r in zip(window_times(samples, window), window_times(refs, window))]
    return REF_SECONDS * statistics.median(ratios) if ratios else float("nan")
