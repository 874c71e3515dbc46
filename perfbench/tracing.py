"""Outside-in span tracer for the markovflight layers.

The tracer wraps the public functions of each layer module from the
benchmark's side: nothing in the package changes.  A function imported by
name into another module (``charfun`` takes ``bessel_j``, ``si``,
``neg_cin``, ``hyp5f4_unit`` and ``quartic_gamma`` that way) is patched in
that namespace too, so no call path slips past the trace.  ``uninstall``
puts every original back.

Each call is one span.  A layer's self time is its span minus the spans of
the traced calls it made.  Spans are nested per thread; a span opened in a
pool thread has no parent, so a caller waiting on a pool keeps that wait in
its own self time.

The two batch samplers also record the ``size`` they were asked for and the
64-bit words their Philox generator produced, read from the generator state
before and after the call.  Both counts repeat exactly at a fixed seed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

PACKAGE = "markovflight"
LAYERS = ("specfun", "arctan_series", "charfun", "density", "montecarlo", "validate", "cli")
# log_gamma runs millions of times in `validate --quick`; a span around each
# call would swamp the trace, so its time stays in its callers' self time.
UNTRACED = frozenset({"specfun.log_gamma"})
SAMPLERS = frozenset({"montecarlo.sample_positions", "montecarlo.sample_positions_given_n"})


def philox_words(before: dict, after: dict) -> int:
    """64-bit words a Philox generator produced between two of its states.

    Each counter step fills a buffer of four words; ``buffer_pos`` is how many
    of the current buffer were handed out.
    """
    if before.get("bit_generator") != "Philox" or after.get("bit_generator") != "Philox":
        raise ValueError("word counts need a Philox bit generator")
    steps = int(after["state"]["counter"][0]) - int(before["state"]["counter"][0])
    return 4 * steps + int(after["buffer_pos"]) - int(before["buffer_pos"])


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples: int = 0
    rng_words: int = 0


def _generator_in(arguments: dict) -> np.random.Generator:
    for value in arguments.values():
        if isinstance(value, np.random.Generator):
            return value
    raise TypeError("sampler called without a numpy Generator argument")


class Tracer:
    """Context manager that traces every public layer function while active."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.child_calls: Counter = Counter()  # (parent, child) -> calls
        self._patches: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                qual = f"{layer}.{name}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and qual not in UNTRACED
                ):
                    wrappers[id(fn)] = (fn, self._wrap(qual, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def terms_per_call(self, parent: str, child: str) -> float:
        """Mean number of direct `child` calls per `parent` call (0 if never called)."""
        calls = self.stats[parent].calls if parent in self.stats else 0
        return self.child_calls[(parent, child)] / calls if calls else 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qual: str, fn):
        stats = self.stats.setdefault(qual, LayerStats())
        signature = inspect.signature(fn) if qual in SAMPLERS else None
        lock = self._lock
        child_calls = self.child_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                rng = _generator_in(arguments)
                state_before = rng.bit_generator.state
            stack = self._stack()
            frame = [qual, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with lock:
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.self_s += elapsed - frame[1]
                    if stack:
                        child_calls[(stack[-1][0], qual)] += 1
                    if signature is not None:
                        stats.samples += int(arguments["size"])
                        stats.rng_words += philox_words(state_before, rng.bit_generator.state)

        return traced
