"""Wall-clock spans around calls into the program's modules.

A `Tracer` replaces a function where its caller looks it up (a module
global or a class attribute) with a wrapper that records one span per call,
and puts every original back when it is closed. The modules bind their
imports at load time, so patching the defining module would miss callers.

A span's self time is its duration minus the durations of the spans opened
inside it, so nested layers (generation inside a sequence scaffold,
`evaluate` inside `repair`) are not counted twice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


@dataclass
class Layer:
    """What the spans of one layer add up to."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list | None = None  # seconds per call, kept only where percentiles are reported
    outcomes: dict = field(default_factory=dict)

    def percentile_us(self, q: float) -> float:
        """Nearest-rank percentile of the call durations, in microseconds."""
        if not self.durations:
            return 0.0
        xs = sorted(self.durations)
        rank = min(len(xs), max(1, math.ceil(q * len(xs))))
        return xs[rank - 1] * 1e6

    def share(self, outcome) -> float:
        """Fraction of calls whose outcome was `outcome`; 0.0 without calls."""
        return self.outcomes.get(outcome, 0) / self.calls if self.calls else 0.0


class Tracer:
    """Install with `patch`, read `layers`, close to restore the originals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, Layer] = {}
        # one slot per open span: the time its child spans covered; slot 0
        # collects the top-level spans
        self._child = [0.0]
        self._patched: list = []

    def layer(self, name: str, durations: bool = False) -> Layer:
        lay = self.layers.get(name)
        if lay is None:
            lay = self.layers[name] = Layer(durations=[] if durations else None)
        return lay

    def wrap(self, fn, name, outcome=None, durations=False):
        """A span per call. `name` is a layer name, or a function of the
        call's (args, kwargs) that returns one; `outcome` maps a result to
        the key it is counted under."""
        pick = name if callable(name) else (lambda args, kwargs, fixed=self.layer(name, durations): fixed)
        child = self._child
        clock = self.clock

        def traced(*args, **kwargs):
            lay = pick(args, kwargs)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = child.pop()
                child[-1] += dur
                lay.calls += 1
                lay.total_s += dur
                lay.self_s += dur - inner
                if lay.durations is not None:
                    lay.durations.append(dur)
            if outcome is not None:
                key = outcome(result)
                lay.outcomes[key] = lay.outcomes.get(key, 0) + 1
            return result

        return traced

    def count(self, fn, name: str):
        """A call counter without a span, for functions too small to time."""
        lay = self.layer(name)

        def counted(*args, **kwargs):
            lay.calls += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, name, count_only: bool = False, **wrap_kw):
        """Replace `owner.attr` (a module or a class) with a traced wrapper."""
        original = vars(owner)[attr]
        wrapper = self.count(original, name) if count_only else self.wrap(original, name, **wrap_kw)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def close(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
