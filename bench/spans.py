"""Span tracing for the traced benchmark run, kept outside the package.

``Tracer.install`` replaces every module binding inside ``cleanpovm``
through which a workload reaches a layer function (``cli.decide_clean``,
``fuzz.decide_clean``, ``fileio.validate``, ``witness.apply``, ...) with a
timing wrapper, and wraps the ``numpy.linalg`` kernels named in ``LAPACK``
with a counter. Each call opens a span that records its name, its parent,
its start and its end; a span's self time is its duration minus the time
its child spans cover. Kernel calls and other counts go to the innermost
open span. ``Tracer.uninstall`` puts every original binding back and
returns the bindings it could not restore (none, unless something else
rebound them meanwhile).
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAPACK = ("eigh", "eigvalsh", "svd", "solve", "inv", "qr")

# (module, function, span name). The span of ``build_witness`` gets the
# returned case tag appended ("witness.build_witness.c") on exit.
SPANNED = (
    ("cleanpovm.povm", "validate", "povm.validate"),
    ("cleanpovm.cleanness", "decide_clean", "cleanness.decide_clean"),
    ("cleanpovm.cleanness", "totally_determined_nullspace", "cleanness.totally_determined_nullspace"),
    ("cleanpovm.witness", "build_witness", "witness.build_witness"),
    ("cleanpovm.witness", "verify_witness", "witness.verify_witness"),
    ("cleanpovm.channel", "apply", "channel.apply"),
    ("cleanpovm.fileio", "load_povm", "fileio.load_povm"),
    ("cleanpovm.fileio", "load_witness_bundle", "fileio.load_witness_bundle"),
    ("cleanpovm.fileio", "save_witness_bundle", "fileio.save_witness_bundle"),
    ("cleanpovm.fileio", "save_json", "fileio.save_json"),
    ("cleanpovm.cli", "main", "cli.main"),
    ("cleanpovm.fuzz", "run_fuzz", "fuzz.run_fuzz"),
    ("cleanpovm.fuzz", "check_instance", "fuzz.check_instance"),
)
KRAUS_BUILD = "channel.KrausChannel.build"

# Per-trial helpers of the case-c and case-d epsilon searches; each call of
# the case-d helper, and each call of the trial function the case-c helper
# receives as its first argument, is one epsilon attempt.
CASE_D_TRIAL = ("cleanpovm.witness", "_case_d_attempt")
CASE_C_SEARCH = ("cleanpovm.witness", "_case_c_bisect")
CASE_B_EPS_START = 0.25


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_ns", "counts")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_ns = 0
        self.counts = None

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._bindings: list[tuple[object, str, object]] = []
        self.eps_helpers_present = {"c": False, "d": False}

    # -- spans and counts -------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        assert popped is span, "spans closed out of order"
        if span.parent is not None:
            span.parent.child_ns += span.end - span.start

    def count(self, counter: str, n: float = 1, span: Span | None = None) -> None:
        if span is None:
            if not self._stack:
                return
            span = self._stack[-1]
        if span.counts is None:
            span.counts = defaultdict(float)
        span.counts[counter] += n

    def reset(self) -> None:
        assert not self._stack, "reset with open spans"
        self.spans = []

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms, total_ms and every counter."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            row = out[span.name]
            row["calls"] += 1
            row["self_ms"] += span.self_ns / 1e6
            row["total_ms"] += (span.end - span.start) / 1e6
            if span.counts:
                for key, value in span.counts.items():
                    row[key] += value
        return {name: dict(row) for name, row in out.items()}

    def root_ms(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(s.end - s.start for s in self.spans if s.parent is None) / 1e6

    # -- installing wrappers ----------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every package binding of ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "cleanpovm" or mod_name.startswith("cleanpovm.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        assert not self._bindings, "tracer already installed"
        import cleanpovm.channel as channel

        for mod_name, fn_name, span_name in SPANNED:
            fn = getattr(sys.modules[mod_name], fn_name)
            self._rebind(fn, self._span_wrapper(fn, span_name))

        build = channel.KrausChannel.__dict__["build"]
        self._bindings.append((channel.KrausChannel, "build", build))
        channel.KrausChannel.build = classmethod(self._span_wrapper(build.__func__, KRAUS_BUILD))

        trial = getattr(sys.modules[CASE_D_TRIAL[0]], CASE_D_TRIAL[1], None)
        self.eps_helpers_present["d"] = trial is not None
        if trial is not None:
            self._rebind(trial, self._counter(trial, "eps_attempts"))
        search = getattr(sys.modules[CASE_C_SEARCH[0]], CASE_C_SEARCH[1], None)
        self.eps_helpers_present["c"] = search is not None
        if search is not None:
            self._rebind(search, self._trial_arg_counter(search))

        for name in LAPACK:
            fn = getattr(np.linalg, name)
            self._bindings.append((np.linalg, name, fn))
            setattr(np.linalg, name, self._counter(fn, "lapack_calls"))

    def uninstall(self) -> list[str]:
        """Restore every binding; return those that do not hold the original afterwards."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        not_restored = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._bindings
            if vars(owner)[attr] is not original
        ]
        self._bindings = []
        return not_restored

    # -- wrapper factories ------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        tracer = self
        hook = _EXIT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if hook is not None:
                    hook(tracer, span, args, result)
                tracer.close(span)

        return wrapper

    def _counter(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _trial_arg_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(trial, *args, **kwargs):
            return fn(self._counter(trial, "eps_attempts"), *args, **kwargs)

        return wrapper


# -- per-span exit hooks ----------------------------------------------------


def _build_witness_exit(tracer: Tracer, span: Span, args, result) -> None:
    case = getattr(result, "case_tag", None)
    span.name = f"{span.name}.{case if case is not None else 'error'}"
    if case == "b" and result.epsilon > 0:
        # case b halves eps from 0.25, so eps = 0.25 * 2^-k took k + 1 trials
        k = round(math.log2(CASE_B_EPS_START / result.epsilon))
        tracer.count("eps_attempts", k + 1, span)


def _nullspace_exit(tracer: Tracer, span: Span, args, result) -> None:
    supports, dim = args[0], int(args[1])
    # the stacked n(d-1) x d^2 complex128 system
    tracer.count("computed_mb", 16 * len(supports) * (dim - 1) * dim * dim / 1e6, span)


def _file_bytes_exit(tracer: Tracer, span: Span, args, result) -> None:
    try:
        size = os.path.getsize(args[0])
    except OSError:
        return
    tracer.count("bytes", size, span)


_EXIT_HOOKS = {
    "witness.build_witness": _build_witness_exit,
    "cleanness.totally_determined_nullspace": _nullspace_exit,
    "fileio.load_povm": _file_bytes_exit,
    "fileio.load_witness_bundle": _file_bytes_exit,
    "fileio.save_witness_bundle": _file_bytes_exit,
    "fileio.save_json": _file_bytes_exit,
}
