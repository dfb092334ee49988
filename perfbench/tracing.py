"""Per-layer tracing from outside the package: wrapped functions and import times.

``Tracer.install`` replaces each traced function at every module binding
that callers resolve, for instance ``adaptive_simpson`` in ``quadrature``,
``lattice_sums`` and ``analytics``; ``uninstall`` puts the originals back.
Each call records a span (name, start, end, parent) in memory.  ``summary``
turns the spans of one pass into busy time (outermost spans of a name only,
so recursion through nested quadrature is not counted twice), self time
(span minus its direct child spans) and call counts.  Quadrature integrands
are wrapped to count evaluations.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time
from collections import Counter

from common import child_env

# Layer metric -> (span name, statistic).  Statistics: "s" busy seconds,
# "self_s" self seconds, "calls" call count.
SPAN_METRICS = {
    "cli.main_s": ("cli.main", "s"),
    "cli.main_self_s": ("cli.main", "self_s"),
    "analytics.kappa_sq_s": ("analytics.kappa_sq", "s"),
    "analytics.kappa_sq_calls": ("analytics.kappa_sq", "calls"),
    "analytics.integral_I_s": ("analytics.integral_I", "s"),
    "analytics.integral_I_calls": ("analytics.integral_I", "calls"),
    "lattice_sums.column_difference_sum_s": ("lattice_sums.column_difference_sum", "s"),
    "lattice_sums.column_difference_sum_self_s": ("lattice_sums.column_difference_sum", "self_s"),
    "lattice_sums.calls": ("lattice_sums.column_difference_sum", "calls"),
    "quadrature.adaptive_simpson_s": ("quadrature.adaptive_simpson", "s"),
    "quadrature.calls": ("quadrature.adaptive_simpson", "calls"),
    "dynamics.adjoint_coefficient_s": ("dynamics.adjoint_coefficient", "s"),
    "dynamics.generator_residual_s": ("dynamics.generator_residual", "s"),
    "dynamics.circuit_step_s": ("dynamics.circuit_step", "s"),
    "dynamics.expm_s": ("dynamics.expm", "s"),
    "dynamics.expm_calls": ("dynamics.expm", "calls"),
    "dynamics.trace_norm_s": ("dynamics.trace_norm", "s"),
    "dynamics.evolve_s": ("dynamics.evolve", "s"),
    "dynamics.evolve_self_s": ("dynamics.evolve", "self_s"),
    "dynamics.generator_apply_s": ("dynamics.generator_apply", "s"),
    "dynamics.generator_apply_calls": ("dynamics.generator_apply", "calls"),
    "fock.basis_s": ("fock.basis", "s"),
    "fock.kinetic_hamiltonian_s": ("fock.kinetic_hamiltonian", "s"),
    "fock.interaction_hamiltonian_s": ("fock.interaction_hamiltonian", "s"),
    "fock.one_body_op_calls": ("fock.one_body_op", "calls"),
}
# Layer metric -> layer whose errors it counts.
ERROR_METRICS = {"cli.errors": "cli", "quadrature.errors": "quadrature"}
QUADRATURE_FUNCTIONS = ("quadrature.adaptive_simpson", "quadrature.simpson_refined")
TRACED_MODULES = (
    "analytics", "bounds", "cli", "dynamics", "fock", "lattice", "lattice_sums", "quadrature",
)


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    """Span recorder for the public functions of every ``ccgrav`` module."""

    def __init__(self, cc):
        self._modules = [cc] + [getattr(cc, name) for name in TRACED_MODULES]
        targets = {}  # id(original) -> (span name, original)
        for short in TRACED_MODULES:
            module = getattr(cc, short)
            for name, fn in _public_functions(module):
                targets[id(fn)] = (f"{short}.{name}", fn)
        # scipy's expm is a foreign function callers resolve through dynamics.
        expm = cc.dynamics.expm
        targets[id(expm)] = ("dynamics.expm", expm)
        self._targets = targets
        self._basis_class = cc.fock.FockBasis
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.evals = 0
        self.errors = Counter()

    def _wrap(self, span_name, fn):
        layer = span_name.split(".")[0]
        counts_evals = span_name in QUADRATURE_FUNCTIONS
        tracer = self

        def wrapper(*args, **kwargs):
            if counts_evals:
                integrand = args[0]

                def counted(x):
                    tracer.evals += 1
                    return integrand(x)

                args = (counted,) + args[1:]
            index = len(tracer.spans)
            tracer.spans.append([span_name, time.perf_counter(), None,
                                 tracer._stack[-1] if tracer._stack else None])
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                seen = exc.__dict__.setdefault("_perfbench_layers", set())
                if layer not in seen:
                    seen.add(layer)
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer._stack.pop()
                tracer.spans[index][2] = time.perf_counter()
            if span_name == "cli.main" and result != 0:
                tracer.errors[layer] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for span_name, fn in self._targets.values():
            wrapper = self._wrap(span_name, fn)
            for module in self._modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        init = self._basis_class.__init__
        self._patches.append((self._basis_class, "__init__", init))
        self._basis_class.__init__ = self._wrap("fock.basis", init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def summary(self) -> dict:
        """Busy time, self time and calls per span name, over the recorded spans."""
        stats = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                entry["s"] += end - start
        return stats

    def layer_metrics(self) -> dict:
        """The named per-layer metrics for the spans recorded since ``reset``."""
        stats = self.summary()
        out = {}
        for metric, (span_name, stat) in SPAN_METRICS.items():
            out[metric] = stats.get(span_name, {}).get(stat, 0)
        for metric, layer in ERROR_METRICS.items():
            out[metric] = self.errors[layer]
        out["quadrature.evals"] = self.evals
        return out


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Seconds to import ccgrav, and the part of it spent importing scipy.

    ``-X importtime`` prints one line per module after its children, indented
    by nesting depth.  The scipy share sums the cumulative times of the scipy
    modules whose importer is not itself a scipy module.
    """
    rows = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            rows.append((int(match[2]), len(match[3]), match[4]))
    total = scipy = 0
    ancestors = []  # (depth, name) of the enclosing imports, innermost last
    for cumulative, depth, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        if name == "ccgrav":
            total += cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not (parent == "scipy" or parent.startswith("scipy.")):
            scipy += cumulative
        ancestors.append((depth, name))
    if not total:
        raise RuntimeError("no import time reported for ccgrav")
    return {"ccgrav.import_s": total * 1e-6, "ccgrav.import_scipy_s": scipy * 1e-6}


def import_times(samples: int) -> dict:
    """Median import-time metrics over ``samples`` fresh interpreters."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ccgrav"],
            env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
