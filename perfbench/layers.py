"""Per-layer tracing from outside the program.

``Tracer.install`` replaces module-level functions of theta_trunc with timing
wrappers and ``uninstall`` puts the originals back, so untraced passes run
the program unmodified.  A name is patched where its caller looks it up:
``families`` imports ``ps_div_pochhammer`` by name, so the binding in
``families`` is replaced; ``series`` calls ``kernels.div_one_minus`` through
the module, so the binding in ``kernels`` is.

Spans nest on a stack: a span's self time is its duration minus the time of
the spans and kernel calls it contains, so the self times of all layers sum
to the duration of the root spans.  The root span is ``cli.main``, whose self
time (argument parsing) counts to the cli layer with that of the
``cli.cmd_*`` spans below it.  Kernel
calls are too many for one span each (about 54k per grid-scan pass); they
only add to aggregate counters.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

LAYERS = ("kernels", "series", "families", "asymptotics", "analytic", "cli")

CLI_COMMANDS = ("cmd_coeffs", "cmd_verify_identities", "cmd_scan", "cmd_compare", "cmd_circle")


def _nnz(series) -> int:
    return len(series.coeffs) - series.coeffs.count(0)


def _bits(series) -> int:
    c = series.coeffs
    return max(abs(max(c)), abs(min(c))).bit_length()


# Work counts of the kernels, from their arguments.
def _updates_one_minus(c, m):
    return max(len(c) - m, 0)


def _mults_conv(a, b, order):
    head = a[:order]
    return (len(head) - head.count(0)) * order


def _mults_inv(f):
    n = len(f)
    return sum(n - j for j in range(1, n) if f[j])


class Tracer:
    """Counters and span times of the traced passes, summed over passes."""

    def __init__(self):
        self.values = defaultdict(float)
        self.maxima = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.denominators_distinct = 0
        self._pass_denominators = set()
        self._stack = [[0.0]]
        self._installed = []
        self.job_margins = []

    @property
    def root_s(self) -> float:
        """Total duration of the root spans: the bottom frame's child time."""
        return self._stack[0][0]

    # -- bookkeeping ----------------------------------------------------

    def add(self, name: str, value) -> None:
        self.values[name] += value

    def begin_pass(self) -> None:
        self._pass_denominators = set()

    def end_pass(self) -> None:
        self.denominators_distinct += len(self._pass_denominators)

    # -- wrappers --------------------------------------------------------

    def span(self, name, layer, fn, counts=None):
        """Wrap ``fn`` in a span; ``counts(tracer, result, *args)`` adds counters."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                self.values[name + ".calls"] += 1
                self.values[name + ".s"] += dt
                self.values[name + ".self_s"] += dt - frame[0]
                self.layer_self[layer] += dt - frame[0]
            if counts is not None:
                counts(self, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def kernel(self, name, fn, unit, work):
        """Aggregate-only wrapper for a hot kernel: calls, seconds and work."""
        stack = self._stack
        values = self.values
        layer_self = self.layer_self
        k_calls, k_s, k_work = name + ".calls", name + ".s", name + "." + unit

        def wrapper(*args):
            w = work(*args)
            t0 = time.perf_counter()
            result = fn(*args)
            dt = time.perf_counter() - t0
            stack[-1][0] += dt
            values[k_calls] += 1
            values[k_s] += dt
            values[k_work] += w
            layer_self["kernels"] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken from results and arguments ----------------------

    def _div_pochhammer(self, result, f, spec):
        self.values["series.ps_div_pochhammer.parts"] += len(spec.parts(f.order))
        self._pass_denominators.add((spec.residues, f.order))
        self.maxima["series.coeff_bits_max"] = max(self.maxima["series.coeff_bits_max"], _bits(result))

    def _numerator(self, result, *args, **kwargs):
        self.values["series.numerator.nnz"] += _nnz(result)

    def _wright(self, result, p, R, S, quad, which="B"):
        self.values["analytic.samples"] += quad.samples
        self.job_margins.append(abs(result - round(result)))

    def _arc_split(self, result, p, R, S, N, samples, *rest, **kwargs):
        self.values["analytic.samples"] += samples

    def _write_table(self, result, path, *rest, **kwargs):
        self.values["cli.bytes_out"] += os.path.getsize(path)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        # vars() keeps a classmethod a classmethod when it is put back
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self, tt) -> None:
        """Patch the modules of ``tt``, the imported theta_trunc package."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        kernels, series, families = tt.kernels, tt.series, tt.families
        asymptotics, analytic, cli = tt.asymptotics, tt.analytic, tt.cli

        for attr, unit, work in (
            ("div_one_minus", "updates", _updates_one_minus),
            ("mul_one_minus", "updates", _updates_one_minus),
            ("conv_trunc", "mults", _mults_conv),
            ("inv_unit", "mults", _mults_inv),
        ):
            self._patch(kernels, attr, self.kernel("kernels." + attr, getattr(kernels, attr), unit, work))

        self._patch(families, "ps_div_pochhammer", self.span(
            "series.ps_div_pochhammer", "series", series.ps_div_pochhammer, Tracer._div_pochhammer))
        self._patch(families, "theta_partial", self.span(
            "series.numerator", "series", series.theta_partial, Tracer._numerator))
        from_terms = series.PowerSeries.from_terms.__func__
        self._patch(series.PowerSeries, "from_terms", classmethod(self.span(
            "series.numerator", "series", from_terms, Tracer._numerator)))
        pochhammer = self.span("series.pochhammer", "series", series.pochhammer)
        self._patch(series, "pochhammer", pochhammer)
        self._patch(families, "pochhammer", pochhammer)
        self._patch(families, "qbinomial", self.span("series.qbinomial", "series", series.qbinomial))
        self._patch(series, "ps_mul", self.span("series.ps_mul", "series", series.ps_mul))
        self._patch(series, "ps_inv", self.span("series.ps_inv", "series", series.ps_inv))

        self._patch(families, "genfun_family", self.span(
            "families.genfun_family", "families", families.genfun_family))
        self._patch(families, "genfun_family_via_decomposition", self.span(
            "families.via_decomposition", "families", families.genfun_family_via_decomposition))
        self._patch(families, "scan_signs", self.span("families.scan_signs", "families", families.scan_signs))
        for attr in ("pentagonal_sides", "truncated_pentagonal_sides", "quintuple_product_sides"):
            self._patch(families, attr, self.span("families.identity_sides", "families", getattr(families, attr)))

        self._patch(asymptotics, "mainterm_family", self.span(
            "asymptotics.mainterm_family", "asymptotics", asymptotics.mainterm_family))
        self._patch(asymptotics, "bessel_I_scaled", self.span(
            "asymptotics.bessel_I_scaled", "asymptotics", asymptotics.bessel_I_scaled))

        self._patch(analytic, "wright_coefficient", self.span(
            "analytic.wright_coefficient", "analytic", analytic.wright_coefficient, Tracer._wright))
        self._patch(analytic, "arc_split_diagnostic", self.span(
            "analytic.arc_split_diagnostic", "analytic", analytic.arc_split_diagnostic, Tracer._arc_split))

        self._patch(cli, "main", self.span("cli.main", "cli", cli.main))
        for attr in CLI_COMMANDS:
            self._patch(cli, attr, self.span("cli." + attr, "cli", getattr(cli, attr)))
        self._patch(cli, "write_table", self.span(
            "cli.write_table", "cli", cli.write_table, Tracer._write_table))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
