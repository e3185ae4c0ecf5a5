"""Layer tracing from outside the program.

``Tracer.install`` replaces the listed public functions and methods of the
kummergauss layers with timing wrappers and ``uninstall`` puts the
originals back.  A module function is often bound under its name in other
modules too (``cli`` imports from ``sigma``, ``inversion`` and ``sphere``,
which import from ``tensor``), so every module attribute that is the
original function is patched.  A method is patched on its class, including
aliases such as ``__rmul__ = __mul__``.

Every wrapper keeps a call count, its inclusive time and its self time
(inclusive time minus the time of traced calls made inside it).  Wrappers
marked as spans also record (name, start, end, parent) in memory; the hot
arithmetic methods only count, because a span record per call would cost
more than the call itself.
"""

import sys
import time

# (layer metric prefix, module, attribute path, record spans)
TARGETS = (
    ("cli.run", "cli", "run", True),
    ("sigma.build_sigma", "sigma", "build_sigma", True),
    ("sigma.wp2", "sigma", "wp2", False),
    ("sigma.wp3", "sigma", "wp3", False),
    ("sigma.kummer_det", "sigma", "kummer_det", True),
    ("sigma.pde_residuals", "sigma", "pde_residuals", True),
    ("sigma.kernel_residual", "sigma", "kernel_residual", True),
    ("sigma.gauss_metric", "sigma", "gauss_metric", True),
    ("sigma.metric_det_inverse", "sigma", "metric_det_inverse", True),
    ("sigma.SigmaRational.to_powers", "sigma", "SigmaRational.to_powers",
     False),
    ("rings.Poly.mul", "rings", "Poly.mul", False),
    ("rings.exact_divide", "rings", "exact_divide", False),
    ("tensor.christoffel", "tensor", "christoffel", True),
    ("tensor.riemann", "tensor", "riemann", True),
    ("tensor.ricci", "tensor", "ricci", True),
    ("jets.Jet.mul", "jets", "Jet.__mul__", False),
    ("jets.Jet.inverse", "jets", "Jet.inverse", False),
    ("quadext.QuadExtScalar.mul", "quadext", "QuadExtScalar.__mul__", False),
    ("quadext.QuadExtScalar.inv", "quadext", "QuadExtScalar.inv", False),
    ("inversion.xyz_jets", "inversion", "xyz_jets", True),
    ("inversion.ricci_point", "inversion", "ricci_point", True),
    ("sphere.sphere_einstein_check", "sphere", "sphere_einstein_check", True),
    ("sphere.kahler_conformal_check", "sphere", "kahler_conformal_check",
     True),
    ("sphere.chern_number", "sphere", "chern_number", True),
)

PACKAGE = "kummergauss"


def _coeff_bits(series):
    bits = 0
    for c in series.body.terms.values():
        bits = max(bits, abs(c.numerator).bit_length(),
                   c.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent span index]
        self.stats = {}       # name -> [calls, inclusive s, self s]
        self.terms_out = 0    # terms in all Poly.mul results
        self.coeff_bits_max = 0
        self._stack = []      # per open traced call: time of traced children
        self._open_spans = []
        self._patches = []    # (owner, attribute, original)

    def _wrap(self, name, fn, span, observe):
        stack = self._stack
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            if span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0,
                              open_spans[-1] if open_spans else None])
                open_spans.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if span:
                    open_spans.pop()
                    spans[idx][1] = t0
                    spans[idx][2] = t1
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - children[0]
                if stack:
                    stack[-1][0] += dur
            if observe is not None:
                # bookkeeping time is charged to nobody: the caller sees it
                # as time of a traced child
                t2 = clock()
                observe(result)
                if stack:
                    stack[-1][0] += clock() - t2
            return result

        return traced

    def _observe_mul(self, poly):
        self.terms_out += len(poly.terms)

    def _observe_metric(self, metric):
        self.coeff_bits_max = max(self.coeff_bits_max,
                                  *(_coeff_bits(s) for s in (
                                      metric.ghat11, metric.ghat12,
                                      metric.ghat22)))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {"rings.Poly.mul": self._observe_mul,
                     "sigma.gauss_metric": self._observe_metric}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for name, modname, path, span in TARGETS:
            owner = sys.modules["%s.%s" % (PACKAGE, modname)]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, span, observers.get(name))
            owners = [owner] if cls_path else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        self._patches.append((target, key, value))
                        setattr(target, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
