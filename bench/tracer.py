"""Outside-in tracing: wrappers around the package's public functions.

``Tracer.install()`` replaces every ``spectralforge.*`` module attribute
bound to a target function with a wrapper.  Several modules import with
``from .x import f``, so patching only the defining module would miss the
calls between layers.  Each wrapper records a span (name, start, end,
parent span, job id) in memory and keeps per-function counts; spans are
written out once, at the end of the pass.

``COUNT_ONLY`` is called about 10^6 times per pass; timing each call would
distort the run, so it gets a count and its time shows up in its caller's
self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TARGETS = {
    "cli": ("main", "build_parser", "load_json", "emit"),
    "cyclotomic": (
        "vanishing_sum_test", "divides", "kernel_polynomial", "cyclotomic_poly",
        "cyclotomic_factorization",
    ),
    "hadamard": ("check_triple", "find_spectra", "zero_set"),
    "productform": (
        "k_stage_to_one_stage", "validate_one_stage", "validate_k_stage",
        "expand_one_stage", "expand_k_stage",
    ),
    "digitsets": ("direct_sum_digits",),
    "cm_tiling": (
        "paq_type_generator", "generate_modulo_product_form", "modulo_to_k_stage",
        "spec_kernels", "cm_profile", "check_tile_zn", "tile_complement",
    ),
    "measure": (
        "build_spectrum", "jp_sum", "TruncatedMeasure.mu_hat_rational", "mask_value_rational",
        "mask_value", "weakly_periodic_check", "finite_level_identity_check",
    ),
}
COUNT_ONLY = "measure.mask_value_rational"
# Functions that call no other wrapped function, so their self time equals
# their total time and is not reported separately.
LEAVES = frozenset({
    "cli.build_parser", "cli.load_json", "cli.emit", "cyclotomic.vanishing_sum_test",
    "cyclotomic.divides", "productform.expand_one_stage", "productform.expand_k_stage",
    "digitsets.direct_sum_digits", "cm_tiling.tile_complement",
    "measure.TruncatedMeasure.mu_hat_rational", "measure.mask_value",
})
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


def _digits(d) -> tuple:
    return d.digits if hasattr(d, "digits") else tuple(d)


class _Counters:
    """Per-layer counters read from the arguments and results of a call."""

    def __init__(self):
        self.vanishing_keys: set = set()
        self.coeff_ops = 0
        self.divides_max_degree = 0
        self.factor_max_degree = 0
        self.point_evals = 0

    def before(self, name, args):
        if name == "cyclotomic.vanishing_sum_test":
            d_set, t, n = args[:3]
            self.vanishing_keys.add((tuple(sorted(x % n for x in _digits(d_set))), t % n, n))
        elif name == "cyclotomic.divides":
            f, g = args[:2]
            if not (f.is_zero or g.is_zero):
                df, dg = f.degree, g.degree
                if dg >= df:
                    self.coeff_ops += (dg - df + 1) * (df + 1)
                self.divides_max_degree = max(self.divides_max_degree, dg)
        elif name == "cyclotomic.cyclotomic_factorization":
            self.factor_max_degree = max(self.factor_max_degree, args[0].degree)

    def after(self, name, result):
        if name == "measure.jp_sum":
            self.point_evals += sum(row.count for row in result)


class Tracer:
    def __init__(self):
        self.job = -1
        self.spans: list = []  # (name index, start, end, parent span, job)
        self.calls = {n: 0 for n in NAMES}
        self.total = {n: 0.0 for n in NAMES}
        self.self_time = {n: 0.0 for n in NAMES}
        self.raised = {n: 0 for n in NAMES}
        self.counters = _Counters()
        self.tallies = [0, 0]  # mask_value_rational: calls, digit terms
        self._stack: list[list] = []  # [span index, child time]
        self._active = {n: 0 for n in NAMES}

    def _wrap(self, name: str, fn):
        counters = self.counters
        watched = name in (
            "cyclotomic.vanishing_sum_test", "cyclotomic.divides",
            "cyclotomic.cyclotomic_factorization", "measure.jp_sum",
        )
        if name == COUNT_ONLY:
            tally = self.tallies

            def counted(digits, *args, **kwargs):
                tally[0] += 1
                tally[1] += len(digits)
                return fn(digits, *args, **kwargs)

            return counted

        index = NAMES.index(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if watched:
                counters.before(name, args)
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            slot = len(self.spans)
            self.spans.append(None)
            frame = [slot, 0.0]
            stack.append(frame)
            self._active[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                self._active[name] -= 1
                took = end - start
                if not self._active[name]:
                    self.total[name] += took  # outermost call only, so recursion counts once
                self.self_time[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                self.spans[slot] = (index, start, end, parent, self.job)
            if watched:
                counters.after(name, result)
            return result

        return traced

    def install(self):
        """Patch every spectralforge module attribute bound to a target."""
        modules = [m for k, m in sys.modules.items() if k == "spectralforge" or k.startswith("spectralforge.")]
        for mod_name, fns in TARGETS.items():
            module = importlib.import_module(f"spectralforge.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                    continue
                target = getattr(module, fn_name)
                wrapper = self._wrap(name, target)
                bound = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, attr, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{name} is bound nowhere")

    def summary(self, job_seconds: float) -> dict:
        """Per-layer metrics named ``<module>.<function>.<stat>``."""
        out: dict[str, float] = {}
        for name in NAMES:
            if name == COUNT_ONLY:
                out[f"{name}.calls"] = self.tallies[0]
                continue
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            if name not in LEAVES:
                out[f"{name}.self_s"] = self.self_time[name]
            out[f"{name}.raised"] = self.raised[name]
        c = self.counters
        calls = self.calls["cyclotomic.vanishing_sum_test"]
        out["cyclotomic.vanishing_sum_test.distinct_keys"] = len(c.vanishing_keys)
        out["cyclotomic.vanishing_sum_test.distinct_ratio"] = len(c.vanishing_keys) / calls if calls else 0.0
        out["cyclotomic.divides.coeff_ops"] = c.coeff_ops
        out["cyclotomic.divides.max_degree"] = c.divides_max_degree
        out["cyclotomic.cyclotomic_factorization.max_degree"] = c.factor_max_degree
        out["measure.mask_value_rational.digit_terms"] = self.tallies[1]
        out["measure.jp_sum.point_evals"] = c.point_evals
        # Job time outside every wrapped function below cli.main: argument
        # dispatch, command handlers and helpers no wrapper covers.
        main = NAMES.index("cli.main")
        below_main = sum(
            end - start for (_, start, end, parent, _) in self.spans
            if parent >= 0 and self.spans[parent][0] == main
        )
        out["trace.unattributed_share"] = 1.0 - below_main / job_seconds if job_seconds else 0.0
        return out

    def leaf_violations(self) -> list[str]:
        """Names in LEAVES that did have wrapped children in this pass."""
        bad = {self.spans[parent][0] for (_, _, _, parent, _) in self.spans if parent >= 0}
        return sorted(NAMES[i] for i in bad if NAMES[i] in LEAVES)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": NAMES, "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
