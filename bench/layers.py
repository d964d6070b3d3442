"""Which qvbs functions the traced run wraps, and the per-layer metrics.

`PER_LAYER` lists every per-layer metric by name and unit, in the order the
benchmark reports them; `install` wraps the functions behind them and
returns a `collect` callable that turns the tracer's counts into values.
"""

import importlib

from tracer import wrapper_costs

# (layer name, module, attribute path, reported fields)
SPANS = [
    ("qnum.divmod_by", "qvbs.qnum", "LaurentQ.divmod_by", ("calls", "s")),
    ("qnum.laurent_gcd", "qvbs.qnum", "laurent_gcd", ("calls", "s")),
    ("linalg.bareiss_det", "qvbs.linalg", "bareiss_det", ("calls", "self_s")),
    ("linalg.adjugate", "qvbs.linalg", "adjugate", ("calls", "self_s")),
    ("weylrep.poly_to_spin", "qvbs.weylrep", "poly_to_spin", ("calls", "self_s")),
    ("weylrep.coproduct_apply", "qvbs.weylrep", "coproduct_apply",
     ("calls", "self_s")),
    ("cgproj.sector_system", "qvbs.cgproj", "sector_system",
     ("calls", "s", "hit_ratio")),
    ("cgproj.check_divisibility", "qvbs.cgproj", "check_divisibility", ("s",)),
    ("cgproj.hamiltonian", "qvbs.cgproj", "hamiltonian", ("self_s",)),
    ("cgproj.Projector.to_dense", "qvbs.cgproj", "Projector.to_dense", ("s",)),
    ("vbsstate.verify_annihilation", "qvbs.vbsstate", "verify_annihilation",
     ("calls", "self_s")),
    ("vbsstate.verify_two_site_lemma", "qvbs.vbsstate", "verify_two_site_lemma",
     ("s",)),
    ("vbsstate.build_pbc", "qvbs.vbsstate", "build_pbc", ("self_s",)),
    ("mpscore.contract_pbc", "qvbs.mpscore", "contract_pbc", ("self_s",)),
    ("mpscore.dense_pbc_state", "qvbs.mpscore", "dense_pbc_state",
     ("calls", "self_s")),
    ("mpscore.dense_pbc_two_point_sz", "qvbs.mpscore", "dense_pbc_two_point_sz",
     ("self_s",)),
] + [
    ("transfercorr." + fn, "qvbs.transfercorr", fn, ("calls", "self_s"))
    for fn in ("transfer_matrix", "eigensystem", "two_point_thermo",
               "two_point_finite", "closed_form_szsz", "conjecture_check")
] + [
    ("transfercorr.exact_trace_power", "qvbs.transfercorr", "exact_trace_power",
     ("s",)),
    ("transfercorr.conjecture_exact_certificate", "qvbs.transfercorr",
     "conjecture_exact_certificate", ("self_s",)),
    ("cli.main", "qvbs.cli", "main", ("calls", "self_s")),
]

# call counters only, no timers: these run hundreds of thousands of times
COUNTERS = [
    ("qnum.LaurentQ.mul", "LaurentQ", ("__mul__", "__rmul__")),
    ("qnum.LaurentQ.add", "LaurentQ", ("__add__", "__radd__")),
    ("qnum.RatQ.new", "RatQ", ("__init__",)),
]

SUITES = ("groundstate", "divisibility", "mps", "algebra", "certificates")

# known slow spots of the exact and dense layers, each timed on its own;
# seconds per matching call (for sector_system(3) only the first, cold, one)
SPOTS = ("sector_system_3_cold", "verify_annihilation_pbc_3_4",
         "exact_trace_power_4_5", "dense_pbc_two_point_sz_2_10",
         "hamiltonian_1_10")

UNITS = {"calls": "count", "s": "s", "self_s": "s", "hit_ratio": "ratio",
         "currsize": "count"}

PER_LAYER = (
    [("%s.%s" % (name, f), UNITS[f]) for name, _, _, fields in SPANS
     for f in fields]
    + [("%s.calls" % name, "count") for name, _, _ in COUNTERS]
    + [("transfercorr.lru.hit_ratio", "ratio"),
       ("transfercorr.lru.currsize", "count")]
    + [("suites.%s.s" % s, "s") for s in SUITES]
    + [("spot.%s.s" % s, "s") for s in SPOTS]
    + [("cli.wide_range.attempted", "count"),
       ("cli.wide_range.failed", "count")]
    + [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
       ("trace.overhead_est_s", "s"), ("trace.spans", "count")]
)


def _resolve(modname, path):
    obj = importlib.import_module(modname)
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _lru_caches(module):
    return [v for v in vars(module).values() if hasattr(v, "cache_info")]


def _lru_totals(caches):
    infos = [c.cache_info() for c in caches]
    return (sum(i.hits for i in infos), sum(i.misses for i in infos),
            sum(i.currsize for i in infos))


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def install(tracer):
    """Wrap every traced function; return collect() -> metric values.

    trace.overhead_s and trace.overhead_frac compare two processes, so the
    caller adds them."""
    from qvbs import cgproj, suites, transfercorr

    spot_times = {name: [] for name in SPOTS}
    pbc_3_4 = []  # states built by build_pbc(3, 4), recognised by identity

    def spot_hook(name, match):
        def hook(args, kwargs, result, dt):
            if match(args, kwargs, result):
                spot_times[name].append(dt)
        return hook

    def keep_pbc_3_4(args, kwargs, result, dt):
        if args[:2] == (3, 4):
            pbc_3_4.append(result)

    def on_pbc_3_4(args, kwargs, result):
        boundary = args[1] if len(args) > 1 else kwargs.get("boundary",
                                                            "periodic")
        return boundary == "periodic" and any(args[0] is s for s in pbc_3_4)

    hooks = {
        "cgproj.sector_system": spot_hook(
            "sector_system_3_cold",
            lambda a, k, r: a[:1] == (3,) and not spot_times[
                "sector_system_3_cold"]),
        "vbsstate.build_pbc": keep_pbc_3_4,
        "vbsstate.verify_annihilation": spot_hook(
            "verify_annihilation_pbc_3_4", on_pbc_3_4),
        "transfercorr.exact_trace_power": spot_hook(
            "exact_trace_power_4_5", lambda a, k, r: a[:2] == (4, 5)),
        "mpscore.dense_pbc_two_point_sz": spot_hook(
            "dense_pbc_two_point_sz_2_10", lambda a, k, r: a[:2] == (2, 10)),
        "cgproj.hamiltonian": spot_hook(
            "hamiltonian_1_10", lambda a, k, r: a[:2] == (1, 10)),
    }

    sector_cache = cgproj.sector_system
    tc_caches = _lru_caches(transfercorr)
    sector_before = sector_cache.cache_info()
    tc_before = _lru_totals(tc_caches)

    for name, modname, path, _ in SPANS:
        owner, fn = _resolve(modname, path)
        wrapper = tracer.span(name, fn, hooks.get(name))
        if isinstance(owner, type):
            setattr(owner, path.rsplit(".", 1)[1], wrapper)
        else:
            tracer.replace(fn, wrapper)
    for name, clsname, attrs in COUNTERS:
        cls = getattr(importlib.import_module("qvbs.qnum"), clsname)
        for attr in attrs:
            setattr(cls, attr, tracer.counter(name, vars(cls)[attr]))
    for suite in SUITES:
        fn = suites.SUITE_BY_NAME[suite]
        tracer.replace(fn, tracer.span("suites." + suite, fn))

    def collect():
        values = {}
        for name, _, _, fields in SPANS:
            for f in fields:
                if f == "calls":
                    v = tracer.calls(name)
                elif f == "s":
                    v = tracer.inclusive_s(name)
                elif f == "self_s":
                    v = tracer.self_s(name)
                else:  # hit_ratio: only sector_system reports one
                    after = sector_cache.cache_info()
                    v = _ratio(after.hits - sector_before.hits,
                               after.misses - sector_before.misses)
                values["%s.%s" % (name, f)] = v
        for name, _, _ in COUNTERS:
            values[name + ".calls"] = tracer.calls(name)
        hits, misses, size = _lru_totals(tc_caches)
        values["transfercorr.lru.hit_ratio"] = _ratio(hits - tc_before[0],
                                                      misses - tc_before[1])
        values["transfercorr.lru.currsize"] = size
        for suite in SUITES:
            values["suites.%s.s" % suite] = tracer.inclusive_s("suites." + suite)
        for spot, times in spot_times.items():
            values["spot.%s.s" % spot] = sum(times) / len(times) if times else 0.0
        span_cost, counter_cost = wrapper_costs()
        counted = sum(cell[0] for cell in tracer.counts.values())
        values["trace.spans"] = len(tracer.spans)
        values["trace.overhead_est_s"] = (len(tracer.spans) * span_cost
                                          + counted * counter_cost)
        return values

    return collect
