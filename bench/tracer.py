"""Outside-in tracing of the qvbs layers for the benchmark's traced run.

The tracer replaces public qvbs functions with wrappers from outside the
package: every module namespace (and module-level dict) that holds the
original object gets the wrapper, so calls through names imported with
`from .linalg import adjugate` are traced too. Each wrapped call records a
span (id, parent id, name, start, end) in memory; per-function call counts,
inclusive time and self time (inclusive time minus the time covered by
traced child spans, kept on a span stack) are accumulated as the spans
close. Hot arithmetic methods get call counters only. Cache counts come from
`functools.lru_cache.cache_info()`. Nothing is written until `write_spans`.
"""

import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, inclusive_s, all_s, child_s]
        self.counts = {}     # name -> [calls]
        self.spans = []      # (id, parent_id, name, t0, t1)
        self._stack = []     # [span_id, child_s] of the open spans

    # -- wrapping ---------------------------------------------------------

    def span(self, name, fn, on_return=None):
        """Timed wrapper; on_return(args, kwargs, result, dt) sees each call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        depth = [0]
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack) + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            depth[0] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                depth[0] -= 1
                stats[0] += 1
                stats[2] += dt
                stats[3] += frame[1]
                if depth[0] == 0:  # a recursive call is inside its caller
                    stats[1] += dt
                if stack:
                    stack[-1][1] += dt
                spans.append((sid, parent, name, t0, t1))
                if on_return is not None:
                    on_return(args, kwargs, result, dt)

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def replace(self, original, wrapper):
        """Put wrapper wherever a qvbs module holds original."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "qvbs":
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    hits += 1
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            val[dkey] = wrapper
                            hits += 1
        if not hits:
            raise LookupError("nothing to wrap for %r" % (original,))

    # -- results ----------------------------------------------------------

    def calls(self, name):
        if name in self.counts:
            return self.counts[name][0]
        return self.stats.get(name, [0])[0]

    def inclusive_s(self, name):
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name):
        st = self.stats.get(name)
        return st[2] - st[3] if st else 0.0

    def write_spans(self, path):
        names = sorted({s[2] for s in self.spans})
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names}) + "\n")
            index = {n: i for i, n in enumerate(names)}
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write("%d %d %d %.9f %.9f\n" % (sid, parent, index[name],
                                                   t0, t1))


def wrapper_costs(n=20000, repeat=5):
    """Seconds one traced span and one counter add to a call (best of repeat).

    Multiplied by the number of spans and counted calls of a traced pass this
    estimates the tracing overhead without the run-to-run noise of comparing
    two passes."""
    def noop():
        return None

    probe = Tracer()
    spanned, counted = probe.span("noop", noop), probe.counter("noop", noop)
    clock = time.perf_counter

    def best(fn):
        times = []
        for _ in range(repeat):
            t0 = clock()
            for _ in range(n):
                fn()
            times.append(clock() - t0)
        return min(times) / n

    base = best(noop)
    return best(spanned) - base, best(counted) - base
