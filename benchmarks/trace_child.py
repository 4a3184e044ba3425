"""Traced run of one ``tightmaps`` command in a fresh process.

    python benchmarks/trace_child.py <tightmaps arguments>

The public functions of every layer are wrapped by rebinding their names in
each ``tightmaps`` module that holds them (``from .rootsys import ...``
copies the name, so patching ``rootsys`` alone would miss the callers).
Then the command runs in-process through ``tightmaps.cli.main``, cold.  A
sweep then runs a second time warm, and a third time cold again after
``cache_clear()`` on every ``lru_cache`` of the package.  All wrappers are
restored at the end.

Spans are folded into per-function aggregates as they close (call count,
inclusive and self time), because ``eval_on_coroot`` alone is called
hundreds of thousands of times per sweep.  Self time is a span's duration
minus the time of the spans it caused.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter

import check

# Wrapped public functions per layer; ``cli._emit`` is reported as
# ``cli.emit``.
LAYER_FUNCTIONS = {
    "rootsys": ("weight_multiplicities", "eval_on_coroot", "dimension"),
    "branching": ("evaluation_multiset", "restrict_rep", "even_witness"),
    "su11": ("sym_power_rep", "tensor_rep", "tensor_signature", "pairing"),
    "kahler": ("run_lemma_fixtures", "compose", "pullback"),
    "classify": ("constructive_verdict", "theorem_tight", "replay_witness",
                 "cross_check", "sweep"),
    "cli": ("_emit",),
}


def span_name(layer: str, fname: str) -> str:
    return f"{layer}.{fname.lstrip('_')}"


SPAN_NAMES = tuple(span_name(layer, f) for layer, names in LAYER_FUNCTIONS.items() for f in names)


def _module(layer: str):
    # ``tightmaps.classify`` as an attribute is the re-exported function,
    # so modules are taken from ``sys.modules``.
    return sys.modules[f"tightmaps.{layer}"]


def _count_result(name: str, args: tuple, result, counts: Counter) -> None:
    if name == "rootsys.weight_multiplicities":
        counts["rootsys.weights_returned"] += len(result)
    elif name == "branching.restrict_rep":
        counts["branching.factors"] += len(result.factors)
    elif name == "su11.pairing":
        counts["su11.pairing.terms"] += len(args[0])
    elif name == "classify.replay_witness":
        counts["classify.replay.attempted"] += 1
        counts["classify.replay.ok"] += bool(result)


class Tracer:
    """Wraps the layer functions and aggregates their spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._children = [0]  # time of closed child spans, per open span
        self._rebound: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls, self.self_ns = Counter(), Counter()
        self.total_ns, self.counts = Counter(), Counter()

    def _wrap(self, name: str, fn):
        children = self._children
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            children.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = children.pop()
                children[-1] += span
                tracer.calls[name] += 1
                tracer.total_ns[name] += span
                tracer.self_ns[name] += span - inner
            _count_result(name, args, result, tracer.counts)
            return result

        return traced

    def install(self) -> None:
        package = [
            mod for key, mod in sys.modules.items()
            if key == "tightmaps" or key.startswith("tightmaps.")
        ]
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                original = getattr(_module(layer), fname)
                wrapper = self._wrap(span_name(layer, fname), original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each name is the original again."""
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        return all(getattr(mod, attr) is original for mod, attr, original in self._rebound)

    def layers(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
            "counts": dict(self.counts),
        }


def _lru_caches() -> list:
    caches = []
    for key, mod in sys.modules.items():
        if key.startswith("tightmaps."):
            caches += [v for v in vars(mod).values() if hasattr(v, "cache_clear")]
    return caches


def _run(argv: list[str], digests: dict) -> dict:
    from tightmaps import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    text = out.getvalue()
    problems = check.check_output(argv, code, text, digests)
    digest = check.report_digest(json.loads(text)) if not problems else None
    return {"problems": problems, "digest": digest, "bytes_out": len(text.encode())}


def _table_info() -> dict:
    info = _module("rootsys")._multiplicity_table.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def main(argv: list[str]) -> dict:
    import tightmaps.cli  # noqa: F401  (loads every submodule)

    digests = check.load_digests()
    tracer = Tracer()
    tracer.install()
    cold = _run(argv, digests)
    cold_done = time.perf_counter()
    result = {
        "problems": cold["problems"],
        "digest": cold["digest"],
        "bytes_out": cold["bytes_out"],
        "layers": tracer.layers(),
        "table": _table_info(),
    }
    if argv[0] == "sweep":
        sweep_ms = tracer.total_ns["classify.sweep"] / 1e6
        before = _table_info()
        tracer.reset()
        warm = _run(argv, digests)
        after = _table_info()
        warm_ms = tracer.total_ns["classify.sweep"] / 1e6
        for cache in _lru_caches():
            cache.cache_clear()
        tracer.reset()
        again = _run(argv, digests)
        result["sweep"] = {
            "cold_ms": sweep_ms,
            "warm_ms": warm_ms,
            "cold_repeat_ms": tracer.total_ns["classify.sweep"] / 1e6,
            "warm_hits": after["hits"] - before["hits"],
            "warm_misses": after["misses"] - before["misses"],
            "repeat_misses": _table_info()["misses"],
        }
        for name, rerun in (("warm", warm), ("cold repeat", again)):
            result["problems"] += [f"{name}: {p}" for p in rerun["problems"]]
            if rerun["digest"] != cold["digest"]:
                result["problems"].append(f"{name} run digest differs from the cold run's")
    result["restored"] = tracer.restore()
    result["post_cold_s"] = time.perf_counter() - cold_done
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
