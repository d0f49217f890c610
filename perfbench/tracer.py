"""Run the bosonspectra CLI in this process with spans at module boundaries.

Usage: python perfbench/tracer.py SUMMARY_PATH CLI_ARG...

Wherever one package module holds a function imported from another
(``network.permanent_ryser``, ``sampling.amplitude_ideal``,
``cli.fock_evolve``, ...), that binding is replaced by a timing
wrapper before the CLI runs. The bindings are found at run time, so a
renamed or added function is traced without editing this file. A root
span covers ``cli.main`` and a child span ``cli.load_config``.

A span is attributed to the layer that owns the called function. Its
self time is its duration minus the durations of its child spans,
which the stack of open spans adds up as each child ends. Generator
functions are timed per resume: every ``next()`` is its own span,
parented to whatever span was active when the consumer asked for the
item, so the consumer's own work between items is not charged to the
generator.

Spans stay in memory until ``cli.main`` returns. Then SUMMARY_PATH
gets one JSON object of this job's per-layer numbers (see
``summarize``).
"""

import importlib
import inspect
import json
import sys
import time

LAYERS = ("permanent", "network", "spectra", "sampling", "oracle", "cli")
PACKAGE = "bosonspectra"


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "self_ns", "children_ns",
                 "count", "call", "generator", "probability")

    def __init__(self, sid: int, parent: int, name: str, start: int):
        self.sid, self.parent, self.name, self.start = sid, parent, name, start
        self.children_ns = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else 0
        span = Span(len(self.spans) + 1, parent, name, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, count: int, call: bool, generator: bool, probability: bool) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        duration = span.end - span.start
        span.self_ns = duration - span.children_ns
        if self._stack:
            self._stack[-1].children_ns += duration
        span.count, span.call, span.generator, span.probability = count, call, generator, probability

    def summarize(self, main_ns: int) -> dict:
        """Self time, calls and work counts per layer.

        ``count`` is a per-span work count: the dimension of a
        permanent, the items a generator span yielded, the outcomes in a
        returned distribution (1 for a returned probability), or the
        amplitudes in a returned Fock state.
        """
        out = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("self_s", "calls")}
        out.update(dict.fromkeys(("permanent.max_k", "permanent.gray_steps", "sampling.outcomes",
                                  "sampling.mixture_terms", "spectra.configurations",
                                  "oracle.readouts", "oracle.fock_states", "cli.parse_s"), 0.0))
        self_ns = dict.fromkeys(LAYERS, 0)
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            self_ns[layer] += s.self_ns
            out[f"{layer}.calls"] += s.call
            if layer == "permanent" and s.call:
                out["permanent.max_k"] = max(out["permanent.max_k"], s.count)
                out["permanent.gray_steps"] += 2.0**s.count - 1.0
            elif layer == "sampling" and not s.generator:
                out["sampling.outcomes"] += s.count
            elif layer == "sampling" and s.name.endswith(".mixture_tuples"):
                out["sampling.mixture_terms"] += s.count
            elif layer == "spectra" and s.generator:
                out["spectra.configurations"] += s.count
            elif layer == "oracle" and not s.generator:
                out["oracle.readouts" if s.probability else "oracle.fock_states"] += (
                    1 if s.probability else s.count)
            elif s.name == "cli.load_config":
                out["cli.parse_s"] += (s.end - s.start) / 1e9
        for layer, ns in self_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        # Bookkeeping check against a time taken outside every span: it is
        # not 0 if a span was left open or a child's time was not taken off
        # its parent exactly once. It says nothing about how much the
        # wrappers inflate the layers; trace.overhead_ratio does.
        out["reconcile_error"] = abs(sum(self_ns.values()) - main_ns) / main_ns
        return out


def _result_count(layer: str, args, result) -> int:
    if layer == "permanent" and args:
        return len(args[0])
    if isinstance(result, dict):
        return len(result)
    if isinstance(result, float):
        return 1
    amplitudes = getattr(result, "amplitudes", None)
    return len(amplitudes) if isinstance(amplitudes, dict) else 0


def wrap_function(tracer: Tracer, layer: str, fn):
    name = f"{layer}.{fn.__name__}"

    def traced(*args, **kwargs):
        span = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end(span, _result_count(layer, args, result), True, False,
                       isinstance(result, float))

    return traced


def wrap_generator(tracer: Tracer, layer: str, fn):
    name = f"{layer}.{fn.__name__}"

    def resume(inner):
        first = True
        while True:
            span = tracer.begin(name)
            yielded = 0
            try:
                item = next(inner)
                yielded = 1
            except StopIteration:
                return
            finally:
                tracer.end(span, yielded, first, True, False)
                first = False
            yield item

    def traced(*args, **kwargs):
        return resume(fn(*args, **kwargs))

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every cross-module function binding of the package, and cli.load_config."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    owners = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
    for importer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            owner = owners.get(getattr(obj, "__module__", None))
            if not inspect.isfunction(obj) or owner is None or owner == importer:
                continue
            wrap = wrap_generator if inspect.isgeneratorfunction(obj) else wrap_function
            setattr(module, attr, wrap(tracer, owner, obj))
    cli = modules["cli"]
    cli.load_config = wrap_function(tracer, "cli", cli.load_config)


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    traced_main = wrap_function(tracer, "cli", cli.main)
    start = time.perf_counter_ns()
    code = traced_main(cli_args)
    main_ns = time.perf_counter_ns() - start
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summarize(main_ns), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
