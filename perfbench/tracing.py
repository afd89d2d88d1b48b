"""Timing spans around fedtrap's public functions, installed from outside the package.

`Tracer.install` replaces each traced function or method with a wrapper
that records a span: [name, start, end, parent span index, info]. Spans
stay in memory until the benchmark writes them out; `uninstall` puts the
originals back. Module-level functions are replaced wherever a fedtrap
module holds them (harness imports `sample_run` by name, for instance),
so the spans do not depend on how the package's modules import each
other.

Layer spans are named by the layer's position in the network whose
`backward` is running (`3_conv2d`); layer calls outside `Network.backward`
carry no position.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import numpy as np

from fedtrap import attack, datasets, fedsim, harness, layers, network, optim, trap

NAME, START, END, PARENT, INFO = range(5)


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('fedtrap.')}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._layer_names: dict[int, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, info=None):
        name, spans, stack = _span_name(fn), self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def _replace_function(self, fn, info=None) -> None:
        wrapper = self._wrap(fn, info)
        for modname, module in list(sys.modules.items()):
            if modname != "fedtrap" and not modname.startswith("fedtrap."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr: str, fn=None, info=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(fn or original, info))

    def install(self) -> None:
        self._replace_function(harness.execute_run)
        self._replace_function(harness.run_attack)
        self._replace_function(datasets.sample_run, info=_member_flag)
        self._replace_function(datasets.find_exact_duplicates)
        self._replace_function(trap.craft_parameters)
        self._replace_function(fedsim.client_train)
        self._replace_function(attack.reference_eps)
        self._replace_function(optim.sgd_step)
        self._replace_function(optim.adam_step)
        self._replace_method(datasets.Dataset, "stacked")
        self._replace_method(network.Network, "backward",
                             fn=self._naming_layers(network.Network.backward),
                             info=_backward_info)
        for cls in layers.Layer.__args__:
            self._replace_method(cls, "forward", info=self._layer_info)
            self._replace_method(cls, "backward", info=self._layer_info)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _naming_layers(self, backward):
        def named(net, *args, **kwargs):
            saved = self._layer_names
            self._layer_names = {id(layer): f"{i}_{layer.kind}"
                                 for i, layer in enumerate(net.layers)}
            try:
                return backward(net, *args, **kwargs)
            finally:
                self._layer_names = saved
        named.__module__, named.__qualname__ = backward.__module__, backward.__qualname__
        return named

    def _layer_info(self, args, kwargs, result):
        return self._layer_names.get(id(args[0])), len(args[1])


def _member_flag(args, kwargs, draw):
    return draw.member_flag


def _backward_info(args, kwargs, grad):
    """(batch size, dead): dead means zero outside the final layer's bias."""
    net, ys = args[0], args[2] if len(args) > 2 else kwargs["y"]
    bias = net.layout.slice_of(len(net.layers) - 1, "bias")
    dead = not grad[:bias.start].any() and not grad[bias.stop:].any()
    return len(np.atleast_1d(ys)), dead


# -- per-module metrics from spans ---------------------------------------------

LAYER_POSITIONS = ("0_conv2d", "1_relu", "2_maxpool2d", "3_conv2d", "4_relu",
                   "5_maxpool2d", "6_flatten", "7_linear", "8_relu", "9_linear",
                   "10_relu", "11_linear")


def _median(values: list[float], scale: float = 1.0) -> float:
    """Median times scale; 0.0 when the span never ran (reported, not raised)."""
    return statistics.median(values) * scale if values else 0.0


def span_metrics(spans: list[list], batch_size: int) -> dict[str, tuple[float, str]]:
    """Per-module metrics of a traced phase; keys are the BENCHMARK.json names."""
    duration = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += duration[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(name, keep=lambda i: True):
        return [duration[i] for i in by_name.get(name, ()) if keep(i)]

    def self_time(name, keep=lambda i: True):
        return [duration[i] - child[i] for i in by_name.get(name, ()) if keep(i)]

    def client(i):
        """client_train called by run_attack, not the reference step's."""
        parent = spans[i][PARENT]
        return parent >= 0 and spans[parent][NAME] == "attack.run_attack"

    runs = max(len(by_name.get("harness.execute_run", ())), 1)
    # a call that raised has no info; it is left out of the counts
    backward = [i for i in by_name.get("network.Network.backward", ()) if spans[i][INFO]]
    steps = dur("optim.sgd_step") + dur("optim.adam_step")
    out = {
        "datasets.sample_run_ms.member": (
            _median(dur("datasets.sample_run", lambda i: spans[i][INFO] == 1), 1e3), "ms"),
        "datasets.sample_run_ms.nonmember": (
            _median(dur("datasets.sample_run", lambda i: spans[i][INFO] == 0), 1e3), "ms"),
        "datasets.stacked_ms": (_median(dur("datasets.Dataset.stacked"), 1e3), "ms"),
        "datasets.scan_s": (_median(dur("datasets.find_exact_duplicates")), "s"),
        "trap.craft_ms": (_median(dur("trap.craft_parameters"), 1e3), "ms"),
        "attack.reference_ms": (_median(dur("attack.reference_eps"), 1e3), "ms"),
        "attack.run_attack_self_ms": (_median(self_time("attack.run_attack"), 1e3), "ms"),
        "harness.execute_run_self_ms": (_median(self_time("harness.execute_run"), 1e3), "ms"),
        "fedsim.client_train_ms": (_median(dur("fedsim.client_train", client), 1e3), "ms"),
        "fedsim.client_train_self_ms": (
            _median(self_time("fedsim.client_train", client), 1e3), "ms"),
        "network.backward_ms": (
            _median([duration[i] for i in backward if spans[i][INFO][0] == batch_size], 1e3), "ms"),
        "network.backward_calls": (len(backward) / runs, "count/run"),
        "network.dead_backward_share": (
            sum(spans[i][INFO][1] for i in backward) / max(len(backward), 1), "frac"),
        "optim.step_ms": (_median(steps, 1e3), "ms"),
        "optim.steps": (len(steps) / runs, "count/run"),
    }
    layer_times: dict[tuple[str, str], list[float]] = {}
    for i, s in enumerate(spans):
        if s[NAME].startswith("layers.") and s[INFO] and s[INFO][1] == batch_size:
            direction = "fwd" if s[NAME].endswith(".forward") else "bwd"
            layer_times.setdefault((s[INFO][0], direction), []).append(duration[i])
    for position in LAYER_POSITIONS:
        for direction in ("fwd", "bwd"):
            out[f"layers.{position}.{direction}_ms"] = (
                _median(layer_times.get((position, direction), []), 1e3), "ms")
    return out
