"""Span tracer that wraps csdcsim's public functions from outside.

Each wrapper records a span: calls, inclusive seconds, and self seconds
(the span minus the spans of its children).  ``protocol``, ``attacks``,
``bases`` and ``cli`` import kernels and helpers by name, so wrapping
``csdcsim.states.measure_qubit`` alone would record nothing: every
module attribute that holds an original is replaced, and methods are
replaced on their classes.  ``uninstall`` puts every original back.

The span name's first component is the layer (the csdcsim module).
"""

from __future__ import annotations

import sys
import time

LAYERS = ("states", "protocol", "attacks", "transcript", "bases", "cli")
KERNELS = (
    "make_state", "tensor", "apply_gate", "apply_cnot",
    "measure_qubit", "collapse_qubit", "measure_bell",
)
PHASES = (
    "prepare_and_distribute", "select_groups", "run_check",
    "controller_round", "encode_and_announce", "receiver_decode",
)
AMPLITUDE_BYTES = 16  # complex128
_ORIGINAL = "__perfbench_original__"


def _csdcsim_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "csdcsim" or name.startswith("csdcsim.")
    ]


def leftover_wrappers() -> list[str]:
    """Names in the loaded csdcsim modules and their classes that still
    hold a tracer wrapper; empty once ``uninstall`` has run."""
    found = []
    for module in _csdcsim_modules():
        for key, value in vars(module).items():
            owners = [(f"{module.__name__}.{key}", value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                owners += [(f"{module.__name__}.{key}.{k}", v) for k, v in vars(value).items()]
            found += [name for name, obj in owners if _ORIGINAL in getattr(obj, "__dict__", {})]
    return found


class Tracer:
    def __init__(self) -> None:
        # span name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        self._open: list[float] = []  # child seconds of each open span
        self._patched: list[tuple[object, str, object]] = []
        self.observe_s = 0.0  # time spent in observers, outside every span
        self.kernel_amps = 0
        self.peak_qubits = 0
        self.sessions = 0
        self.aborted = 0
        self.records = 0
        self.triplets = 0
        self.transcript_records = 0
        self.transcript_bytes = 0

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children = open_spans.pop()
                span[0] += 1
                span[1] += end - start
                span[2] += end - start - children
                if open_spans:
                    open_spans[-1] += end - start
            if observe is not None:
                observe(args, kwargs, result)
                done = clock()
                self.observe_s += done - end
                if open_spans:
                    open_spans[-1] += done - end
            return result

        wrapper.__dict__[_ORIGINAL] = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- observers (run outside the spans they follow) ---------------------

    def _count_state(self, state) -> None:
        self.kernel_amps += state.amps.size
        self.peak_qubits = max(self.peak_qubits, state.num_qubits)

    def _observe_kernel(self, args, kwargs, result) -> None:
        for arg in args:
            if hasattr(arg, "amps"):
                self._count_state(arg)
        self._count_state(result[1] if isinstance(result, tuple) else result)

    def _observe_make_state(self, args, kwargs, result) -> None:
        amplitudes = args[1] if len(args) > 1 else kwargs["amplitudes"]
        self.kernel_amps += len(amplitudes)
        self._count_state(result)

    def _observe_session(self, args, kwargs, result) -> None:
        self.sessions += 1
        self.aborted += 0 if result.completed else 1
        self.records += len(result.records)
        self.triplets += result.config.triplet_count

    def _observe_transcript(self, args, kwargs, result) -> None:
        self.transcript_records += len(args[0])
        self.transcript_bytes += len(result.encode("utf-8"))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        from csdcsim import attacks, bases, cli, protocol, states, transcript

        functions = [
            (states, k, f"states.{k}",
             self._observe_make_state if k == "make_state" else self._observe_kernel)
            for k in KERNELS
        ] + [
            (states, "reorder", "states.reorder", None),
            (states, "inner_product", "states.inner_product", None),
            (bases, "default_decode_table", "bases.default_decode_table", None),
            (bases, "bell_state_vector", "bases.bell_state_vector", None),
            (bases, "ghz_state_vector", "bases.ghz_state_vector", None),
            (attacks, "estimate_detection", "attacks.estimate_detection", None),
            (attacks, "eve_group_information", "attacks.eve_group_information", None),
            (transcript, "format_transcript", "transcript.format_transcript",
             self._observe_transcript),
            (cli, "main", "cli.main", None),
        ]
        methods = [
            (protocol.Session, "__init__", "protocol.session_init", None),
            (protocol.Session, "run", "protocol.run", self._observe_session),
        ] + [
            (protocol.Session, phase, f"protocol.{phase}", None) for phase in PHASES
        ] + [
            (model, "tap", "attacks.tap", None)
            for model in (attacks.NoAttack, attacks.InterceptResend, attacks.EntangleMeasure)
        ] + [
            (bases.DecodeTable, "decode", "bases.decode", None),
        ]

        modules = _csdcsim_modules()
        for owner, attr, name, observe in functions:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        for cls, attr, name, observe in methods:
            original = vars(cls)[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.spans.items() if name.split(".")[0] == layer)

    def calls(self, name: str) -> int:
        return self.spans[name][0]

    def inclusive_s(self, name: str) -> float:
        return self.spans[name][1]

    def self_s(self, name: str) -> float:
        return self.spans[name][2]

    def kernel_calls(self) -> int:
        return sum(self.calls(f"states.{k}") for k in KERNELS)
