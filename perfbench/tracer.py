"""Outside-in tracer for the ``nodalseries`` layers.

The tracer replaces each listed public function by a timing wrapper at every
binding it has: the defining module, every ``nodalseries`` module that did
``from .x import f`` (and so holds its own reference), and the package
namespace. Classmethods and methods of ``Matrix``/``Subspace`` are patched on
the class. The program itself is not edited.

Spans nest through one stack. A span's self time is its duration minus the
durations of the wrapped spans nested directly inside it, so the self times
of all functions add up to the summed duration of the top-level spans. Only
per-function aggregates are kept, in memory, split by phase, and read out at
the end of the run.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Layer -> public functions traced in it. A dotted name is an attribute of a
# class defined in that layer.
TARGETS: dict[str, tuple[str, ...]] = {
    "linalg": (
        "rref",
        "kernel_basis",
        "determinant",
        "pluecker",
        "sum_and_intersection",
        "zero_coordinate_section",
        "Matrix.from_rows",
        "Subspace.from_spanning",
        "Subspace.contains",
    ),
    "torus": (
        "act",
        "meet_block",
        "project_block",
        "block_profile",
        "is_fixed",
        "limit",
        "orbit_degree",
        "orbit_intersection",
        "meeting_is_transverse",
    ),
    "delta": ("build_delta", "consecutive_pairs"),
    "curve": ("section_space", "twisted_space_at", "is_generalized_linear_series"),
    "series": (
        "check_compatible",
        "check_exact",
        "numerical_data",
        "membership_failures",
        "reduce_minimal",
        "torus_equivalence_witnesses",
    ),
    "chain": ("build_chain", "validate_chain", "emit_dot"),
    "oracle": (
        "minor_table",
        "subspace_from_minors",
        "limit_via_pluecker",
        "degree_via_pluecker",
        "sample_orbit_check",
    ),
    "generate": (
        "random_subspace",
        "random_nonfixed_subspace",
        "random_linked_pair",
        "random_exact_lls",
        "pad_with_trivial_slots",
        "corrupt_exactness",
    ),
    "serialize": ("loads_instance", "dumps_instance"),
    "cli": ("main",),
}

FUNCTIONS: tuple[str, ...] = tuple(
    f"{layer}.{name}" for layer, names in TARGETS.items() for name in names
)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # inclusive of nested spans
        self.errors = 0


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "nodalseries" or name.startswith("nodalseries."))
    ]


class Tracer:
    """Wraps the functions in ``TARGETS``; ``install``/``uninstall`` toggle it.

    ``phase`` names the part of the run that new spans are charged to.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.stats: dict[str, dict[str, Stat]] = {}
        self.top_level_s = 0.0
        self._stack: list[float] = []
        self._wrappers: dict[str, object] = {}
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            raised = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                stat = self.stat(self.phase, key)
                stat.calls += 1
                stat.self_s += elapsed - nested
                stat.total_s += elapsed
                stat.errors += raised
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed

        return wrapper

    def install(self) -> None:
        if self._patched:
            return
        modules = _package_modules()
        for key in FUNCTIONS:
            layer, _, name = key.partition(".")
            home = sys.modules[f"nodalseries.{layer}"]
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                original = raw.__func__ if is_classmethod else raw
                wrapper = self._wrappers.get(key) or self._wrap(key, original)
                setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)
                self._patched.append((cls, attr, raw))
            else:
                original = getattr(home, name)
                wrapper = self._wrappers.get(key) or self._wrap(key, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapper)
                            self._patched.append((module, binding, original))
            self._originals[key] = original
            self._wrappers[key] = wrapper

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def originals(self) -> dict[str, object]:
        return dict(self._originals)

    # -- read-out -----------------------------------------------------------

    def stat(self, phase: str, key: str) -> Stat:
        per_phase = self.stats.setdefault(phase, {})
        stat = per_phase.get(key)
        if stat is None:
            stat = per_phase[key] = Stat()
        return stat

    def total(self, key: str, phases: tuple[str, ...] | None = None) -> Stat:
        """Aggregate of one function over the given phases (default: all)."""
        out = Stat()
        for phase, per_phase in self.stats.items():
            if phases is not None and phase not in phases:
                continue
            stat = per_phase.get(key)
            if stat is not None:
                out.calls += stat.calls
                out.self_s += stat.self_s
                out.total_s += stat.total_s
                out.errors += stat.errors
        return out
