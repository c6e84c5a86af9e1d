"""Spans around the calls into each omxsim layer, recorded from outside.

`Tracer.install` replaces a module function with a recording wrapper in
every omxsim namespace that binds it, so both `fock.apply(...)` and a
`from .fock import apply` caller go through the wrapper.  Spans stay in
memory as parallel arrays (name, start, end, parent, the tracer's own
time inside the span, and two integer attributes) and are written out once,
when the run ends.  Self time is a
span's duration minus the durations of its direct children and minus the
tracer's own bookkeeping inside it (the wrapper's entry and the attribute
counting of its children); the run is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

# (module, function, span name) of every recorded boundary.  The element
# constructors share one span name: together they are element construction.
HOOKS = (
    ("omxsim.cli", "main", "cli.main"),
    ("omxsim.dsl", "compile_source", "dsl.compile_source"),
    ("omxsim.protocols", "execute_plan", "protocols.execute_plan"),
    ("omxsim.protocols", "sweep_fidelity", "protocols.sweep_fidelity"),
    ("omxsim.protocols", "readout", "protocols.readout"),
    ("omxsim.measurement", "bell_state_vectors", "measurement.bell_state_vectors"),
    ("omxsim.plans", "initial_vector", "plans.initial_vector"),
    ("omxsim.plans", "component_weight", "plans.component_weight"),
    ("omxsim.fock", "apply", "fock.apply"),
    ("omxsim.fock", "partial_trace", "fock.partial_trace"),
) + tuple(("omxsim.elements", fn, "elements.build") for fn in (
    "beam_splitter_50_50", "half_wave_plate", "quarter_wave_plate", "pbs",
    "phase_shift", "stokes_scatter", "antistokes_swap", "pdc_evolution"))

# Spans that make up the propagation inside a sweep; the rest of the sweep
# is per-point reweighting (plus herald projection, once per component).
PROPAGATION = ("plans.initial_vector", "fock.apply")


def _apply_attrs(result) -> tuple[int, int]:
    """(registry dimension, nonzero output amplitudes) of one fock.apply."""
    import numpy as np

    data = getattr(result, "amplitudes", None)
    if data is None:
        data = result.matrix
    return result.registry.dimension, int(np.count_nonzero(data))


def _sweep_attrs(args, kwargs) -> int:
    grid = kwargs.get("grid", args[1] if len(args) > 1 else ())
    return len(grid)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tare = array("d")     # tracer bookkeeping inside the span
        self.dim = array("q")      # fock.apply: registry dimension
        self.value = array("q")    # fock.apply: nonzero amplitudes; sweep: points
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self):
        for module_name, fn_name, span_name in HOOKS:
            module = sys.modules[module_name]
            original = getattr(module, fn_name)
            wrapper = self._wrap(original, span_name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "omxsim" and not mod_name.startswith("omxsim."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, fn, span_name: str):
        nid = self._name_ids.setdefault(span_name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(span_name)
        is_apply = span_name == "fock.apply"
        is_sweep = span_name == "protocols.sweep_fidelity"
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            self.name_id.append(nid)
            self.parent.append(parent)
            self.start.append(0.0)
            self.end.append(0.0)
            self.tare.append(0.0)
            self.dim.append(0)
            self.value.append(_sweep_attrs(args, kwargs) if is_sweep else 0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if is_apply:
                self.dim[idx], self.value[idx] = _apply_attrs(result)
            if parent >= 0:
                self.tare[parent] += (t0 - entered) + (clock() - t1)
            return result

        return wrapper

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_s,end_s,parent,tare_s,dim,value\n")
            for i, nid in enumerate(self.name_id):
                out.write(f"{i},{self.names[nid]},{self.start[i]:.9f},"
                          f"{self.end[i]:.9f},{self.parent[i]},{self.tare[i]:.9f},"
                          f"{self.dim[i]},{self.value[i]}\n")

    def layer_metrics(self, since: float, rounds: int, setup_window: tuple[float, float]
                      ) -> dict[str, float]:
        """The per-layer table: round-phase spans (start >= `since`) per round,
        and `dsl.compile_source` over the set-up window."""
        import numpy as np

        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dim = np.frombuffer(self.dim, dtype=np.int64)
        value = np.frombuffer(self.value, dtype=np.int64)
        tare = np.frombuffer(self.tare, dtype=np.float64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child - tare
        in_rounds = start >= since

        def mask(name: str, window=None) -> np.ndarray:
            nid = self._name_ids.get(name, -1)
            m = name_id == nid
            if window is None:
                return m & in_rounds
            return m & (start >= window[0]) & (end <= window[1])

        def per_round_ms(name: str) -> float:
            return float(self_s[mask(name)].sum()) * 1e3 / rounds

        def per_round_calls(name: str) -> float:
            return float(mask(name).sum()) / rounds

        apply = mask("fock.apply")
        apply_dim = dim[apply]
        out = {
            "fock.apply.calls": per_round_calls("fock.apply"),
            "fock.apply.self_ms": per_round_ms("fock.apply"),
            "fock.apply.mb_moved": float((2 * 16 * apply_dim).sum()) / 1e6 / rounds,
            "fock.apply.support_ratio": (float(np.mean(value[apply] / apply_dim))
                                         if apply.any() else 0.0),
            "fock.partial_trace.self_ms": per_round_ms("fock.partial_trace"),
            "elements.build.calls": per_round_calls("elements.build"),
            "elements.build.self_ms": per_round_ms("elements.build"),
            "plans.initial_vector.calls": per_round_calls("plans.initial_vector"),
            "plans.component_weight.calls": per_round_calls("plans.component_weight"),
            "plans.component_weight.self_ms": per_round_ms("plans.component_weight"),
            "measurement.bell_state_vectors.self_ms":
                per_round_ms("measurement.bell_state_vectors"),
            "protocols.execute_plan.self_ms": per_round_ms("protocols.execute_plan"),
            "protocols.sweep_fidelity.reweight_us_per_point": self._reweight_us(
                mask("protocols.sweep_fidelity"), dur - tare, value, name_id, parent),
            "protocols.readout.self_ms": per_round_ms("protocols.readout"),
            "dsl.compile_source.self_ms":
                float(self_s[mask("dsl.compile_source", setup_window)].sum()) * 1e3,
            "cli.main.self_ms": per_round_ms("cli.main"),
        }
        return out

    def _reweight_us(self, sweeps, dur, value, name_id, parent) -> float:
        """Sweep time not covered by propagation spans, per grid point.

        `dur` is net of tracer bookkeeping; propagation spans are direct
        children of the sweep today, but any descendant counts."""
        import numpy as np

        prop_ids = [self._name_ids[n] for n in PROPAGATION if n in self._name_ids]
        sweep_idx = set(np.flatnonzero(sweeps).tolist())
        covered = dict.fromkeys(sweep_idx, 0.0)
        for i in np.flatnonzero(np.isin(name_id, prop_ids)).tolist():
            p = parent[i]
            while p >= 0 and p not in sweep_idx:
                p = parent[p]
            if p >= 0:
                covered[p] += dur[i]
        points = int(value[sweeps].sum())
        if not points:
            return 0.0
        rest = sum(dur[i] - covered[i] for i in sweep_idx)
        return float(rest) * 1e6 / points
