"""In-memory span recorder and the layer instrumentation of the traced run.

The traced run measures the layers on the ensemble path from outside the
program: every layer entry point that ``qtraj.runner`` calls is rebound, in
the ``qtraj.runner`` namespace only, to a wrapper that records a span around
the call. Nothing under ``src/`` changes. Calls a layer makes internally are
not seen; on the ensemble path each layer is entered from the runner, so layer
spans are children of a chunk span or of the ensemble span.

Layers: runner, jumps, diffusive, recovery, entangle, master. ``qcore`` runs
only inside the others and ``reservoir`` and ``cli`` are off the ensemble
path, so they are not measured.
"""

import time
from contextlib import contextmanager

import qtraj.runner as runner

LAYERS = ("runner", "jumps", "diffusive", "recovery", "entangle", "master")

# runner-namespace name -> layer; the span is named "<layer>.<name>"
ENTRY_POINTS = {
    "_run_chunk": "runner",
    "run_jump_trajectory": "jumps",
    "run_diffusive_trajectory": "diffusive",
    "run_protecting_unitary_trajectory": "diffusive",
    "frame_from_events": "recovery",
    "recover": "recovery",
    "recover_unitary": "recovery",
    "concurrence": "entangle",
    "trace_distance": "entangle",
    "integrate_master": "master",
}

ROOT_SPAN = "runner.run_ensemble"

# every per-layer metric of the traced run, with its unit
UNITS = {
    "runner.run_ensemble.s": "s",
    "runner.run_ensemble.self_s": "s",
    "runner.chunks": "count",
    "jumps.run_jump_trajectory.s": "s",
    "jumps.run_jump_trajectory.calls": "count",
    "jumps.us_per_traj_step": "us",
    "jumps.events": "count",
    "jumps.events_detected": "count",
    "jumps.sample_bytes": "B",
    "diffusive.run_diffusive_trajectory.s": "s",
    "diffusive.run_diffusive_trajectory.calls": "count",
    "diffusive.sme_us_per_traj_step": "us",
    "diffusive.run_protecting_unitary_trajectory.s": "s",
    "diffusive.run_protecting_unitary_trajectory.calls": "count",
    "diffusive.unitary_us_per_traj_step": "us",
    "recovery.frame_from_events.s": "s",
    "recovery.frame_from_events.calls": "count",
    "recovery.events_scanned": "count",
    "recovery.events_folded_ratio": "ratio",
    "recovery.recover.s": "s",
    "recovery.recover.calls": "count",
    "recovery.recover_unitary.s": "s",
    "recovery.recover_unitary.calls": "count",
    "entangle.concurrence.s": "s",
    "entangle.concurrence.calls": "count",
    "entangle.concurrence.us_per_call": "us",
    "entangle.trace_distance.s": "s",
    "entangle.trace_distance.calls": "count",
    "master.integrate_master.s": "s",
    "master.integrate_master.calls": "count",
    "master.states_stored": "count",
    "master.states_read_ratio": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}

# positional index of the per-trajectory seed in each kernel's signature
_SEED_ARG = {
    "run_jump_trajectory": 5,
    "run_diffusive_trajectory": 5,
    "run_protecting_unitary_trajectory": 4,
}


class Tracer:
    """Columnar span store: name, start, end, parent span and trajectory index.

    Columns are flat lists of str/float/int so that recording allocates no
    container the garbage collector has to track. Results that counters need
    are kept by reference and counted after the run, so counting adds only
    an append to the traced call.
    """

    def __init__(self, seed_index: dict[int, int] | None = None):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.traj: list[int] = []
        self.seed_index = seed_index or {}
        self.current_traj = -1
        self.kept: dict[str, list] = {}
        self.master_reads = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.traj.append(self.current_traj)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def keep(self, key: str, value) -> None:
        self.kept.setdefault(key, []).append(value)

    def __len__(self) -> int:
        return len(self.name)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Span duration minus the part of it its children cover.

        Children run one after another inside their parent, so the covered
        part is the sum of their durations.
        """
        durations = self.durations()
        own = list(durations)
        for sid, dur in enumerate(durations):
            p = self.parent[sid]
            if p >= 0:
                own[p] -= dur
        return own

    def to_json(self) -> dict:
        names = sorted(set(self.name))
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": [code[n] for n in self.name],
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "traj": self.traj,
        }


def _wrap(tracer: Tracer, entry: str, fn):
    span = f"{ENTRY_POINTS[entry]}.{entry}"
    seed_pos = _SEED_ARG.get(entry)

    def traced(*args, **kwargs):
        if seed_pos is not None:
            seed = kwargs["seed"] if "seed" in kwargs else args[seed_pos]
            tracer.current_traj = tracer.seed_index.get(seed, -1)
        sid = tracer.begin(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.finish(sid)
        if entry == "_run_chunk":
            tracer.current_traj = -1
        elif seed_pos is not None:
            tracer.keep(entry, out)
        elif entry == "frame_from_events":
            tracer.keep(entry, (args, kwargs))
        elif entry == "integrate_master":
            tracer.keep(entry, len(out.values))
            lookup = out.at

            def counted_at(t, *a, **kw):
                tracer.master_reads += 1
                return lookup(t, *a, **kw)

            out.at = counted_at
        return out

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind the runner's layer entry points to span-recording wrappers."""
    saved = {entry: getattr(runner, entry) for entry in ENTRY_POINTS}
    try:
        for entry, fn in saved.items():
            setattr(runner, entry, _wrap(tracer, entry, fn))
        yield tracer
    finally:
        for entry, fn in saved.items():
            setattr(runner, entry, fn)


def traced_call(fn, config, seed_index: dict[int, int]):
    """Run ``fn(config)`` under a root span with every layer instrumented."""
    tracer = Tracer(seed_index)
    with instrumented(tracer):
        root = tracer.begin(ROOT_SPAN)
        try:
            out = fn(config)
        finally:
            tracer.finish(root)
    return out, tracer


def _folded(events, n_qubits, include_undetected=False, up_to_time=None) -> int:
    """Events ``recovery.frame_from_events`` folds into the frame."""
    return sum(
        1
        for e in events
        if (up_to_time is None or e.time <= up_to_time + 1e-12)
        and (e.detected or include_undetected)
    )


def layer_metrics(tracer: Tracer, n_steps: int) -> dict[str, float]:
    """Per-layer totals, counts and shares of one traced ensemble call."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, dur in zip(tracer.name, tracer.durations()):
        totals[name] = totals.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, own in zip(tracer.name, tracer.self_times()):
        layer_self[name.split(".", 1)[0]] += own
    root = totals[ROOT_SPAN]

    def s(span):
        return totals.get(span, 0.0)

    def n(span):
        return calls.get(span, 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    kept = tracer.kept
    jump_records = kept.get("run_jump_trajectory", [])
    events = [e for rec in jump_records for e in rec.events]
    frames = kept.get("frame_from_events", [])
    scanned = sum(len(args[0]) for args, _ in frames)
    folded = sum(_folded(*args, **kwargs) for args, kwargs in frames)
    stored = sum(kept.get("integrate_master", []))

    jumps_s = s("jumps.run_jump_trajectory")
    sme_s = s("diffusive.run_diffusive_trajectory")
    unitary_s = s("diffusive.run_protecting_unitary_trajectory")
    conc_s = s("entangle.concurrence")
    out = {
        "runner.run_ensemble.s": root,
        "runner.run_ensemble.self_s": layer_self["runner"],
        "runner.chunks": n("runner._run_chunk"),
        "jumps.run_jump_trajectory.s": jumps_s,
        "jumps.run_jump_trajectory.calls": n("jumps.run_jump_trajectory"),
        "jumps.us_per_traj_step": per(jumps_s, n("jumps.run_jump_trajectory") * n_steps, 1e6),
        "jumps.events": len(events),
        "jumps.events_detected": sum(1 for e in events if e.detected),
        "jumps.sample_bytes": sum(x.nbytes for rec in jump_records for x in rec.samples or ()),
        "diffusive.run_diffusive_trajectory.s": sme_s,
        "diffusive.run_diffusive_trajectory.calls": n("diffusive.run_diffusive_trajectory"),
        "diffusive.sme_us_per_traj_step": per(
            sme_s, n("diffusive.run_diffusive_trajectory") * n_steps, 1e6
        ),
        "diffusive.run_protecting_unitary_trajectory.s": unitary_s,
        "diffusive.run_protecting_unitary_trajectory.calls": n(
            "diffusive.run_protecting_unitary_trajectory"
        ),
        "diffusive.unitary_us_per_traj_step": per(
            unitary_s, n("diffusive.run_protecting_unitary_trajectory") * n_steps, 1e6
        ),
        "recovery.frame_from_events.s": s("recovery.frame_from_events"),
        "recovery.frame_from_events.calls": n("recovery.frame_from_events"),
        "recovery.events_scanned": scanned,
        "recovery.events_folded_ratio": per(folded, scanned),
        "recovery.recover.s": s("recovery.recover"),
        "recovery.recover.calls": n("recovery.recover"),
        "recovery.recover_unitary.s": s("recovery.recover_unitary"),
        "recovery.recover_unitary.calls": n("recovery.recover_unitary"),
        "entangle.concurrence.s": conc_s,
        "entangle.concurrence.calls": n("entangle.concurrence"),
        "entangle.concurrence.us_per_call": per(conc_s, n("entangle.concurrence"), 1e6),
        "entangle.trace_distance.s": s("entangle.trace_distance"),
        "entangle.trace_distance.calls": n("entangle.trace_distance"),
        "master.integrate_master.s": s("master.integrate_master"),
        "master.integrate_master.calls": n("master.integrate_master"),
        "master.states_stored": stored,
        "master.states_read_ratio": per(tracer.master_reads, stored),
        "trace.spans": len(tracer),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / root
    return out
