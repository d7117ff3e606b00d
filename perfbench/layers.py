"""Layer-boundary wrappers around the public functions of ``legsurf``.

Every wrapper counts its calls.  When ``Recorder.spans_on`` is set it also
records a span (name, parent span, start, end); spans stay in memory until
the run writes them out.  Counting is always on, so an untraced operation
and a traced one report the same work counters and can be compared.

A wrapper must sit where the caller looks the name up.  ``energy`` and
``gauge_lab`` import ``cotangent_weights``, ``legendrian_residual`` and
``mean_curvature_one_form`` by name, so those are rebound in each importing
module; classes (``SurfaceMesh``, ``FaceData``, ``EnergyAssembler``) are
wrapped at their methods, which every importer shares.
"""

from __future__ import annotations

import functools
from collections import Counter


class Recorder:
    """Counts and spans of the wrapped calls.

    ``clock`` is the clock the end-to-end times use (see run.py): CPU time
    without the speed probe's samples, so a span excludes time the process
    spent preempted and self times add up to the operation's time.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans_on = False
        self.counts = Counter()
        self.descend_s = 0.0
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []  # names of the wrapped calls in progress
        self._open = []  # indices of the spans in progress

    def reset(self, spans_on):
        self.spans_on = spans_on
        self.counts = Counter()
        self.descend_s = 0.0
        self.spans = []

    def inside(self, name):
        return name in self._stack

    def wrap(self, name, fn, on_call=None, on_result=None):
        """Return ``fn`` wrapped as layer boundary ``name``.

        ``on_call(recorder, args)`` and ``on_result(recorder, result)`` add
        work counts; an exception is counted as ``<name>.failed`` and re-raised.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[name] += 1
            if on_call is not None:
                on_call(rec, args)
            rec._stack.append(name)
            span = -1
            if rec.spans_on:
                span = len(rec.spans)
                parent = rec._open[-1] if rec._open else -1
                rec.spans.append([name, parent, rec.clock(), None])
                rec._open.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec.counts[name + ".failed"] += 1
                raise
            finally:
                rec._stack.pop()
                if span >= 0:
                    rec.spans[span][3] = rec.clock()
                    rec._open.pop()
            if on_result is not None:
                on_result(rec, result)
            return result

        return wrapper


def _timed_descend(rec, fn):
    """``energy.descend`` timed in every mode: ``steps_per_s`` needs its time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = rec.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.descend_s += rec.clock() - t0

    return wrapper


def _count_faces(rec, args):
    rec.counts["energy.face_evals"] += len(args[0].tri)


def _count_solve(rec, args):
    rec.counts["energy.solve_unknowns"] += args[0].shape[0]
    if rec.inside("energy.restore"):
        rec.counts["energy.gn_iters"] += 1


def _count_clip(rec, args):
    rec.counts["gauge_lab.clipped_faces"] += len(args[0])


def _count_descent(rec, result):
    rec.counts["energy.accepted_steps"] += len(result.records)
    rec.counts["energy.stage_iters"] += sum(s.iters for s in result.stages)
    rec.counts["energy.stages_at_tol"] += sum(bool(s.hit_tolerance) for s in result.stages)
    rec.counts["energy.final_grad_norm"] = result.stages[-1].grad_norm if result.stages else 0.0


def install(rec):
    """Install the wrappers of ``rec`` into ``legsurf`` and ``scipy``; returns ``cli.main``."""
    import scipy.sparse.linalg as spla

    from legsurf import cli, corpus, energy, gauge_lab, immersion, mesh

    def rebind(modules, attr, name, **hooks):
        wrapped = rec.wrap(name, getattr(modules[0], attr), **hooks)
        for module in modules:
            setattr(module, attr, wrapped)

    rebind([mesh.SurfaceMesh], "__init__", "mesh.build")
    rebind([corpus], "generate", "corpus.generate")

    rebind([immersion.FaceData], "__init__", "immersion.facedata")
    rebind([immersion, energy], "cotangent_weights", "immersion.cotangent")
    rebind([immersion, energy], "legendrian_residual", "immersion.residual")
    rebind([immersion, gauge_lab], "mean_curvature_one_form", "immersion.mcf")

    rebind([energy.EnergyAssembler], "__init__", "energy.init")
    rebind([energy.EnergyAssembler], "energy", "energy.eval", on_call=_count_faces)
    rebind([energy.EnergyAssembler], "gradient", "energy.gradient", on_call=_count_faces)
    rebind([energy.EnergyAssembler], "first_variation", "energy.fv", on_call=_count_faces)
    rebind([energy], "hamiltonian_project", "energy.project")
    rebind([energy], "hamiltonian_map", "energy.hmap")
    rebind([spla], "spsolve", "energy.solve", on_call=_count_solve)
    rebind([energy], "flow_step", "energy.flow")
    rebind([energy], "restore_constraint", "energy.restore")
    rebind([energy], "descend", "energy.descend", on_result=_count_descent)
    energy.descend = _timed_descend(rec, energy.descend)

    rebind([gauge_lab], "gauge_fields", "gauge_lab.fields")
    rebind([gauge_lab], "tri_sublevel_fraction", "gauge_lab.clip", on_call=_count_clip)
    rebind([gauge_lab], "density_curve", "gauge_lab.density")
    rebind([gauge_lab], "theta0_estimate", "gauge_lab.theta0")
    rebind([gauge_lab], "monotonicity_balance", "gauge_lab.balance")

    rebind([cli], "write_json", "cli.write")
    rebind([cli], "write_csv", "cli.write")
    rebind([mesh.DiscreteImmersion], "save", "cli.write")
    return rec.wrap("cli.main", cli.main)


def span_times(spans):
    """Per span name: (total seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    total, self_ = Counter(), Counter()
    for i, (name, parent, start, end) in enumerate(spans):
        total[name] += end - start
        self_[name] += end - start - child[i]
    return total, self_


# Work counters that the traced and the untraced runs must agree on.
WORK_COUNTERS = (
    "energy.accepted_steps",
    "energy.flow",
    "energy.solve",
    "energy.gn_iters",
    "energy.init",
    "mesh.build",
)


RATIOS = ("energy.accept_ratio", "energy.final_grad_norm", "trace.overhead_frac")


def unit(name):
    if name in RATIOS:
        return "1"
    return "s" if name.endswith("_s") else "count"


def layer_metrics(counts, spans):
    """The per-layer metrics of one traced operation."""
    counts = Counter(counts)
    total, self_ = span_times(spans)
    attempts = counts["energy.flow"]
    accepted = counts["energy.accepted_steps"]
    return {
        "mesh.build_s": total["mesh.build"],
        "mesh.builds": counts["mesh.build"],
        "corpus.generate_s": total["corpus.generate"],
        "immersion.facedata_s": total["immersion.facedata"],
        "immersion.facedata_calls": counts["immersion.facedata"],
        "immersion.cotangent_s": total["immersion.cotangent"],
        "immersion.residual_s": total["immersion.residual"],
        "immersion.residual_calls": counts["immersion.residual"],
        "immersion.mcf_s": total["immersion.mcf"],
        "energy.init_s": total["energy.init"],
        "energy.inits": counts["energy.init"],
        "energy.eval_s": total["energy.eval"],
        "energy.eval_calls": counts["energy.eval"],
        "energy.gradient_s": total["energy.gradient"],
        "energy.gradient_calls": counts["energy.gradient"],
        "energy.fv_s": total["energy.fv"],
        "energy.fv_calls": counts["energy.fv"],
        "energy.face_evals": counts["energy.face_evals"],
        "energy.project_s": total["energy.project"],
        "energy.project_calls": counts["energy.project"],
        "energy.hmap_s": total["energy.hmap"],
        "energy.solve_s": total["energy.solve"],
        "energy.solves": counts["energy.solve"],
        "energy.solve_unknowns": counts["energy.solve_unknowns"],
        "energy.flow_s": total["energy.flow"],
        "energy.flow_attempts": attempts,
        "energy.flow_rejected": counts["energy.flow.failed"],
        "energy.restore_s": total["energy.restore"],
        "energy.restore_calls": counts["energy.restore"],
        "energy.restore_failed": counts["energy.restore.failed"],
        "energy.gn_iters": counts["energy.gn_iters"],
        "energy.accepted_steps": accepted,
        "energy.backtracks": attempts - accepted,
        "energy.accept_ratio": accepted / attempts if attempts else 0.0,
        "energy.descend_self_s": self_["energy.descend"],
        "energy.stage_iters": counts["energy.stage_iters"],
        "energy.stages_at_tol": counts["energy.stages_at_tol"],
        "energy.final_grad_norm": counts["energy.final_grad_norm"],
        "gauge_lab.fields_s": total["gauge_lab.fields"],
        "gauge_lab.fields_calls": counts["gauge_lab.fields"],
        "gauge_lab.density_self_s": self_["gauge_lab.density"],
        "gauge_lab.clip_s": total["gauge_lab.clip"],
        "gauge_lab.clipped_faces": counts["gauge_lab.clipped_faces"],
        "gauge_lab.theta0_s": total["gauge_lab.theta0"],
        "gauge_lab.balance_self_s": self_["gauge_lab.balance"],
        "cli.write_s": total["cli.write"],
        "cli.self_s": self_["cli.main"],
    }
