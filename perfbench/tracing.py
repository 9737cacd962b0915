"""Spans around the public functions of each rkhslab module.

The wrappers live here, not in the library: ``install`` replaces each name
where its caller looks it up (``experiment.draw_nodes``,
``FourierBasis.eval_block``, ...) and returns a function that puts the
originals back.  Each call records a span (name, start, end, parent span,
run id) in memory; ``layer_totals`` turns the spans of one run into self
times and counts.
"""

import functools
import statistics
import time


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, run id)
        self.spans = []
        self.counts = {}
        self.run_id = 0
        self._stack = []

    def count(self, key, amount):
        per_run = self.counts.setdefault(self.run_id, {})
        per_run.setdefault(key, []).append(amount)

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,run\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write("%d,%s,%r,%r,%d,%d\n"
                         % (i, name, start, end, parent, run))


def _observe_eval_block(tracer, args, kwargs, result):
    tracer.count("kernels.eval_block.cells", int(result.size))
    tracer.count("kernels.eval_block.bytes_out", int(result.nbytes))


def _observe_draw_nodes(tracer, args, kwargs, result):
    tracer.count("densities.draw_nodes.nodes", int(result.n))


def _observe_wce(tracer, args, kwargs, result):
    model = args[0]
    trunc = kwargs.get("trunc")
    tracer.count("worstcase.trunc_dim", int(result.trunc_dim))
    # the cap clipped N when the caller asked for the automatic truncation
    # and got less than the model's own truncation index
    tracer.count("worstcase.trunc_clipped",
                 int(trunc is None and result.trunc_dim < model.trunc_index))


def targets():
    """(layer name, owner, attribute, observer) for every traced call."""
    from rkhslab import (concentration, densities, experiment, kernels,
                         leastsq)
    ex = experiment
    return [
        ("experiment.run", ex, "run", None),
        ("experiment.write", ex.ExperimentReport, "write", None),
        ("kernels.eval_block", kernels.FourierBasis, "eval_block",
         _observe_eval_block),
        ("kernels.eval_block", kernels.CosineBasis, "eval_block",
         _observe_eval_block),
        ("densities.draw_nodes", ex, "draw_nodes", _observe_draw_nodes),
        ("densities.trial_rng", densities, "trial_rng", None),
        ("densities.trial_rng", concentration, "trial_rng", None),
        ("densities.evaluate", densities.SamplingDensity, "evaluate", None),
        ("leastsq.assemble_design", ex, "assemble_design", None),
        ("leastsq.singular_values", leastsq.DesignSystem, "singular_values",
         None),
        ("leastsq.gram_eig_check", ex, "gram_eig_check", None),
        ("worstcase.exact_wce_recovery", ex, "exact_wce_recovery",
         _observe_wce),
        ("worstcase.exact_wce_discretization", ex, "exact_wce_discretization",
         _observe_wce),
        ("worstcase.wce_nullspace_component", ex, "wce_nullspace_component",
         None),
        ("worstcase.bound", ex, "bound", None),
        ("worstcase.model_bound_inputs", ex, "model_bound_inputs", None),
        ("concentration.deviation_trial", concentration, "deviation_trial",
         None),
    ]


def install(tracer):
    """Wrap every target; returns the function that undoes it."""
    saved = []
    for name, owner, attr, observe in targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, observe))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def layer_totals(tracer, run_id, wall_s):
    """Per-layer self time and call count of one traced run, plus the share
    of its wall time that no span below ``experiment.run`` covers."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if run == run_id and parent >= 0:
            child[parent] += end - start
    out = {"%s.%s" % (t[0], key): 0.0 for t in targets()
           for key in ("self_s", "calls")}
    covered = 0.0
    for i, (name, start, end, parent, run) in enumerate(spans):
        if run != run_id:
            continue
        out[name + ".self_s"] += (end - start) - child[i]
        out[name + ".calls"] += 1
        if name == "experiment.run":
            covered += child[i]
        elif parent < 0:
            covered += end - start
    out["trace.unattributed_share"] = (wall_s - covered) / wall_s
    counts = tracer.counts.get(run_id, {})
    for key in ("kernels.eval_block.cells", "kernels.eval_block.bytes_out",
                "densities.draw_nodes.nodes"):
        out[key] = float(sum(counts.get(key, [])))
    dims = counts.get("worstcase.trunc_dim", [])
    clipped = counts.get("worstcase.trunc_clipped", [])
    out["worstcase.trunc_dim"] = (float(statistics.median(dims)) if dims
                                  else 0.0)
    out["worstcase.trunc_clipped_share"] = (
        sum(clipped) / len(clipped) if clipped else 0.0)
    return out
