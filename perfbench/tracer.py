"""In-memory spans around the program's public functions.

Each target is patched under the name its caller resolves at call time (a
module global, a class attribute or a dispatch-table entry), so calls made
from inside the package are seen too.  A span records its name, start, end
and parent; self time is the span's duration minus that of its children.
Spans are kept in flat arrays and reduced once, after the traced plan.
"""

from __future__ import annotations

import json
import time
from array import array


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counters: dict = {}
        self.spec_keys: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, note=None):
        """fn wrapped so that each call while active records a span; note,
        if given, sees the call's arguments and updates counters."""
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if note is not None:
                note(self, args, kwargs)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, note=None):
        if isinstance(owner, dict):
            owner[attr] = self.span(name, owner[attr], note)
        else:
            setattr(owner, attr, self.span(name, getattr(owner, attr), note))

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def totals(self) -> dict:
        """{name: [calls, inclusive seconds, self seconds]}."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(len(self.start)):
            dur = self.end[i] - self.start[i]
            row = out[self.names[self.name_of[i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out


def _note_steps(tracer, args, kwargs):
    tracer.count("mixing.sample_path.steps", args[1] if len(args) > 1 else kwargs["n"])


def _note_trials(tracer, args, kwargs):
    tracer.count("models.run_tail_experiment.trials",
                 args[2] if len(args) > 2 else kwargs["trials"])


def _note_spec(tracer, args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.spec_keys.add((json.dumps(spec.digest(), sort_keys=True), n))


SPECTRAL_PUBLIC = ("eig_sym", "lambda_max", "expm_sym", "trace_exp", "log_trace_exp",
                   "schatten_norm", "check_golden_thompson", "check_trace_holder",
                   "weyl_lambda_max_bound", "gerschgorin_bound")


def install(tracer: Tracer, bounds, cantor, cli, mixing, models, spectral, np) -> list:
    """Patch every traced target; returns the targets that do not exist
    in this version of the program (their metrics then read 0)."""
    targets = [
        (cli, "main", "cli.main", None),
        (mixing.MarkovChain, "sample_path", "mixing.sample_path", _note_steps),
        (models, "fit_geometric_rate", "mixing.fit_geometric_rate", None),
        (mixing, "fit_geometric_rate", "mixing.fit_geometric_rate", None),
        (mixing, "beta_k_exact", "mixing.beta_k_exact", None),
        (mixing.BerbeeCoupler, "sample", "mixing.coupler_sample", None),
        (models, "run_tail_experiment", "models.run_tail_experiment", _note_trials),
        (models, "_simulate_sum", "models.summand_assembly", None),
        (models, "_simulate_matrices", "models.summand_matrices", None),
        (np.linalg, "eigvalsh", "numpy.eigvalsh", None),
        (models, "bernstein_inputs_for", "models.bernstein_inputs_for", _note_spec),
        (models, "v2_interval_estimate", "models.v2_interval_estimate", None),
        (models, "clopper_pearson", "models.clopper_pearson", None),
        (bounds, "tail_bound_certified", "bounds.tail_bound_certified", None),
        (bounds, "master_log_laplace", "bounds.master_log_laplace", None),
        (bounds, "sigma_kappa_schedule", "bounds.sigma_kappa_schedule", None),
        (bounds, "decomposition_depth", "cantor.decomposition_depth", None),
        (cantor, "cantor_set", "cantor.cantor_set", None),
        (cantor, "full_decomposition", "cantor.full_decomposition", None),
    ]
    targets += [(spectral, f, f"spectral.{f}", None) for f in SPECTRAL_PUBLIC]
    targets += [(cli._SUITES, s, f"cli.suite_{s}", None) for s in list(cli._SUITES)]
    missing = []
    for owner, attr, name, note in targets:
        present = attr in owner if isinstance(owner, dict) else hasattr(owner, attr)
        if present:
            tracer.patch(owner, attr, name, note)
        else:
            missing.append(name)
    return missing


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json, over the traced plan."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    steps = tracer.counters.get("mixing.sample_path.steps", 0)
    trials = tracer.counters.get("models.run_tail_experiment.trials", 0)
    return {
        "mixing.ns_per_step": ("ns", ratio(incl("mixing.sample_path"), steps) * 1e9),
        "mixing.sample_path.calls": ("count", calls("mixing.sample_path")),
        "mixing.fit_geometric_rate.calls": ("count", calls("mixing.fit_geometric_rate")),
        "mixing.fit_geometric_rate.ms": ("ms", incl("mixing.fit_geometric_rate") * 1e3),
        "mixing.beta_k_exact.calls": ("count", calls("mixing.beta_k_exact")),
        "mixing.coupler_sample.s": ("s", incl("mixing.coupler_sample")),
        "models.sampler_self_us_per_trial": (
            "us", ratio(tot.get("models.run_tail_experiment", (0, 0.0, 0.0))[2], trials) * 1e6),
        "models.bernstein_inputs_for.calls": ("count", calls("models.bernstein_inputs_for")),
        "models.bernstein_inputs_for.s": ("s", incl("models.bernstein_inputs_for")),
        "models.v2_interval_estimate.s": ("s", incl("models.v2_interval_estimate")),
        "models.inputs_calls_per_spec": (
            "ratio", ratio(calls("models.bernstein_inputs_for"), len(tracer.spec_keys))),
        "bounds.tail_bound_certified.calls": ("count", calls("bounds.tail_bound_certified")),
        "bounds.tail_bound_certified.us_per_call": (
            "us", ratio(incl("bounds.tail_bound_certified"),
                        calls("bounds.tail_bound_certified")) * 1e6),
        "bounds.majorant_evals_per_bound": (
            "ratio", ratio(calls("bounds.master_log_laplace"),
                           calls("bounds.tail_bound_certified"))),
        "bounds.sigma_kappa_schedule.s": ("s", incl("bounds.sigma_kappa_schedule")),
        "cantor.cantor_set.calls": ("count", calls("cantor.cantor_set")),
        "cantor.cantor_set.s": ("s", incl("cantor.cantor_set")),
        "cantor.decomposition_depth.s": ("s", incl("cantor.decomposition_depth")),
        "spectral.eig_sym.calls": ("count", calls("spectral.eig_sym")),
        "spectral.eig_sym.us_per_call": (
            "us", ratio(incl("spectral.eig_sym"), calls("spectral.eig_sym")) * 1e6),
        "spectral.self_s": ("s", sum(row[2] for name, row in tot.items()
                                     if name.startswith("spectral."))),
        "cli.self_s": ("s", tot.get("cli.main", (0, 0.0, 0.0))[2]),
    }
