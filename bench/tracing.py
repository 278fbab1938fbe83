"""Outside-in tracing of seidelchain's layers, from the benchmark's own code.

``Tracer.install`` replaces each traced function with a wrapper at every
module attribute that holds it, including names re-bound by ``from ...
import`` (``exact_spectrum`` in ``families``, ``tables`` and ``cli``, and the
package namespace), and patches the two traced methods on their classes.
Nothing under ``src/`` changes.

Each wrapped call records one span ``(name, start, end, parent, op id)`` in
memory; spans are written once, when the run ends.  A layer's self time is
its span time minus the time of its child spans.

Not traced: the per-coefficient, per-comparison and per-subset helpers
(``intpoly.sign_at``, ``poly_*``, ``synthetic_div``, ``primitive``,
``spectra.values_equal``, ``value_cmp``, ``switching.regular_profile``, ...).
They run millions of times per run, so a span each would mostly measure the
tracer; their time stays in the self time of the traced caller.  The one
exceptions are bare call counters (``CALL_COUNTERS``) on ``intpoly.sign_at``
and ``intpoly.synthetic_div``, which count the calls that ``refine_root`` and
``integer_roots`` make themselves.  ``cli.build_parser`` is not
traced either, so that ``cli.run``'s self time is argument parsing plus
rendering.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import is_refusal

# Layers with per-layer metrics, and the workload in which each does most of
# its work.  A traced run of that workload fails if the layer is never called.
LAYERS: dict[str, str] = {
    "chain.parse_block_string": "oracle_crosscheck",
    "chain.build_chain_graph": "oracle_crosscheck",
    "graphs.Graph.__post_init__": "oracle_crosscheck",
    "spectra.seidel_matrix": "oracle_crosscheck",
    "spectra.numeric_spectrum": "oracle_crosscheck",
    "intpoly.refine_root": "spectrum_small",
    "intpoly.isolate_real_roots": "spectrum_small",
    "intpoly.sturm_chain": "spectrum_small",
    "intpoly.count_roots_between": "spectrum_small",
    "intpoly.char_poly_ints": "spectrum_small",
    "spectra.quotient_matrix": "spectrum_small",
    "spectra.spectrum_from_counts": "spectrum_small",
    "spectra.ExactSpectrum.validate": "spectrum_small",
    "intpoly.square_free_decomposition": "spectrum_large",
    "intpoly.integer_roots": "spectrum_large",
    "switching.search_class_by_degree_profile": "cli_mix",
    "switching.class_certificate": "cli_mix",
    "switching.degree_multiset_prefilter": "cli_mix",
    "switching.canonical_bits": "cli_mix",
    "families.scan_seidel_integral": "cli_mix",
    "tables.verify_tables": "cli_mix",
    "cli.run": "cli_mix",
}
# The other public functions: traced for the span tree, with no metric.
SPAN_ONLY = (
    "chain.chain_graph", "chain.is_chain_graph", "graphs.degree_sequence",
    "intpoly.poly_gcd", "intpoly.poly_div_exact",
    "spectra.char_poly", "spectra.quotient_spectrum", "spectra.exact_spectrum",
    "spectra.is_integral", "spectra.equiangular_params",
    "switching.switch_on_subset", "switching.biregular_profile", "switching.canonical_label",
    "switching.switching_equivalent",
    "families.unit_chain_string", "families.mirror_chain_string", "families.unit_chain_spectrum",
    "families.generate_cospectral_pair", "families.cospectral_pairs_up_to",
    "families.mirror_chain_family", "families.integral_family_params",
    "families.generate_integral_family", "families.classify_integral_pair",
)
TRACED = tuple(LAYERS) + SPAN_ONLY
# Helpers with a bare call counter and no span: (helper, traced caller,
# metric).  Only calls made directly by the caller, not by one of its traced
# callees, are counted.
CALL_COUNTERS = (
    ("intpoly.sign_at", "intpoly.refine_root", "intpoly.refine_root.sign_evals"),
    ("intpoly.synthetic_div", "intpoly.integer_roots", "intpoly.integer_roots.trial_divisions"),
)


class TraceError(RuntimeError):
    """A traced name does not resolve, or a layer was never called."""


def _resolve(modules: dict, name: str):
    """(owner, attribute, function) of a traced name such as "graphs.Graph.__post_init__"."""
    mod_name, *attrs = name.split(".")
    owner = modules.get(mod_name)
    if owner is None:
        raise TraceError(f"traced module seidelchain.{mod_name} is not imported")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            raise TraceError(f"traced name {name} does not resolve")
    if isinstance(owner, type):
        original = owner.__dict__.get(attrs[-1])
    else:
        original = getattr(owner, attrs[-1], None)
    if not callable(original):
        raise TraceError(f"traced name {name} does not resolve")
    return owner, attrs[-1], original


def _replace(program: list, owner, attr: str, original, wrapper) -> None:
    """Put wrapper in place of original: on its class, or at every module attribute holding it."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for mod in program:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


class Tracer:
    """Spans and counters of one traced run; active only around timed operations."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[tuple[int, str]] = []  # (span index, name) of the open spans
        self.active = False
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every traced name in a fresh import of the program.

        modules maps short module names ("chain", ...) to module objects.
        """
        program = [m for name, m in sys.modules.items()
                   if name == "seidelchain" or name.startswith("seidelchain.")]
        counters = {
            "intpoly.square_free_decomposition": self._square_free_counts,
            "switching.search_class_by_degree_profile": self._search_counts,
        }
        for name in TRACED:
            owner, attr, original = _resolve(modules, name)
            wrapper = self._wrap(name, original, counters.get(name))
            _replace(program, owner, attr, original, wrapper)
        for name, caller, key in CALL_COUNTERS:
            owner, attr, original = _resolve(modules, name)
            _replace(program, owner, attr, original, self._count_calls(original, caller, key))

    def _count_calls(self, fn, caller: str, key: str):
        stack, counts, tracer = self._stack, self.counts, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and stack and stack[-1][1] == caller:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _square_free_counts(self, _args, _kwargs, result) -> None:
        if any(mult > 1 for _factor, mult in result):
            self.counts["intpoly.square_free_decomposition.nontrivial"] += 1

    def _search_counts(self, _args, _kwargs, result) -> None:
        self.counts["switching.search_class_by_degree_profile.subsets_examined"] += result.subsets_examined
        self.counts["switching.search_class_by_degree_profile.matches"] += result.match_count

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self
        calls_key, errors_key, refused_key = f"{name}.calls", f"{name}.errors", f"{name}.refused"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[refused_key if is_refusal(exc) else errors_key] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op_id)
                counts[calls_key] += 1
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self, group=None) -> dict:
        """Self seconds per traced name, or per (group(op id), name) when group is given."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            out[name if group is None else (group(op), name)] += end - start - child[i]
        return out

    def guard(self, workload: str) -> None:
        missing = [name for name, home in LAYERS.items()
                   if home == workload and self.counts[f"{name}.calls"] == 0]
        if missing:
            raise TraceError(f"never called in workload {workload}: {', '.join(missing)}")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        selfs = self.self_times()
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
            for key in ("calls", "errors", "refused"):
                out[f"{name}.{key}"] = (c[f"{name}.{key}"], "count")
        for _helper, _caller, key in CALL_COUNTERS:
            out[key] = (c[key], "count")
        sqf_calls = c["intpoly.square_free_decomposition.calls"]
        out["intpoly.square_free_decomposition.nontrivial_ratio"] = (
            c["intpoly.square_free_decomposition.nontrivial"] / sqf_calls if sqf_calls else 0.0, "ratio")
        examined = c["switching.search_class_by_degree_profile.subsets_examined"]
        out["switching.search_class_by_degree_profile.subsets_examined"] = (examined, "count")
        out["switching.search_class_by_degree_profile.match_ratio"] = (
            c["switching.search_class_by_degree_profile.matches"] / examined if examined else 0.0, "ratio")
        return out

    def top_self_times(self, limit: int = 8) -> list[tuple[str, float]]:
        return sorted(self.self_times().items(), key=lambda kv: -kv[1])[:limit]

    def top_self_times_by(self, group, limit: int = 3) -> dict[str, list[tuple[str, float]]]:
        """The layers with the most self time within each input class."""
        by: dict[str, list[tuple[str, float]]] = defaultdict(list)
        for (label, name), secs in self.self_times(group).items():
            by[label].append((name, secs))
        return {label: sorted(rows, key=lambda kv: -kv[1])[:limit] for label, rows in sorted(by.items())}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
