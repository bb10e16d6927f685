"""Span tracer for the benchmark's traced pass.

The tracer wraps public functions of the hhbounds layers *from outside*: it
replaces each function under every module-level name that binds it, so calls
made through ``from .oracle import to_mpf`` style imports are seen as well as
calls through ``oracle.to_mpf``.  Patching only the defining module would miss
the by-name bindings in ``harness``, ``functionals``, ``bounds`` and ``means``.

Spans (name, start, end, parent) are kept in flat in-memory lists and turned
into per-layer numbers after each pass; nothing is written while a pass runs.

Per-layer metrics, per pass, for each group G of WRAPPED:

* ``G.calls``        -- calls entering G from outside it (calls G makes to
  its own functions are not counted again).
* ``G.self_s``       -- time inside G's functions minus the time of the
  wrapped calls they make.
* ``G.unique_share`` -- distinct entering calls over entering calls, a call
  being identified by function, corpus function id, interval endpoints and
  the remaining arguments (lambda, q, tol, grid).  Kept for the groups whose
  repeated work a cache would remove.
* ``corpus.check_p_convex.samples`` and ``oracle.integrate.subdivisions`` --
  grid triples checked and panel splits made (partial results included).
* ``harness.self_s`` -- time in ``run_campaign`` or ``find_counterexample``
  minus wrapped calls: ``_decide``, record construction, sorting, summary.
* ``harness.records`` -- records built by harness code; the share of those
  with a holds/equality/violated verdict that were decided with
  ``exact=True`` is ``harness.confirmed_share``.
* ``cli.serialize.self_s`` -- ``report_document``, ``to_json`` and ``to_csv``.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# (module, public function, layer group).  A group's self time is the time
# spent inside its functions minus the time of wrapped calls they make; its
# call count is the number of calls entering the group from another group.
WRAPPED = (
    ("oracle", "integrate", "oracle.integrate"),
    ("oracle", "integrate_exact_poly", "oracle.exact"),
    ("oracle", "poly_eval_exact", "oracle.exact"),
    ("oracle", "poly_derivative_coeffs", "oracle.exact"),
    ("oracle", "to_mpf", "oracle.exact"),
    ("corpus", "check_p_convex", "corpus.check_p_convex"),
    ("functionals", "average_value", "functionals.float"),
    ("functionals", "functional_lambda", "functionals.float"),
    ("functionals", "identity_rhs", "functionals.float"),
    ("functionals", "identity_residual", "functionals.float"),
    ("functionals", "hh_gap_left", "functionals.float"),
    ("functionals", "hh_gap_right", "functionals.float"),
    ("functionals", "hh_p_check", "functionals.float"),
    ("functionals", "simpson_deviation", "functionals.float"),
    ("functionals", "average_value_exact", "functionals.exact"),
    ("functionals", "functional_lambda_exact", "functionals.exact"),
    ("functionals", "hh_gap_left_exact", "functionals.exact"),
    ("functionals", "hh_gap_right_exact", "functionals.exact"),
    ("functionals", "simpson_deviation_exact", "functionals.exact"),
    ("kernel", "kernel_value", "kernel"),
    ("kernel", "kernel_value_exact", "kernel"),
    ("kernel", "weighted_moment", "kernel"),
    ("kernel", "weighted_moment_exact", "kernel"),
    ("kernel", "weighted_moment_small_lambda", "kernel"),
    ("kernel", "weighted_moment_small_lambda_exact", "kernel"),
    ("kernel", "weighted_moment_large_lambda", "kernel"),
    ("kernel", "weighted_moment_large_lambda_exact", "kernel"),
    ("bounds", "bound_theorem5", "bounds.float"),
    ("bounds", "bound_theorem6", "bounds.float"),
    ("bounds", "bound_corollary", "bounds.float"),
    ("bounds", "bound_bounded_m", "bounds.float"),
    ("bounds", "bound_classical", "bounds.float"),
    ("bounds", "bound_theorem5_exact", "bounds.exact"),
    ("bounds", "bound_theorem6_exact", "bounds.exact"),
    ("bounds", "bound_corollary_exact", "bounds.exact"),
    ("bounds", "bound_bounded_m_exact", "bounds.exact"),
    ("bounds", "bound_classical_exact", "bounds.exact"),
    ("bounds", "bound_theorem6_mp", "bounds.mp"),
    ("means", "check_proposition", "means.check_proposition"),
    ("harness", "run_campaign", "harness"),
    ("harness", "find_counterexample", "harness"),
    ("cli", "report_document", "cli.serialize"),
    ("cli", "to_json", "cli.serialize"),
    ("cli", "to_csv", "cli.serialize"),
    ("cli", "main", "cli"),
)

# Groups whose entering calls are keyed by their arguments for unique_share.
KEYED_GROUPS = ("functionals.exact", "corpus.check_p_convex", "oracle.integrate")

REPORTED_GROUPS = (
    "functionals.exact",
    "functionals.float",
    "bounds.exact",
    "bounds.mp",
    "bounds.float",
    "means.check_proposition",
    "oracle.exact",
    "oracle.integrate",
    "corpus.check_p_convex",
    "kernel",
)

NUMERIC_STATUSES = ("holds", "equality", "violated")


def freeze(x):
    """Hashable identity of a call argument: a corpus function by its id, an
    interval by its endpoints, a callable by its code and bound values."""
    if x is None or isinstance(x, (bool, int, float, str, Fraction)):
        return x
    fid = getattr(x, "id", None)
    if isinstance(fid, str):
        return fid
    if hasattr(x, "lo") and hasattr(x, "hi"):
        return (x.lo, x.hi)
    if isinstance(x, (tuple, list)):
        return tuple(freeze(v) for v in x)
    code = getattr(x, "__code__", None)
    if code is not None:
        cells = tuple(freeze(c.cell_contents) for c in (x.__closure__ or ()))
        return (code, freeze(x.__defaults__ or ()), cells)
    try:
        hash(x)
    except TypeError:
        return id(x)
    return x


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.keys: dict[int, tuple] = {}
        self.samples = 0
        self.subdivisions = 0
        self.records = 0
        self.numeric = 0
        self.confirmed = 0
        self._stack = [-1]
        self._labels: list[tuple[str, str]] = []  # (qualified name, group)
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for lst in (self.names, self.starts, self.ends, self.parents):
            del lst[:]
        self.keys.clear()
        self.samples = self.subdivisions = 0
        self.records = self.numeric = self.confirmed = 0
        self._stack[:] = [-1]

    def _group_at(self, span: int):
        return None if span < 0 else self._labels[self.names[span]][1]

    def _wrap(self, fn, label_id: int, group: str):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, keys = self._stack, self.keys
        keyed = group in KEYED_GROUPS
        qualname = self._labels[label_id][0]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            i = len(names)
            if keyed and tracer._group_at(parent) != group:
                keys[i] = (qualname, freeze(args), freeze(sorted(kwargs.items())))
            names.append(label_id)
            parents.append(parent)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[i] = clock()
                stack.pop()
                partial = getattr(exc, "partial", None)
                if partial is not None:
                    tracer.subdivisions += partial.subdivisions
                raise
            ends[i] = clock()
            stack.pop()
            if group == "corpus.check_p_convex":
                tracer.samples += result.samples_checked
            elif group == "oracle.integrate":
                tracer.subdivisions += result.subdivisions
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED under every hhbounds module-level
        name bound to it, and count records built directly by the harness."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "hhbounds" or name.startswith("hhbounds."))
        ]
        for mod_name, fn_name, group in WRAPPED:
            original = getattr(sys.modules[f"hhbounds.{mod_name}"], fn_name)
            self._labels.append((f"{mod_name}.{fn_name}", group))
            wrapper = self._wrap(original, len(self._labels) - 1, group)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, wrapper)

        record_cls = sys.modules["hhbounds.records"].VerificationRecord
        original_post_init = record_cls.__post_init__
        tracer = self

        def post_init(rec):
            original_post_init(rec)
            if tracer._group_at(tracer._stack[-1]) == "harness":
                tracer.records += 1
                if rec.status in NUMERIC_STATUSES:
                    tracer.numeric += 1
                    tracer.confirmed += rec.exact

        self._undo.append((record_cls, "__post_init__", original_post_init))
        record_cls.__post_init__ = post_init

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        del self._undo[:]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of the spans recorded since reset."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        distinct: dict[str, set] = {g: set() for g in KEYED_GROUPS}
        for i in range(n):
            group = self._labels[self.names[i]][1]
            self_s[group] = self_s.get(group, 0.0) + (
                self.ends[i] - self.starts[i] - child_time[i]
            )
            if self._group_at(self.parents[i]) != group:
                calls[group] = calls.get(group, 0) + 1
                if i in self.keys:
                    distinct[group].add(self.keys[i])

        out: dict[str, float] = {}
        for group in REPORTED_GROUPS:
            out[f"{group}.calls"] = calls.get(group, 0)
            out[f"{group}.self_s"] = self_s.get(group, 0.0)
        for group in KEYED_GROUPS:
            c = calls.get(group, 0)
            out[f"{group}.unique_share"] = len(distinct[group]) / c if c else 0.0
        out["corpus.check_p_convex.samples"] = self.samples
        out["oracle.integrate.subdivisions"] = self.subdivisions
        out["harness.self_s"] = self_s.get("harness", 0.0)
        out["harness.records"] = self.records
        out["harness.confirmed_share"] = (
            self.confirmed / self.numeric if self.numeric else 0.0
        )
        out["cli.serialize.self_s"] = self_s.get("cli.serialize", 0.0)
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as tab-separated lines:
        index, name, start_s, end_s, parent index (-1 for a root)."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.names)):
                fh.write(
                    f"{i}\t{self._labels[self.names[i]][0]}\t{self.starts[i]:.9f}"
                    f"\t{self.ends[i]:.9f}\t{self.parents[i]}\n"
                )
