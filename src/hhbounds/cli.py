"""Command-line front end.

Subcommands:

* ``bound``   -- evaluate one right-hand-side bound.
* ``verify``  -- run a verification campaign, emit a JSON/CSV/table report.
* ``means``   -- special means and the power-mean inequality checks.
* ``identity`` -- residual of the kernel representation of the functional.
* ``pconvex`` -- lattice P-convexity check of a corpus function.
* ``search``  -- randomized counterexample search for one claim.

All real-valued inputs also accept exact fraction syntax ``p/q``; a value
too large for a float, or input a formula rejects, is a usage error (exit
64).  ``bound`` evaluates the generic bound formulas on exact rationals,
with a q-th root kept exact (for a q whose denominator is above 2, its
50-digit value), and prints the float nearest to that value.
``verify`` writes its report while the campaign is evaluated, block by
block in canonical order (:class:`~hhbounds.harness.CampaignStream`), with
the summary after the last record; ``--out`` is written beside its target
and renamed onto it once the report is complete.  A report's records are
:class:`~hhbounds.records.VerificationRecord` objects.  JSON reports come
from ``json.dumps`` except for their records (:func:`to_json`), and CSV
reports are written row by row with cells as ``csv.writer`` writes them
(:func:`to_csv`); both write their records through one loop
(:func:`_record_writer`), whose caches last the whole report.  Given a
stream, each campaign process formats the blocks it evaluates with that
loop and the reader writes the text it receives
(:func:`_write_records`); any other iterable is written a record at a
time.  Every format lays out the fields of
:data:`hhbounds.records.FIELDS` in that order.  The environment variable ``HHBOUNDS_SEED`` overrides
``--seed`` when set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import stat
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, TextIO

from . import __version__, bounds, functionals, harness, means
from .corpus import GridSpec, Interval, check_p_convex, function_ids, get_function
from .records import FIELDS, VerificationRecord

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def parse_real(text: str) -> Fraction:
    """Parse a real-valued flag: decimal, integer, or exact 'p/q', within
    the range of a float."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    try:
        float(value)
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"too large for a float: {text!r}") from exc
    return value


def _parse_lambda(text: str) -> Fraction:
    lam = parse_real(text)
    if not 0 <= lam <= 1:
        raise argparse.ArgumentTypeError("lambda must lie in [0, 1]")
    return lam


def _parse_rule(text: str):
    if text in ("midpoint", "trapezoid", "simpson"):
        return text
    if text.startswith("lambda="):
        return _parse_lambda(text.split("=", 1)[1])
    raise argparse.ArgumentTypeError(
        "rule must be midpoint, trapezoid, simpson or lambda=<x>"
    )


def _split_ids(text: str) -> tuple[str, ...]:
    if text == "all":
        return ("all",)
    return tuple(part for part in (p.strip() for p in text.split(",")) if part)


def _parse_grid(text: str) -> tuple[float, ...]:
    values = tuple(float(parse_real(p)) for p in text.split(",") if p.strip())
    if not values:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return values


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def report_document(campaign) -> dict:
    """The report of a campaign, its records :class:`VerificationRecord`
    objects: those a :class:`~hhbounds.harness.CampaignResult` holds, or
    a :class:`~hhbounds.harness.CampaignStream` itself, evaluated as a
    writer reads it, whose summary is complete once its last block has
    been read.
    """
    stream = isinstance(campaign, harness.CampaignStream)
    return {
        "version": __version__,
        "config": campaign.config.as_dict(),
        "records": campaign if stream else campaign.records,
        "summary": campaign.summary,
    }


def to_json(doc: dict, out: Optional[TextIO] = None) -> Optional[str]:
    """``doc`` exactly as ``json.dumps(doc, indent=2)`` writes it, each
    record of its top-level ``records`` written as its ``as_dict()``.

    Returned as a string, or, given ``out``, written to that stream with a
    final newline (the layout of a report) and None returned.
    ``json.dumps`` writes everything but the records, which go through
    :func:`_write_records`; a ``records`` item that is not a
    :class:`VerificationRecord` raises TypeError.  ``records`` may be an
    iterator or a :class:`~hhbounds.harness.CampaignStream`, read as it is
    written.  The keys after it are written once it is exhausted, so it may
    fill in a value that follows it, as the summary of a streamed campaign.
    A document without a records list is written by ``json.dumps`` alone.
    """
    buf = io.StringIO() if out is None else out
    records = doc.get("records") if isinstance(doc, dict) else None
    if isinstance(records, (list, tuple, Iterator, harness.CampaignStream)):
        keys = list(doc)
        at = keys.index("records")
        head = json.dumps({**{k: doc[k] for k in keys[:at]}, "records": []}, indent=2)
        head = head[: -len(_NO_RECORDS + "\n}")]
        opening = head + '\n  "records": [\n    '
        lead = _write_records(records, buf.write, opening, ",\n    ", *_JSON)
        tail = json.dumps({"records": [], **{k: doc[k] for k in keys[at + 1 :]}}, indent=2)
        tail = tail[len("{" + _NO_RECORDS) :]
        buf.write((head + _NO_RECORDS if lead is opening else "\n  ]") + tail)
    else:
        buf.write(json.dumps(doc, indent=2))
    if out is None:
        return buf.getvalue()
    out.write("\n")
    return None


_repr = float.__repr__
_ascii = encode_basestring_ascii
# How a report's top level writes an empty records list.
_NO_RECORDS = '\n  "records": []'


def _write_records(records, write, lead, between, *pieces):
    """Write each record of ``records`` in the format ``pieces`` give
    (:func:`_record_writer`), and return the lead written last (``lead``
    itself for no records).

    A record is written after ``lead``, or ``between`` after the first.  A
    :class:`~hhbounds.harness.CampaignStream` is read by its
    :meth:`~hhbounds.harness.CampaignStream.rendered`, so each process
    formats the blocks it evaluates, as the text of its records with
    ``between`` between them; the text of a block is written after the
    lead.  Any other iterable is written a record at a time, each before
    the next is read.
    """
    write_records = _record_writer(*pieces)
    if not isinstance(records, harness.CampaignStream):
        return write_records(records, write, lead, between)

    def render(block) -> str:
        parts = []
        write_records(block, parts.append, "", between)
        return "".join(parts)

    for text in records.rendered(render):  # a block holds at least one record
        write(lead + text)
        lead = between
    return lead


def _record_writer(block_text, grid_text, value, before_rhs, before_margin, tail_text):
    """``write_records(records, write, lead, between)``, which writes each
    record of ``records`` and returns the lead written last.

    A record is written as ``lead`` (``between`` after the first), its
    block prefix ``block_text(claim, function, a, b)``, its
    ``grid_text(lam, q)`` fragment, ``value(lhs)``, ``before_rhs``, the
    text of its rhs, ``before_margin``, that of its margin and
    ``tail_text(status, exact)``.  The records of a block hold the same
    claim, function, a and b objects, so the prefix is formatted once per
    block, and the (lambda, q) fragment once per grid point
    (:func:`_by_identity`).  The records of a lam row share their lhs
    object, formatted once per row, and a str status with a bool exact is
    formatted once per pair.  These caches last from call to call.  Per
    record only rhs and margin are formatted: a finite float by
    ``float.__repr__``, anything else by ``value``.
    """
    claim0 = function0 = a0 = b0 = row = object()
    prefix = lhs_text = ""
    grid, tails = _by_identity(grid_text), {}

    def write_records(records, write, lead, between):
        nonlocal claim0, function0, a0, b0, row, prefix, lhs_text
        for record in records:
            if type(record) is not VerificationRecord:
                _not_a_record(record)
            claim, function, a, b, lam, q, lhs, rhs, margin, status, exact = record
            if not (claim is claim0 and function is function0 and a is a0 and b is b0):
                claim0, function0, a0, b0 = claim, function, a, b
                prefix = block_text(claim, function, a, b)
            if lhs is not row:
                row, lhs_text = lhs, value(lhs) + before_rhs
            if type(status) is str and type(exact) is bool:  # equal values, equal text
                tail = tails.get((status, exact)) or tails.setdefault((status, exact), tail_text(status, exact))
            else:
                tail = tail_text(status, exact)
            write(
                f"{lead}{prefix}{grid(lam, q)}{lhs_text}"
                f"{_repr(rhs) if type(rhs) is float and rhs - rhs == 0 else value(rhs)}"
                f"{before_margin}"
                f"{_repr(margin) if type(margin) is float and margin - margin == 0 else value(margin)}"
                f"{tail}"
            )
            lead = between
        return lead

    return write_records


def _not_a_record(item):
    raise TypeError(f"a report record must be a VerificationRecord, not {type(item).__name__}")


def _by_identity(text):
    """``text(x, y)``, cached by the identity of ``x`` and ``y``.

    A campaign takes lam and q from its grids, so a report holds few
    distinct pairs; records with fresh objects refill the cache, which is
    cleared when it holds 4096 entries.  An entry holds x and y, so their
    ids are not reused while it is cached.
    """
    cache = {}

    def cached(x, y):
        hit = cache.get((id(x), id(y)))
        if hit is None:
            if len(cache) >= 4096:
                cache.clear()
            hit = cache[id(x), id(y)] = x, y, text(x, y)
        return hit[2]

    return cached


def _json_field(v) -> str:
    """One field of a record as ``json.dumps`` writes it in a report."""
    if type(v) is float and v - v == 0:
        return _repr(v)
    if type(v) is str:
        return _ascii(v)
    if v is None:
        return "null"
    return json.dumps(v, indent=2).replace("\n", "\n      ")


# The pieces of a JSON record (see _record_writer).
_JSON = (
    lambda claim, function, a, b: (
        f'{{\n      "claim": {_json_field(claim)},'
        f'\n      "function": {_json_field(function)},'
        f'\n      "a": {_json_field(a)},\n      "b": {_json_field(b)},'
        '\n      "lambda": '
    ),
    lambda lam, q: f'{_json_field(lam)},\n      "q": {_json_field(q)},\n      "lhs": ',
    _json_field,
    ',\n      "rhs": ',
    ',\n      "margin": ',
    lambda status, exact: (
        f',\n      "status": {_json_field(status)},\n      "exact": {_json_field(exact)}\n    }}'
    ),
)


def to_csv(records, out: Optional[TextIO] = None) -> Optional[str]:
    """The records as CSV, a header row of :data:`~hhbounds.records.FIELDS`
    and one row per :class:`VerificationRecord` (:func:`_write_records`;
    any other item raises TypeError): returned as a string, or written to
    ``out`` row by row and None returned.  ``records`` may be an iterator
    or a :class:`~hhbounds.harness.CampaignStream`, read as it is written.  Cells are written as ``csv.writer`` writes
    them: None as an empty cell, a float as its ``repr``; ``exact`` is
    written as ``true`` or ``false``.
    """
    buf = io.StringIO() if out is None else out
    cells = io.StringIO()
    writer = csv.writer(cells, lineterminator="\n")

    def csv_cells(*values) -> str:
        """``values`` as cells of one row, as ``csv.writer`` writes them,
        without the line end."""
        cells.seek(0)
        cells.truncate()
        writer.writerow(values)
        return cells.getvalue()[:-1]

    def value(v) -> str:
        if type(v) is float:
            return _repr(v)
        # written beside an empty cell: alone, an empty value would be
        # quoted, as csv.writer quotes a row of one empty cell
        return "" if v is None else csv_cells(v, None)[:-1]

    def tail(status, exact) -> str:
        # a record's status is one of STATUSES, which need no quoting
        return f",{status if type(status) is str else value(status)},{'true' if exact else 'false'}\n"

    buf.write(csv_cells(*FIELDS) + "\n")
    _write_records(
        records, buf.write, "", "",
        lambda claim, function, a, b: csv_cells(claim, function, a, b) + ",",
        lambda lam, q: csv_cells(lam, q) + ",",
        value, ",", ",", tail,
    )
    return buf.getvalue() if out is None else None


def to_table(doc: dict, out: Optional[TextIO] = None) -> Optional[str]:
    """A report document as a fixed-width table with a summary footer:
    returned as a string, or written to ``out`` and None returned.  Its
    records (:class:`VerificationRecord` objects; any other item raises
    TypeError) may be an iterator or a
    :class:`~hhbounds.harness.CampaignStream`, read a record at a time;
    the summary is read after the last of them."""
    buf = io.StringIO() if out is None else out
    header = f"{'claim':<18} {'function':<8} {'a':>9} {'b':>9} {'lambda':>8} {'q':>6} {'lhs':>13} {'rhs':>13} {'margin':>13} {'status':<17} exact"
    buf.write(f"{header}\n{'-' * len(header)}\n")

    def num(v, width, digits=6):
        return ("" if v is None else f"{v:.{digits}g}").rjust(width)

    records = doc["records"]
    if isinstance(records, harness.CampaignStream):
        records = itertools.chain.from_iterable(records)
    for record in records:
        if type(record) is not VerificationRecord:
            _not_a_record(record)
        claim, function, a, b, lam, q, lhs, rhs, margin, status, exact = record
        buf.write(
            f"{claim:<18} {function:<8} {num(a, 9)} {num(b, 9)}"
            f" {num(lam, 8, 4)} {num(q, 6, 4)} {num(lhs, 13)}"
            f" {num(rhs, 13)} {num(margin, 13)} {status:<17}"
            f" {'yes' if exact else 'no'}\n"
        )
    s = doc["summary"]
    lines = ["", f"records: {s['total']}  " + "  ".join(f"{k}={v}" for k, v in s["by_status"].items())]
    if s["violated_stated_only"]:
        lines.append("violated (stated-only): " + ", ".join(s["violated_stated_only"]))
    if s["violated_proof_backed"]:
        lines.append(
            "violated (proof-backed, implementation bug): "
            + ", ".join(s["violated_proof_backed"])
        )
    buf.write("\n".join(lines) + "\n")
    return buf.getvalue() if out is None else None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_bound(args, parser) -> int:
    try:
        return _print_bound(args, parser)
    except (ValueError, OverflowError) as exc:  # data the bounds reject
        parser.error(str(exc))


def _print_bound(args, parser) -> int:
    """The bound in exact rationals, with its q-th root kept exact (taken
    at 50 digits where q's denominator is above 2), printed as the nearest
    float; a value too large for one raises OverflowError."""
    rule, variant = args.rule, args.variant
    q = args.q if args.q is not None else Fraction(1)
    if q < 1:
        parser.error("--q must be >= 1")
    domain = Interval(args.a, args.b)
    if args.ma is not None or args.mb is not None:
        if args.ma is None or args.mb is None:
            parser.error("--ma and --mb must be given together")
        if isinstance(rule, str):
            num = {"midpoint": 1, "trapezoid": 2, "simpson": 3}[rule]
            claim, lam = f"cor{num}-{variant}", bounds.RULE_LAMBDA_EXACT[rule]
        else:
            claim, lam = f"thm6-{variant}", rule
        ends = bounds.EndpointData(args.ma, args.mb)
        values = [bounds.bound_theorem6(domain, lam, q, ends, variant)]
    elif args.big_m is not None:
        if not isinstance(rule, str):
            parser.error(
                "--big-m requires a named rule (midpoint/trapezoid/simpson)"
            )
        num = {"midpoint": 4, "trapezoid": 5, "simpson": 8}[rule]
        claim = f"cor{num}-{'relaxed' if args.form == 'relaxed' else variant}"
        env = bounds.DerivativeEnvelope(sup_abs_d2=args.big_m)
        values = [
            bounds.bound_bounded_m(rule, domain, q, env, args.form, variant)
        ]
    elif args.k_lo is not None or args.k_hi is not None:
        if args.k_lo is None or args.k_hi is None:
            parser.error("--k-lo and --k-hi must be given together")
        if rule not in ("midpoint", "trapezoid"):
            parser.error("--k-lo/--k-hi apply to the midpoint or trapezoid rule")
        claim = "mid-envelope" if rule == "midpoint" else "trap-envelope"
        env = bounds.DerivativeEnvelope(lower_d2=args.k_lo, upper_d2=args.k_hi)
        values = bounds.bound_classical(rule, domain, env)
    elif args.d4_sup is not None:
        if rule != "simpson":
            parser.error("--d4-sup applies to the simpson rule")
        claim = f"simpson-4th-p{args.p}"
        env = bounds.DerivativeEnvelope(sup_abs_d4=args.d4_sup)
        values = [bounds.bound_classical("simpson", domain, env, args.p)]
    else:
        parser.error("provide endpoint data (--ma/--mb) or an envelope flag")
    print(claim, *(_fmt(float(v)) for v in values))
    return 0


def _campaign_config(args, parser, claims=()) -> harness.CampaignConfig:
    seed = args.seed
    env_seed = os.environ.get("HHBOUNDS_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            parser.error(f"HHBOUNDS_SEED is not an integer: {env_seed!r}")
    kwargs = {}
    if args.lambda_grid is not None:
        kwargs["lambda_grid"] = args.lambda_grid
    if args.q_grid is not None:
        kwargs["q_grid"] = args.q_grid
    try:
        return harness.CampaignConfig(
            claims=claims,
            functions=args.functions,
            trials=args.trials,
            seed=seed,
            **kwargs,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _validate_ids(config, parser) -> None:
    try:
        harness.resolve_claims(config.claims)
        harness.resolve_functions(config.functions, None)
    except KeyError as exc:
        parser.error(str(exc.args[0]))


def _write_report(doc: dict, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        to_json(doc, out)
    elif fmt == "csv":
        to_csv(doc["records"], out)
    else:
        to_table(doc, out)


@contextlib.contextmanager
def _replaced_when_done(path: str):
    """A text stream whose content replaces the file at ``path`` when the
    block exits without raising.  Until then it is a file beside the target;
    if the block raises, that file is removed and the target left as it
    was.  A replaced target keeps its mode, not its owner or hard links.
    A path that exists but is not a regular file (a device or a pipe), or
    whose directory takes no new file, is written directly."""
    fh = None
    if not os.path.exists(path) or os.path.isfile(path):
        target = os.path.realpath(path)
        directory, name = os.path.split(target)
        part = os.path.join(directory, f".{name}.{os.getpid()}.part")
        try:
            fh = open(part, "w")
        except OSError:
            pass
    if fh is None:
        with open(path, "w") as fh:
            yield fh
        return
    try:
        with fh:
            yield fh
        if os.path.exists(target):
            os.chmod(part, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(part, target)
    except BaseException:
        if os.path.exists(part):
            os.unlink(part)
        raise


def _cmd_verify(args, parser) -> int:
    config = _campaign_config(args, parser, args.claims)
    _validate_ids(config, parser)
    campaign = harness.CampaignStream(config)
    doc = report_document(campaign)
    if args.out:
        with _replaced_when_done(args.out) as fh:
            _write_report(doc, args.format, fh)
        s = campaign.summary
        print(
            f"wrote {s['total']} records to {args.out} "
            f"(violated: {s['by_status']['violated']})",
            file=sys.stderr,
        )
    else:
        _write_report(doc, args.format, sys.stdout)

    if campaign.summary["violated_proof_backed"]:
        return 2
    if campaign.summary["violated_stated_only"]:
        return 1
    return 0


def _cmd_means(args, parser) -> int:
    try:
        return _print_means(args, parser)
    except (ValueError, OverflowError) as exc:  # arguments the means reject
        parser.error(str(exc))


def _print_means(args, parser) -> int:
    if args.prop is None:
        a, b = float(args.a), float(args.b)
        lines = [f"A {_fmt(means.mean_arithmetic(a, b))}"]
        if a != b:
            lines.append(f"L {_fmt(means.mean_logarithmic(a, b))}")
        if args.n is not None:
            ln = means.mean_generalized_log(a, b, args.n)
            lines.append(f"L{args.n} {_fmt(ln)}")
        print("\n".join(lines))
        return 0

    if args.n is None:
        parser.error("--n is required with --prop")
    q = float(args.q) if args.q is not None else 1.0
    rec = means.check_proposition(
        args.prop, args.a, args.b, args.n, q, args.variant
    )
    if abs(args.n * (args.n - 1)) < 3:
        print(
            f"note: |n(n-1)| = {abs(args.n * (args.n - 1))} < 3 is outside the "
            "stated hypothesis",
            file=sys.stderr,
        )
    print(
        f"{rec.claim} n={args.n} a={_fmt(rec.a)} b={_fmt(rec.b)} q={_fmt(rec.q)} "
        f"lhs={_fmt(rec.lhs)} rhs={_fmt(rec.rhs)} margin={_fmt(rec.margin)} "
        f"status={rec.status}"
    )
    return 1 if rec.status == "violated" else 0


def _cmd_identity(args, parser) -> int:
    fn = _lookup_function(args.function, parser)
    domain = _function_domain(fn, args, parser)
    residual = functionals.identity_residual(fn, domain, float(args.lam))
    print(f"residual {_fmt(residual)}")
    return 2 if residual > 1e-8 else 0


def _cmd_pconvex(args, parser) -> int:
    fn = _lookup_function(args.function, parser)
    domain = _function_domain(fn, args, parser)
    report = check_p_convex(fn.f, domain, args.grid)
    if report.status == "passed":
        print(f"passed samples={report.samples_checked}")
        return 0
    if report.status == "failed":
        w = report.witness
        print(
            f"failed witness x={_fmt(w.x)} y={_fmt(w.y)} lam={_fmt(w.lam)} "
            f"lhs={_fmt(w.lhs)} rhs={_fmt(w.rhs)} samples={report.samples_checked}"
        )
        return 1
    print(f"undefined at x={_fmt(report.undefined_at)}")
    return 2


def _cmd_search(args, parser) -> int:
    config = _campaign_config(args, parser)
    _validate_ids(config, parser)
    try:
        claim = harness.get_claim(args.claim)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    outcome = harness.find_counterexample(claim.id, config)
    if outcome.record is None:
        print(f"no counterexample found for {claim.id} in {outcome.trials} trials")
    else:
        r = outcome.record
        print(
            f"counterexample for {claim.id} after {outcome.trials} trials: "
            f"function={r.function} a={_fmt(r.a)} b={_fmt(r.b)} "
            f"lambda={'-' if r.lam is None else _fmt(r.lam)} "
            f"q={'-' if r.q is None else _fmt(r.q)} "
            f"lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} margin={_fmt(r.margin)}"
        )
    return 0


def _lookup_function(fid: str, parser):
    try:
        return get_function(fid)
    except KeyError as exc:
        parser.error(str(exc.args[0]))


def _function_domain(fn, args, parser) -> Interval:
    """``[--a, --b]`` as an interval inside the validity domain of ``fn``."""
    lo, hi = float(args.a), float(args.b)
    if not lo < hi:
        parser.error("--a must be less than --b")
    domain = Interval(lo, hi)
    if not fn.domain.contains(domain):
        parser.error(
            f"[{_fmt(lo)}, {_fmt(hi)}] is outside the validity domain of "
            f"{fn.id} [{_fmt(fn.domain.lo)}, {_fmt(fn.domain.hi)}]"
        )
    return domain


def _grid_spec(text: str) -> GridSpec:
    parts = tuple(int(p) for p in text.split(",") if p.strip())
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be nx,ny,nlam")
    try:
        return GridSpec(*parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="hhbounds", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate one bound")
    p_bound.add_argument("--rule", type=_parse_rule, required=True)
    p_bound.add_argument("--a", type=parse_real, required=True)
    p_bound.add_argument("--b", type=parse_real, required=True)
    p_bound.add_argument("--q", type=parse_real)
    p_bound.add_argument("--variant", choices=("stated", "derived"), default="stated")
    p_bound.add_argument("--ma", type=parse_real, help="|f''(a)|")
    p_bound.add_argument("--mb", type=parse_real, help="|f''(b)|")
    p_bound.add_argument("--big-m", type=parse_real, help="uniform bound M on |f''|")
    p_bound.add_argument("--form", choices=("with_q", "relaxed"), default="with_q")
    p_bound.add_argument("--k-lo", type=parse_real, help="lower bound on f''")
    p_bound.add_argument("--k-hi", type=parse_real, help="upper bound on f''")
    p_bound.add_argument("--d4-sup", type=parse_real, help="sup |f''''|")
    p_bound.add_argument("--p", type=int, choices=(2, 4), default=4)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("--claims", type=_split_ids, default=("all",))
    p_verify.add_argument("--functions", type=_split_ids, default=("all",))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--trials", type=int, default=0, help="number of random intervals to add"
    )
    p_verify.add_argument("--lambda-grid", type=_parse_grid, default=None)
    p_verify.add_argument("--q-grid", type=_parse_grid, default=None)
    p_verify.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_verify.add_argument("--out", default=None)

    p_means = sub.add_parser("means", help="special means and inequality checks")
    p_means.add_argument("--prop", type=int, choices=(1, 2, 3))
    p_means.add_argument("--n", type=int)
    p_means.add_argument("--a", type=parse_real, required=True)
    p_means.add_argument("--b", type=parse_real, required=True)
    p_means.add_argument("--q", type=parse_real)
    p_means.add_argument("--variant", choices=("stated", "derived"), default="stated")

    p_id = sub.add_parser("identity", help="kernel representation residual")
    p_id.add_argument("--function", required=True, help=f"one of {', '.join(function_ids())}")
    p_id.add_argument("--a", type=parse_real, required=True)
    p_id.add_argument("--b", type=parse_real, required=True)
    p_id.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)

    p_pc = sub.add_parser("pconvex", help="lattice P-convexity check")
    p_pc.add_argument("--function", required=True)
    p_pc.add_argument("--a", type=parse_real, required=True)
    p_pc.add_argument("--b", type=parse_real, required=True)
    p_pc.add_argument("--grid", type=_grid_spec, default=GridSpec(), help="nx,ny,nlam")

    p_search = sub.add_parser("search", help="randomized counterexample search")
    p_search.add_argument("--claim", required=True)
    p_search.add_argument("--functions", type=_split_ids, default=("all",))
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--trials", type=int, default=500)
    p_search.add_argument("--lambda-grid", type=_parse_grid, default=None)
    p_search.add_argument("--q-grid", type=_parse_grid, default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bound": _cmd_bound,
        "verify": _cmd_verify,
        "means": _cmd_means,
        "identity": _cmd_identity,
        "pconvex": _cmd_pconvex,
        "search": _cmd_search,
    }
    return handlers[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
