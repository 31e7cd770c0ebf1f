"""Run one su2rep CLI request with timing wrappers around each module.

Usage, with ``PYTHONPATH=src``:

    python bench/traced.py SPANS_FILE CLI_ARG...

Installs the wrappers, calls ``su2rep.cli.main(CLI_ARG...)`` and, at exit,
writes JSON lines to SPANS_FILE: one line per span (``span``, ``metric``,
``id``, ``parent``, ``start``, ``end``), then one ``{"metrics": {...}}`` line
with the counters and accumulated timers.  Stdout and the exit code are the
CLI's own, so a traced response hashes the same as an untraced one.

Each request runs in its own process: running several in one would warm
``surfaces.poincare_sectors``'s ``lru_cache`` and measure another program.
A name is wrapped where it is looked up, so from-imports (``checks`` and
``surfaces`` importing from ``exterior``, ``locimage`` importing
``koszul_sign``) and the ``cli._HANDLERS`` values get wrappers of their own.
Hot calls get counters or accumulated timers rather than span records.
Wrappers sharing a metric do not nest: an inner call to a metric already
being timed (recursion, or a wrapped callee under another name) is not
counted twice.

Which end-to-end metric each layer should move, written before measuring:

* ``cli`` (import, parse, cache, render): ``request_p50_s`` on cli-small;
  render also ``requests_per_s`` on compute, whose responses reach 13 MB.
* ``ratpoly``, ``surfaces``: ``requests_per_s`` on compute (betti, orbit,
  equivariant, bigraded, verify); little on cli-small.
* ``checks``: ``request_tail_s`` on compute, where verify is among the
  slowest requests.
* ``locimage``: ``requests_per_s`` and ``peak_rss_mb`` on compute (cup
  tables, localization images); little on cli-small.
* ``exterior``: compute, through verify and the cup tables.
* ``numeric``, ``quaternions``: cli-small, through its numeric-check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, metric, parent id, start, end]
        self.stack: list[int] = []
        self.active: set[str] = set()
        self.metrics: dict[str, float] = defaultdict(float)

    def span(self, name: str, metric: str, fn, on_result=None):
        """Records one span per outermost call."""

        def wrapper(*args, **kwargs):
            if metric in self.active:
                return fn(*args, **kwargs)
            self.active.add(metric)
            span_id = len(self.spans)
            record = [name, metric, self.stack[-1] if self.stack else None, perf(), None]
            self.spans.append(record)
            self.stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf()
                self.stack.pop()
                self.active.discard(metric)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def timer(self, count_metric: str | None, time_metric: str, fn):
        """Counts every call and accumulates the time of outermost calls."""

        def wrapper(*args, **kwargs):
            if count_metric:
                self.metrics[count_metric] += 1
            if time_metric in self.active:
                return fn(*args, **kwargs)
            self.active.add(time_metric)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.metrics[time_metric] += perf() - start
                self.active.discard(time_metric)

        return wrapper

    def counter(self, metric: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self.metrics[metric] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def add(self, metric: str, value: float = 1):
        self.metrics[metric] += value

    def write(self, path: str):
        with open(path, "w") as handle:
            for span_id, (name, metric, parent, start, end) in enumerate(self.spans):
                row = {"span": name, "metric": metric, "id": span_id, "parent": parent, "start": start, "end": end}
                handle.write(json.dumps(row) + "\n")
            handle.write(json.dumps({"metrics": self.metrics}) + "\n")


def install(rec: Recorder):
    from su2rep import checks, cli, exterior, locimage, numeric, quaternions, ratpoly, surfaces

    def span(module, attr, metric, on_result=None):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, rec.span(name, metric, getattr(module, attr), on_result))

    # cli: phases of main()
    span(cli, "build_parser", "cli.parse_s")
    argparse.ArgumentParser.parse_args = rec.span("cli.parse_args", "cli.parse_s", argparse.ArgumentParser.parse_args)
    span(cli, "_validate", "cli.parse_s")
    span(cli, "_cache_load", "cli.cache_load_s", lambda r: rec.add("cli.cache_misses" if r is None else "cli.cache_hits"))
    span(cli, "_cache_store", "cli.cache_store_s")
    for command, handler in cli._HANDLERS.items():
        cli._HANDLERS[command] = rec.span(f"cli.handler.{command}", "cli.compute_s", handler)
    for attr in ("_render_json", "_render_csv"):
        span(cli, attr, "cli.render_s", lambda r: rec.add("cli.render_calls"))

    # ratpoly: exact arithmetic and canonicalization
    RatFn, RatPoly = ratpoly.RatFn, ratpoly.RatPoly
    RatFn.__init__ = rec.timer("ratpoly.ratfn_inits", "ratpoly.ratfn_init_s", RatFn.__init__)
    ratpoly.poly_gcd = rec.counter("ratpoly.poly_gcd_calls", ratpoly.poly_gcd)
    ratpoly.poly_divmod = rec.timer("ratpoly.poly_divmod_calls", "ratpoly.poly_divmod_s", ratpoly.poly_divmod)
    RatPoly.__init__ = rec.counter("ratpoly.ratpoly_inits", RatPoly.__init__)
    RatPoly.__mul__ = rec.timer("ratpoly.mul_calls", "ratpoly.mul_s", RatPoly.__mul__)
    RatPoly.__rmul__ = rec.timer("ratpoly.mul_calls", "ratpoly.mul_s", RatPoly.__rmul__)
    RatPoly.__pow__ = rec.timer(None, "ratpoly.pow_s", RatPoly.__pow__)

    # surfaces: closed forms
    for attr in ("poincare_sectors", "orbit_poincare", "pair_poincare", "equivariant_poincare",
                 "bigraded_poincare", "recursion_verify"):
        span(surfaces, attr, f"surfaces.{attr}_s")

    # checks: the verify suite, one span per check
    span(checks, "run_verify", "checks.run_verify_s")
    for attr in [a for a in vars(checks) if a.startswith("check_")]:
        span(checks, attr, f"checks.{attr}_s")

    # locimage: mask enumerations
    span(locimage, "cup_table", "locimage.cup_table_s")
    locimage.cup_product = rec.counter(
        "locimage.cup_product_calls",
        locimage.cup_product,
        lambda r: None if r is None else rec.add("locimage.cup_entries"),
    )
    ImageSpec = locimage.ImageSpec
    ImageSpec.__post_init__ = rec.counter("locimage.imagespec_inits", ImageSpec.__post_init__)
    span(locimage, "image_basis", "locimage.image_basis_s", lambda r: rec.add("locimage.image_basis_elements", len(r)))
    span(locimage, "image_hilbert_series", "locimage.image_hilbert_series_s")
    span(locimage, "factorization_check", "locimage.factorization_check_s")

    # exterior, at every module that looks the names up
    for module in (exterior, checks):
        span(module, "weyl_invariant_series", "exterior.weyl_invariant_series_s")
    for module in (exterior, checks, surfaces):
        span(module, "fixed_point_poincare", "exterior.fixed_point_poincare_s")
    for module in (exterior, locimage):
        module.koszul_sign = rec.counter("exterior.koszul_sign_calls", module.koszul_sign)

    # numeric and quaternions: the numpy oracle
    span(numeric, "numeric_check_suite", "numeric.numeric_check_suite_s")
    numeric.box_singular_values = rec.timer(None, "numeric.box_singular_values_s", numeric.box_singular_values)
    quaternions.mul = rec.counter("quaternions.mul_calls", quaternions.mul)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    start = perf()
    import su2rep.cli

    rec.add("cli.import_s", perf() - start)
    rec.add("cli.numpy_imported", int("numpy" in sys.modules))
    install(rec)
    try:
        code = su2rep.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        rec.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
