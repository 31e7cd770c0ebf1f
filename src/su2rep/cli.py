"""Command-line interface.

Every command writes one canonical report to stdout, as minified JSON with
sorted keys (default) or as a flattened path,value CSV carrying the same
content.  ``main`` makes the envelope of the report (schema, command, and n
and target where the command takes them) and a handler adds its own fields.
The report is a payload: a tree of dicts and lists in which a large list may
be a ``LazyList``, made only while it is written: the coefficients or
[exp, coeff, "1"] triples of a series, or the rows of an enumeration.  CSV
flattens its values; JSON encodes them _BATCH at a time, or writes its texts,
made faster from the same source (basis rows from str.format templates,
cup-table entries by left factor).  Values become text here alone and are
never parsed back.  One writer walks the payload once and streams its text in
chunks, so no report is held whole.  Errors are raised before the walk
starts, so a failed request writes nothing.

Identical requests produce byte-identical output, with or without the
on-disk cache, a pure accelerator.  An entry holds the bytes stdout got,
then one line with its request key: on a miss the writer's chunks also go
to a temp file, renamed into place once that line ends it, and a hit checks
the line and copies the response to stdout in chunks, decoding no JSON and
computing nothing.  An entry is named by a digest of the package source,
which covers the package version, and a key of the parsed request, every
option and the format included, so an entry written by other code or for
another request never matches; a store removes the entries of other source
digests and the temp files of misses that were killed, once an hour old.
``verify`` and ``numeric-check`` never read or write it, so their verdicts
always come from the running code.

Exit codes: 0 success, 1 mathematical inconsistency (a cross-check failed,
which means a bug, never bad input), 2 usage error, 141 stdout closed by its
reader before the report was written, 143 SIGTERM (a miss removes its temp
entry first).
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import io
import json
import operator
import os
import re
import sys
from collections import namedtuple
from itertools import chain, islice, starmap, zip_longest
from pathlib import Path

from .targets import ENUMERATION_CAP, ConsistencyError, SurfaceTarget, TargetKind

SCHEMA_VERSION = 1

# An entry is "<source digest>-<request key>.json"; older code wrote "<request key>.json".
_ENTRY_NAME = re.compile("([0-9a-f]{64}-)?[0-9a-f]{64}[.]json")
# A store removes temp files this much older than its entry, left by a killed miss; a younger one may be writing.
_STALE_TEMP_S = 3600


def _target(ns) -> SurfaceTarget:
    return SurfaceTarget(TargetKind(ns.target), ns.n)


def _cmd_betti(ns) -> dict:
    from . import surfaces

    target = _target(ns)
    plus, minus = surfaces.poincare_sectors(target)
    # plus + minus, a coefficient at a time while it is written; no coefficient is negative, so none cancels.
    total = starmap(operator.add, zip_longest(plus.dense_coefficients(), minus.dense_coefficients(), fillvalue=0))
    return {
        "variety": target.variant.value if target.is_central else "generic-product",
        "poincare": LazyList(items=total),
        "poincare_plus": LazyList(items=plus.dense_coefficients()),
        "poincare_minus": LazyList(items=minus.dense_coefficients()),
        "euler_characteristic": surfaces.euler_characteristic(target),
        "two_torsion": surfaces.has_two_torsion(target) if target.is_central else None,
        "dimension": target.dimension,
    }


def _cmd_bigraded(ns) -> dict:
    from . import surfaces

    target = _target(ns)
    bigraded = surfaces.bigraded_poincare(target)
    return {
        "variety": target.variant.value,
        "bigraded": _triples(([k, two_l], count) for (k, two_l), count in sorted(bigraded.items())),
        "specialized": LazyList(items=surfaces.specialize_total_degree(bigraded).dense_coefficients()),
        "specialization_rule": "x^a y^b -> t^(a+b)",
    }


def _cmd_equivariant(ns) -> dict:
    from . import surfaces

    target = _target(ns)
    series = surfaces.equivariant_poincare(target)
    return {
        "t_series": _series(series.t_series),
        "g_series": _series(series.g_series),
        "fixed_orbit_g_series": _series(surfaces.gxt_equivariant_series(target)),
        "pair_series": _series(surfaces.pair_poincare(target)),
        "pair_cup_product_trivial": True,
        "equivariantly_formal": True,
    }


def _cmd_localization_image(ns) -> dict:
    from . import locimage
    from .exterior import Sector

    target = _target(ns)
    bound = ns.degree_bound if ns.degree_bound is not None else locimage.default_degree_bound(ns.n)
    sectors = {}
    for sector in (Sector.PLUS, Sector.MINUS):
        spec = locimage.ImageSpec(ns.n, target.variant, sector)
        sectors[sector.value] = {
            "min_c1_power": list(spec.min_c1_powers),
            "hilbert_series": _series(locimage.image_hilbert_series(spec)),
            "basis": _image_basis(locimage.image_runs(spec, bound), spec.n),
        }
    return {"variety": target.variant.value, "degree_bound": bound, "sectors": sectors}


def _series(series) -> dict:
    """A RatFn in its coprime form, reduced now: the triples of its numerator and of its denominator."""
    num, den = series.reduced()
    return {"numerator": _triples(num.items()), "denominator": _triples(den.items())}


def _triples(pairs) -> LazyList:
    """The [exp, "coeff", "1"] triples of (exp, int coeff) pairs, each made while it is written.

    A decimal string keeps every digit through any JSON reader.
    """
    return LazyList(items=([exp, str(coeff), "1"] for exp, coeff in pairs))


# Row templates: str.format fills in the c1-power and the degree, "@" marks where the subset goes and "#" the sector.
_IMAGE_ROW = '{{"c1_power":{},"degree":{},"subset":@}}'
_ORDINARY_ROW = '{{"c1_power":{},"coeff":"1","sector":"#","subset":@}}'


def _image_basis(runs, n: int) -> LazyList:
    """The rows of an image's runs by subset size: dicts whose subset list is made once per mask, and _IMAGE_ROW texts."""
    rows = (
        {"c1_power": l, "degree": k + 2 * l, "subset": subset}
        for mask in range(1 << n)
        for k in [mask.bit_count()]
        if runs[k]
        for subset in [_subset(mask, n)]
        for l in runs[k]
    )
    return LazyList(rows, _basis_rows(runs, n, _IMAGE_ROW))


def _subset(mask: int, n: int) -> list[int]:
    """The subset of 1..n that mask marks."""
    return [i + 1 for i in range(n) if mask >> i & 1]


def _basis_rows(runs, n: int, row: str):
    """The JSON rows of runs of c1-powers by subset size, as texts of _BATCH to 2 _BATCH - 1 consecutive rows.

    Each row is the row template filled in, mask by mask in ascending order,
    run k over every mask of size k.  The last text may hold fewer.  The
    rows of each part of a run, a slice of _BATCH c1-powers or the whole of
    a shorter run, are one template, split at the subset, and one str.join
    with the subset renders them.  A run of one slice keeps its template for
    every mask of its size; a longer run makes its slices again at each mask,
    so no more than one slice per size is held.  A mask is walked as its low
    and high halves, whose subset texts are made once each.
    """

    def parts(k, powers):  # (rows, template) of each slice of run k
        for start in range(0, len(powers), _BATCH):
            part = powers[start : start + _BATCH]
            degrees = range(k + 2 * part.start, k + 2 * part.stop, 2)
            yield len(part), ",".join(map(row.format, part, degrees)).split("@")

    kept = [tuple(parts(k, powers)) if len(powers) <= _BATCH else None for k, powers in enumerate(runs)]
    half = n // 2
    lows = [(m.bit_count(), "".join(f",{i + 1}" for i in range(half) if m >> i & 1)) for m in range(1 << half)]
    texts, rows = [], 0
    for high in range(1 << (n - half)):
        high_text = "".join(f",{half + i + 1}" for i in range(n - half) if high >> i & 1)
        for low_k, low_text in lows:
            k = low_k + high.bit_count()
            if runs[k]:
                subset = f"[{(low_text + high_text)[1:]}]"
                for count, template in kept[k] or parts(k, runs[k]):
                    texts.append(subset.join(template))
                    rows += count
                    if rows >= _BATCH:
                        yield ",".join(texts)
                        texts, rows = [], 0
    if texts:
        yield ",".join(texts)


def _cmd_cup_table(ns) -> dict:
    from . import locimage
    from .exterior import Sector

    target = _target(ns)
    entries = locimage.iter_cup_entries(ns.n, target.variant)  # raises here, before a byte is written
    specs = [locimage.ImageSpec(ns.n, target.variant, sector) for sector in (Sector.PLUS, Sector.MINUS)]
    return {
        "variety": target.variant.value,
        "basis": _ordinary_basis(specs, ns.n),
        "table": _cup_entries(entries),
        "reduced_cup_product_trivial": True if target.variant.value == "singular" else None,
    }


def _ordinary_basis(specs, n: int) -> LazyList:
    """The rows of ``locimage.ordinary_basis``, the sectors of specs in turn: dicts, and texts of up to _BATCH rows.

    A class is a run of one c1-power, the least for its sector and k = |mask|.
    """
    sectors = [(spec.sector.value, [range(l, l + 1) for l in spec.min_c1_powers]) for spec in specs]
    rows = (
        {"c1_power": least[mask.bit_count()].start, "coeff": "1", "sector": sector, "subset": _subset(mask, n)}
        for sector, least in sectors
        for mask in range(1 << n)
    )
    texts = (_basis_rows(least, n, _ORDINARY_ROW.replace("#", sector)) for sector, least in sectors)
    return LazyList(rows, chain.from_iterable(texts))


def _cup_entries(entries) -> LazyList:
    """The entries [i, j, k, coeff] of the (i, [(j, k, coeff), ...]) groups of a cup walk, as one text per group."""
    texts = (f"[{i}," + f"],[{i},".join(["%d,%d,%d" % entry for entry in products]) + "]" for i, products in entries)
    return LazyList(([i, j, k, coeff] for i, products in entries for j, k, coeff in products), texts)


def _cmd_orbit(ns) -> dict:
    from . import surfaces

    target = _target(ns)
    return {
        "poincare": LazyList(items=surfaces.orbit_poincare(target).dense_coefficients()),
        "pair_series": _series(surfaces.pair_poincare(target)),
        "pair_cup_product_trivial": True,
        "reduced_cup_product_trivial": True if target.is_central and target.variant.value == "singular" else None,
    }


def _cmd_verify(ns) -> dict:
    from . import checks

    results = checks.run_verify(ns.n_max)
    return {
        "n_max": ns.n_max,
        "checks": [r._asdict() for r in results],
        "passed": all(r.passed for r in results),
    }


def _cmd_numeric_check(ns) -> dict:
    from . import numeric

    rows = numeric.numeric_check_suite(seed=ns.seed)
    return {"seed": ns.seed, "checks": rows, "passed": all(row["pass"] for row in rows)}


# A command: its handler, its help, and its traits.  target: it takes --n and --target.  central: it is
# defined for central targets only.  capped: its --n is under the enumeration cap.  options: its own
# options, as (flag, default, least value) triples.  verdict: it is recomputed on every run, never
# cached, since a cached "passed" would outlive the code that earned it; a failed one exits 1.
Command = namedtuple(
    "Command", "handler help target central capped options verdict", defaults=(True, False, False, (), False)
)
_COMMANDS = {
    "betti": Command(_cmd_betti, "Betti numbers and sector split"),
    "bigraded": Command(_cmd_bigraded, "two-variable Poincare polynomial", central=True),
    "equivariant": Command(_cmd_equivariant, "equivariant Poincare series"),
    "localization-image": Command(
        _cmd_localization_image, "fixed-locus image bases and series", central=True, capped=True,
        options=(("--degree-bound", None, 0),),
    ),
    "cup-table": Command(_cmd_cup_table, "cup-product structure constants", central=True, capped=True),
    "orbit": Command(_cmd_orbit, "orbit-space Poincare polynomial"),
    "verify": Command(
        _cmd_verify, "run the full consistency suite", target=False, options=(("--n-max", 8, 1),), verdict=True
    ),
    "numeric-check": Command(
        _cmd_numeric_check, "quaternion geometry oracle", target=False, options=(("--seed", 0, 0),), verdict=True
    ),
}
# bench/traced.py wraps the values of _HANDLERS, so _respond calls a handler through it.
_HANDLERS = {name: command.handler for name, command in _COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2rep",
        description="Exact cohomology tables for SU(2) representation varieties of nonorientable surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help + (" (central targets)" if command.central else ""))
        if command.target:
            p.add_argument("--n", type=int, required=True, help="cross-cap count minus one (tuple length - 1)")
            p.add_argument("--target", choices=sorted(kind.value for kind in TargetKind), required=True)
        for flag, default, _ in command.options:
            p.add_argument(flag, type=int, default=default)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--no-cache", action="store_true")
        p.set_defaults(parser=p)  # usage errors are reported by the subcommand's own parser
    return parser


def _validate(ns):
    error = ns.parser.error
    command = _COMMANDS[ns.command]
    if command.target:
        if ns.n < 0:
            error("--n must be non-negative")
        if command.capped and ns.n > ENUMERATION_CAP:
            error(f"--n exceeds the enumeration cap {ENUMERATION_CAP} for {ns.command}")
    for flag, _, least in command.options:
        value = getattr(ns, flag[2:].replace("-", "_"))
        if value is not None and value < least:
            error(f"{flag} must be " + ("non-negative" if least == 0 else f"at least {least}"))
    if command.central and ns.target == "generic":
        error(f"{ns.command} is defined for central targets only (--target plus or minus)")


# -- caching ---------------------------------------------------------------


def _cache_dir() -> Path:
    env = os.environ.get("SU2REP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "su2rep"


def _entry_path(ns) -> Path:
    """Where the request's entry lives, named by two sha256 digests.

    The source digest covers the bytes of every su2rep/*.py file, in sorted name
    order, and the request key every parsed option, the format included.
    """
    import hashlib  # only the cache path hashes

    source = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source.update(path.read_bytes())
    fields = {key: value for key, value in vars(ns).items() if key not in ("parser", "no_cache")}
    request = hashlib.sha256(json.dumps(fields, sort_keys=True, separators=(",", ":")).encode())
    return _cache_dir() / f"{source.hexdigest()}-{request.hexdigest()}.json"


def _cache_load(path: Path):
    """(the open entry, the byte length of its response), or None unless the entry ends with its key line."""
    tail = f"\n{path.stem[65:]}\n".encode()  # the response's last newline, then the request key
    try:
        handle = open(path)  # text, so handle.encoding is the one the entry was written in
    except OSError:
        return None
    with contextlib.suppress(OSError):  # also raised by an entry shorter than the tail
        length = handle.buffer.seek(-len(tail), os.SEEK_END) + 1
        if handle.buffer.read() == tail:
            handle.buffer.seek(0)
            return handle, length
    handle.close()
    return None


def _copy(hit):
    """Write the response of a loaded entry to stdout, _COPY bytes at a time."""
    handle, length = hit
    decode = codecs.getincrementaldecoder(handle.encoding)().decode
    with handle:
        while chunk := handle.buffer.read(min(length, _COPY)):
            length -= len(chunk)
            sys.stdout.write(decode(chunk))


class _CacheEntry:
    """An entry being written: a temp file beside it, committed by ``_cache_store``.

    Caching is best effort only: an OSError drops the temp file, never the output.
    Until ``discard``, SIGTERM exits with 143, what a shell reports for it, so the
    temp file goes as it does on an error.
    """

    def __init__(self, path: Path):
        import signal  # only a cache miss has a temp file to remove
        import tempfile

        self.path = path
        self.tmp = self.handle = None
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        self.restore = lambda: previous is None or signal.signal(signal.SIGTERM, previous)  # None: set outside Python
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, self.tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            self.handle = os.fdopen(fd, "w")
        except OSError:
            self.discard()

    def write(self, text: str):
        if self.handle is not None:
            try:
                self.handle.write(text)
            except OSError:
                self.discard()

    def discard(self):
        """Close and remove the temp file, if it is still there."""
        if self.handle is not None:
            with contextlib.suppress(OSError):
                self.handle.close()
            self.handle = None
        if self.tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.tmp)
            self.tmp = None
        self.restore()


def _cache_store(entry: _CacheEntry):
    """End the temp file with the key line, rename it into place, then evict other code's entries and stale temp files."""
    entry.write(entry.path.stem[65:] + "\n")
    if entry.handle is None:
        return
    directory = entry.path.parent
    digest = entry.path.name[:64]
    try:
        entry.handle.close()
        entry.handle = None
        os.replace(entry.tmp, entry.path)
        entry.tmp = None
        stale = entry.path.stat().st_mtime - _STALE_TEMP_S  # the file system's clock, which dates the temp files
        for other in directory.iterdir():
            if other.suffix == ".tmp":
                with contextlib.suppress(OSError):  # a miss that ends meanwhile removes or renames its own
                    if other.stat().st_mtime < stale:
                        other.unlink()
            elif _ENTRY_NAME.fullmatch(other.name) and not other.name.startswith(digest):
                other.unlink(missing_ok=True)
    except OSError:
        entry.discard()


# -- rendering ---------------------------------------------------------------
#
# A payload is a tree of dicts (str keys), lists, ints, strs, bools and None,
# where a list may be a ``LazyList``, but not one inside a plain list.

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_BATCH = 1024  # rows per text of a long run, or CSV rows, per chunk
_COPY = 1 << 16  # bytes per chunk of a cache hit


class LazyList(namedtuple("LazyList", "items texts", defaults=(None,))):
    """A list made while it is written: items, the values CSV flattens, and optional texts, the same list's JSON.

    Each text is one chunk of one or more consecutive items joined by commas, never empty, made from the
    same source as the items.  A request writes one format, so it reads only one of the two.
    """


def _json_chunks(value):
    """The text of json.dumps(value, sort_keys=True, separators=(",", ":")), in pieces."""
    if isinstance(value, LazyList):
        texts, items = value.texts, iter(value.items)
        if texts is None:  # the items, encoded _BATCH at a time
            texts = (_encode(batch)[1:-1] for batch in iter(lambda: list(islice(items, _BATCH)), []))
        head = "["
        for text in texts:
            yield head + text
            head = ","
        yield "]" if head == "," else "[]"
        return
    if isinstance(value, dict):  # walked key by key, so no value is encoded twice
        head = "{"
        for key in sorted(value):
            yield head + _encode(key) + ":"
            yield from _json_chunks(value[key])
            head = ","
        yield "}" if head == "," else "{}"
        return
    yield _encode(value)  # no LazyList below a plain list


def _flatten(payload, prefix: str = ""):
    """(path, text) of every leaf of payload, depth first, dict keys in sorted order.

    One generator walks the tree with a stack of (path head, child iterator)
    pairs, one per open container, so a leaf is not handed up through a
    generator per level.
    """
    stack = [("", iter([(prefix, payload)]))]
    while stack:
        head, items = stack[-1]
        for key, value in items:
            if type(value) is int:  # the common leaf (a bool is not exactly int)
                yield f"{head}{key}", str(value)
            elif isinstance(value, str):
                yield f"{head}{key}", value
            elif isinstance(value, dict):
                path = f"{head}{key}"
                stack.append((f"{path}/" if path else "", iter(sorted(value.items()))))
                break
            elif isinstance(value, list):
                stack.append((f"{head}{key}/", enumerate(value)))
                break
            elif isinstance(value, LazyList):
                stack.append((f"{head}{key}/", enumerate(value.items)))
                break
            elif isinstance(value, bool):
                yield f"{head}{key}", "true" if value else "false"
            elif value is None:
                yield f"{head}{key}", "null"
            else:
                yield f"{head}{key}", json.dumps(value)
        else:
            stack.pop()


def _csv_chunks(payload):
    """The path,value CSV of payload: the header, then chunks of up to _BATCH rows.

    A chunk of n rows whose text holds n commas, n line feeds and no quote
    or CR needs no quoting, so it is written as it is; any other chunk goes
    through csv.writer, which writes a row that needs no quoting the same way.
    """
    import csv  # only --format csv needs it

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    yield "path,value\n"
    leaves = _flatten(payload)
    while rows := list(islice(leaves, _BATCH)):
        text = "".join([f"{path},{value}\n" for path, value in rows])
        if text.count(",") != len(rows) or text.count("\n") != len(rows) or '"' in text or "\r" in text:
            writer.writerows(rows)
            text = buffer.getvalue()
            buffer.seek(0)
            buffer.truncate()
        yield text


def _write(chunks, outs):
    for chunk in chunks:
        for out in outs:
            out.write(chunk)


def _render_json(payload, outs):
    """Write the payload's canonical JSON and a newline to every output in outs."""
    _write(chain(_json_chunks(payload), ["\n"]), outs)


def _render_csv(payload, outs):
    """Write the payload's path,value CSV rows to every output in outs."""
    _write(_csv_chunks(payload), outs)


def _respond(ns) -> int:
    """Write the response to the parsed request to stdout, from the cache or computed; return the exit code."""
    command = _COMMANDS[ns.command]
    use_cache = not ns.no_cache and not command.verdict
    if use_cache:
        path = _entry_path(ns)
        hit = _cache_load(path)
        if hit is not None:
            _copy(hit)
            return 0
    payload = {"schema": SCHEMA_VERSION, "command": ns.command}
    payload.update((key, getattr(ns, key)) for key in ("n", "target") if hasattr(ns, key))
    try:
        payload.update(_HANDLERS[ns.command](ns))
    except ConsistencyError as exc:
        print(f"su2rep: internal consistency failure: {exc}", file=sys.stderr)
        return 1
    entry = _CacheEntry(path) if use_cache else None

    render = _render_csv if ns.format == "csv" else _render_json
    try:
        render(payload, [sys.stdout] if entry is None else [sys.stdout, entry])
        if entry is not None:
            _cache_store(entry)
    finally:
        if entry is not None:
            entry.discard()
    return 1 if command.verdict and not payload["passed"] else 0


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7+: the bytes do not depend on PYTHONINTMAXSTRDIGITS
        sys.set_int_max_str_digits(0)
    ns = build_parser().parse_args(argv)
    _validate(ns)
    try:
        return _respond(ns)
    except BrokenPipeError:  # the reader of stdout has gone, as under `| head`; a temp entry is already discarded
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # so that the flush at exit cannot fail again
        return 141  # what a shell reports for SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
