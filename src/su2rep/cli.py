"""Command-line interface.

Every command writes one canonical report to stdout, as minified JSON with
sorted keys (default) or as a flattened path,value CSV carrying the same
content.  Identical requests produce byte-identical output, with or without
the on-disk cache; the cache is a pure accelerator, written atomically (temp
file + rename) and named by a digest of the package source and a key of the
request and the package version, so an entry written by other code never
matches.  A store removes the entries of other source digests.
``verify`` and ``numeric-check`` never read or write it, so their verdicts
always come from the running code.

Exit codes: 0 success, 1 mathematical inconsistency (a cross-check failed,
which means a bug, never bad input), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from . import __version__, checks, locimage, surfaces
from .exterior import ENUMERATION_CAP, Sector
from .ratpoly import NotPolynomialError
from .targets import ConsistencyError, SurfaceTarget, TargetKind

SCHEMA_VERSION = 1

_KINDS = {kind.value: kind for kind in TargetKind}
_CENTRAL_ONLY = {"bigraded", "localization-image", "cup-table"}
# Verdicts are recomputed on every run: a cached "passed" would outlive the
# code that earned it.
_NEVER_CACHED = {"verify", "numeric-check"}
# An entry is "<source digest>-<request key>.json"; older code wrote "<request key>.json".
_ENTRY_NAME = re.compile("([0-9a-f]{64}-)?[0-9a-f]{64}[.]json")


def _base_payload(command: str, ns) -> dict:
    payload = {"schema": SCHEMA_VERSION, "command": command}
    if getattr(ns, "n", None) is not None:
        payload["n"] = ns.n
    if getattr(ns, "target", None) is not None:
        payload["target"] = ns.target
    return payload


def _target(ns) -> SurfaceTarget:
    return SurfaceTarget(_KINDS[ns.target], ns.n)


def _cmd_betti(ns) -> dict:
    target = _target(ns)
    plus, minus = surfaces.poincare_sectors(target)
    payload = _base_payload("betti", ns)
    payload.update(
        {
            "variety": target.variant.value if target.is_central else "generic-product",
            "poincare": (plus + minus).dense_coefficients(),
            "poincare_plus": plus.dense_coefficients(),
            "poincare_minus": minus.dense_coefficients(),
            "euler_characteristic": surfaces.euler_characteristic(target),
            "two_torsion": surfaces.has_two_torsion(target) if target.is_central else None,
            "dimension": 3 * target.n + (2 if target.kind is TargetKind.GENERIC else 0),
        }
    )
    return payload


def _cmd_bigraded(ns) -> dict:
    target = _target(ns)
    bigraded = surfaces.bigraded_poincare(target)
    payload = _base_payload("bigraded", ns)
    payload.update(
        {
            "variety": target.variant.value,
            "bigraded": [[[k, two_l], str(count), "1"] for (k, two_l), count in sorted(bigraded.items())],
            "specialized": surfaces.specialize_total_degree(bigraded).dense_coefficients(),
            "specialization_rule": "x^a y^b -> t^(a+b)",
        }
    )
    return payload


def _cmd_equivariant(ns) -> dict:
    target = _target(ns)
    series = surfaces.equivariant_poincare(target)
    payload = _base_payload("equivariant", ns)
    payload.update(
        {
            "t_series": series.t_series.to_json(),
            "g_series": series.g_series.to_json(),
            "fixed_orbit_g_series": surfaces.gxt_equivariant_series(target).to_json(),
            "pair_series": surfaces.pair_poincare(target).to_json(),
            "pair_cup_product_trivial": True,
            "equivariantly_formal": True,
        }
    )
    return payload


def _cmd_localization_image(ns) -> dict:
    target = _target(ns)
    bound = ns.degree_bound if ns.degree_bound is not None else 2 * ns.n + 6
    payload = _base_payload("localization-image", ns)
    payload["variety"] = target.variant.value
    payload["degree_bound"] = bound
    subsets = [[i + 1 for i in range(ns.n) if mask >> i & 1] for mask in range(1 << ns.n)]
    sectors = {}
    for sector in (Sector.PLUS, Sector.MINUS):
        spec = locimage.ImageSpec(ns.n, target.variant, sector)
        sectors[sector.value] = {
            "min_c1_power": [spec.min_c1_power(k) for k in range(ns.n + 1)],
            "hilbert_series": locimage.image_hilbert_series(spec).to_json(),
            "basis": [
                {
                    "subset": subsets[mask],
                    "c1_power": l,
                    "degree": mask.bit_count() + 2 * l,
                }
                for mask, l in locimage.image_basis(spec, bound)
            ],
        }
    payload["sectors"] = sectors
    return payload


def _cmd_cup_table(ns) -> dict:
    target = _target(ns)
    payload = _base_payload("cup-table", ns)
    table = locimage.cup_table(ns.n, target.variant)
    payload.update(
        {
            "variety": table["target"],
            "basis": table["basis"],
            "table": table["table"],
            "reduced_cup_product_trivial": True if target.variant.value == "singular" else None,
        }
    )
    return payload


def _cmd_orbit(ns) -> dict:
    target = _target(ns)
    payload = _base_payload("orbit", ns)
    payload.update(
        {
            "poincare": surfaces.orbit_poincare(target).dense_coefficients(),
            "pair_series": surfaces.pair_poincare(target).to_json(),
            "pair_cup_product_trivial": True,
            "reduced_cup_product_trivial": (
                True if target.is_central and target.variant.value == "singular" else None
            ),
        }
    )
    return payload


def _cmd_verify(ns) -> dict:
    results = checks.run_verify(ns.n_max)
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "n_max": ns.n_max,
        "checks": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }


def _cmd_numeric_check(ns) -> dict:
    from . import numeric  # the only command that needs numpy

    rows = numeric.numeric_check_suite(seed=ns.seed)
    return {
        "schema": SCHEMA_VERSION,
        "command": "numeric-check",
        "seed": ns.seed,
        "checks": rows,
        "passed": all(row["pass"] for row in rows),
    }


_HANDLERS = {
    "betti": _cmd_betti,
    "bigraded": _cmd_bigraded,
    "equivariant": _cmd_equivariant,
    "localization-image": _cmd_localization_image,
    "cup-table": _cmd_cup_table,
    "orbit": _cmd_orbit,
    "verify": _cmd_verify,
    "numeric-check": _cmd_numeric_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2rep",
        description="Exact cohomology tables for SU(2) representation varieties of nonorientable surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, with_target=True, with_seed=False, with_bound=False):
        if with_target:
            p.add_argument("--n", type=int, required=True, help="cross-cap count minus one (tuple length - 1)")
            p.add_argument("--target", choices=sorted(_KINDS), required=True)
        if with_bound:
            p.add_argument("--degree-bound", type=int, default=None)
        if with_seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--no-cache", action="store_true")
        p.set_defaults(parser=p)  # usage errors are reported by the subcommand's own parser

    add_common(sub.add_parser("betti", help="Betti numbers and sector split"))
    add_common(sub.add_parser("bigraded", help="two-variable Poincare polynomial (central targets)"))
    add_common(sub.add_parser("equivariant", help="equivariant Poincare series"))
    add_common(
        sub.add_parser("localization-image", help="fixed-locus image bases and series (central targets)"),
        with_bound=True,
    )
    add_common(sub.add_parser("cup-table", help="cup-product structure constants (central targets)"))
    add_common(sub.add_parser("orbit", help="orbit-space Poincare polynomial"))

    verify = sub.add_parser("verify", help="run the full consistency suite")
    verify.add_argument("--n-max", type=int, default=8)
    add_common(verify, with_target=False)

    numeric_p = sub.add_parser("numeric-check", help="quaternion geometry oracle")
    add_common(numeric_p, with_target=False, with_seed=True)
    return parser


def _validate(ns):
    error = ns.parser.error
    if getattr(ns, "n", None) is not None:
        if ns.n < 0:
            error("--n must be non-negative")
        if ns.command in {"localization-image", "cup-table"} and ns.n > ENUMERATION_CAP:
            error(f"--n exceeds the enumeration cap {ENUMERATION_CAP} for {ns.command}")
    if getattr(ns, "degree_bound", None) is not None and ns.degree_bound < 0:
        error("--degree-bound must be non-negative")
    if getattr(ns, "n_max", None) is not None and ns.n_max < 1:
        error("--n-max must be at least 1")
    if getattr(ns, "seed", None) is not None and ns.seed < 0:
        error("--seed must be non-negative")
    if ns.command in _CENTRAL_ONLY and ns.target == "generic":
        error(f"{ns.command} is defined for central targets only (--target plus or minus)")


# -- caching ---------------------------------------------------------------


def _cache_dir() -> Path:
    env = os.environ.get("SU2REP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "su2rep"


def _source_digest() -> str:
    """sha256 over the bytes of every su2rep/*.py file, in sorted name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _request_key(ns) -> str:
    fields = {
        "version": __version__,
        "command": ns.command,
        "n": getattr(ns, "n", None),
        "target": getattr(ns, "target", None),
        "degree_bound": getattr(ns, "degree_bound", None),
        "seed": getattr(ns, "seed", None),
        "n_max": getattr(ns, "n_max", None),
    }
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _entry_path(ns) -> Path:
    """Where the request's entry lives; the file name starts with the source digest."""
    return _cache_dir() / f"{_source_digest()}-{_request_key(ns)}.json"


def _cache_load(path: Path, base: dict):
    """The cached payload, or None unless it is a dict holding every field of base."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if isinstance(payload, dict) and base.items() <= payload.items():
        return payload
    return None


def _cache_store(path: Path, text: str):
    """Write the entry atomically, then evict the entries written by other code."""
    directory = path.parent
    digest = path.name[:64]
    tmp = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
        tmp = None
        for other in directory.iterdir():
            if _ENTRY_NAME.fullmatch(other.name) and not other.name.startswith(digest):
                other.unlink(missing_ok=True)
    except OSError:
        # Caching is best effort only, but leaves no partial file behind.
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


# -- rendering ---------------------------------------------------------------


def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _flatten(payload, prefix: str = ""):
    if isinstance(payload, dict):
        for key in sorted(payload):
            yield from _flatten(payload[key], f"{prefix}/{key}" if prefix else str(key))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            yield from _flatten(item, f"{prefix}/{i}")
    elif isinstance(payload, bool):
        yield prefix, "true" if payload else "false"
    elif payload is None:
        yield prefix, "null"
    elif isinstance(payload, str):
        yield prefix, payload
    else:
        yield prefix, json.dumps(payload)


def _render_csv(payload: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["path", "value"])
    for path, value in _flatten(payload):
        writer.writerow([path, value])
    return buffer.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    _validate(ns)

    use_cache = not ns.no_cache and ns.command not in _NEVER_CACHED
    payload = None
    if use_cache:
        entry = _entry_path(ns)
        payload = _cache_load(entry, _base_payload(ns.command, ns))
    text = None
    if payload is None:
        try:
            payload = _HANDLERS[ns.command](ns)
        except (ConsistencyError, NotPolynomialError) as exc:
            print(f"su2rep: internal consistency failure: {exc}", file=sys.stderr)
            return 1
        if use_cache:
            text = _render_json(payload)
            _cache_store(entry, text)

    if ns.format == "csv":
        text = _render_csv(payload)
    elif text is None:
        text = _render_json(payload)
    sys.stdout.write(text)
    if ns.command in {"verify", "numeric-check"} and not payload.get("passed", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
