"""Command line front end.

Exit codes: 0 success, 1 verification failure or expectation mismatch,
2 usage or configuration error, 3 when the exact minimum-weight route
would cover more words than the budget: the socle words it weighs plus
the shortened-code words its count covers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _encode_str

from . import padic
from .errors import (
    BadResidueClass,
    BudgetExceeded,
    NoCaseApplies,
    NoValidK,
    OutOfFamilyRange,
    Qr2mError,
)
from .lincode import DEFAULT_BUDGET, code_from_divisor, min_weight
from .modring import Modulus, Record, family_params, quad_partition, require_qr_prime
from .qr import (
    build_family,
    lifted_factors,
    lifted_residue_code,
    product_identities_report,
    solve_idempotent_system,
    span_idempotents,
)
from .verify import SCHEMA_VERSION, run_verification


class ConfigError(Qr2mError):
    pass


class SweepConfig(Record):
    """Parsed sweep configuration for the verify command.

    budget is echoed into the report's config.budget and read by no check;
    format is validated as json or csv, but the report is always JSON.
    """

    def __init__(
        self,
        p_list: tuple[int, ...],
        m_list: tuple[int, ...],
        budget: int = 1 << 16,
        output: str = "-",
        format: str = "json",
    ) -> None:
        self.__dict__.update(
            p_list=p_list, m_list=m_list, budget=budget, output=output, format=format
        )


def _parse_int(token: str, lineno: int, key: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"line {lineno}: field {key}: {token!r} is not an integer")


def _parse_int_list(value: str, lineno: int, key: str) -> tuple[int, ...]:
    inner = value.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    tokens = [t.strip() for t in inner.split(",") if t.strip()]
    if not tokens:
        raise ConfigError(f"line {lineno}: field {key}: empty list")
    return tuple(_parse_int(t, lineno, key) for t in tokens)


def parse_config_text(text: str) -> SweepConfig:
    """Flat key = value lines; # comments; lists in optional brackets."""
    seen: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SweepConfig._fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = (lineno, value)
    for key in ("p_list", "m_list"):
        if key not in seen:
            raise ConfigError(f"missing required key {key!r}")
    lineno, value = seen["p_list"]
    p_list = _parse_int_list(value, lineno, "p_list")
    for p in p_list:
        try:
            require_qr_prime(p)
        except Qr2mError as exc:
            raise ConfigError(f"line {lineno}: field p_list: {exc}")
    lineno, value = seen["m_list"]
    m_list = _parse_int_list(value, lineno, "m_list")
    for m in m_list:
        if not 4 <= m <= 8:
            raise ConfigError(f"line {lineno}: field m_list: m={m} outside 4..8")
    optional = {}  # a key left out takes SweepConfig's default
    if "budget" in seen:
        lineno, value = seen["budget"]
        budget = _parse_int(value, lineno, "budget")
        if budget <= 0:
            raise ConfigError(f"line {lineno}: field budget: must be positive")
        optional["budget"] = budget
    if "output" in seen:
        optional["output"] = seen["output"][1].strip("\"'")
    if "format" in seen:
        lineno, value = seen["format"]
        fmt = value.strip("\"'")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"line {lineno}: field format: {fmt!r} not json or csv")
        optional["format"] = fmt
    return SweepConfig(p_list, m_list, **optional)


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config_text(text)


# How _json_text writes a scalar, by its exact type.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(obj) -> str:
    """obj exactly as json.dumps(obj, indent=2, sort_keys=True) writes it.

    Writes dict, list, tuple, str, int, bool and None.  Any other value,
    a subclass of str or int among them, and any non-str key raise
    TypeError.  json.dumps serves an indent with its pure-Python encoder,
    a generator per container and several calls per value; here a scalar
    is one table lookup and one C call, and only containers recurse.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    parts: list[str] = []
    _write_container(obj, "\n", parts.append)
    return "".join(parts)


def _write_container(obj, nl: str, put) -> None:
    """Pass the text of a dict, list or tuple to put, its closing bracket after nl.

    A module function rather than a closure: a closure that calls itself
    is a reference cycle, which would keep every report's parts alive
    until the cyclic collector runs.
    """
    inner = nl + "  "
    after = "," + inner
    if isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        sep = "{" + inner
        for key in sorted(obj):  # _encode_str raises TypeError on a non-str key
            value = obj[key]
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                put(sep + _encode_str(key) + ": " + scalar(value))
            else:
                put(sep + _encode_str(key) + ": ")
                _write_container(value, inner, put)
            sep = after
        put(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        sep = "[" + inner
        for value in obj:
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                put(sep + scalar(value))
            else:
                put(sep)
                _write_container(value, inner, put)
            sep = after
        put(nl + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _open_output(path: str):
    """Open path for writing without truncating it, so a bad path fails before a sweep."""
    def no_truncate(name, flags):
        return os.open(name, flags & ~os.O_TRUNC, 0o666)  # open()'s own mode

    try:
        return open(path, "w", encoding="utf-8", opener=no_truncate)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}")


def _dump(obj: dict, out=None) -> None:
    """Print obj as indented JSON, or write it over the file out from _open_output."""
    text = _json_text(obj)
    if out is None:
        print(text)
        return
    try:
        out.write(text + "\n")
        out.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write output {out.name}: {exc}")


def cmd_partition(args) -> int:
    part = quad_partition(args.p)
    _dump(
        {
            "schema_version": SCHEMA_VERSION,
            "p": args.p,
            "residues": list(part.q),
            "nonresidues": list(part.n),
        }
    )
    return 0


def cmd_identities(args) -> int:
    report = product_identities_report(args.p, args.m)
    out = {"schema_version": SCHEMA_VERSION}
    out.update(report.as_dict())
    _dump(out)
    return 0 if report.all_hold else 1


def cmd_idempotents(args) -> int:
    sols = solve_idempotent_system(args.p, args.m)
    _dump(
        {
            "schema_version": SCHEMA_VERSION,
            "p": args.p,
            "m": args.m,
            "span": [list(t) for t in span_idempotents(args.p, args.m)],
            "solutions": [s.as_dict() for s in sols],
            "conjugate_sum_classes": sorted({s.conjugate_sum for s in sols}),
        }
    )
    return 0


def cmd_family(args) -> int:
    try:
        fam = build_family(args.p, args.m)
    except (OutOfFamilyRange, NoCaseApplies) as exc:
        _dump(
            {
                "schema_version": SCHEMA_VERSION,
                "p": args.p,
                "m": args.m,
                "constructible": False,
                "reason": str(exc),
            }
        )
        return 0
    out = {"schema_version": SCHEMA_VERSION, "constructible": True}
    out.update(fam.as_dict())
    _dump(out)
    return 0


def _load_expectation(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read expectation file {path}: {exc}")
    if not isinstance(expected, dict):
        raise ConfigError(f"expectation file {path}: not a JSON object")
    return expected


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    expected = _load_expectation(args.expect) if args.expect else None
    with nullcontext() if cfg.output == "-" else _open_output(cfg.output) as out:
        report = run_verification(cfg.p_list, cfg.m_list, cfg.budget)
        _dump(report, out)
    status = 0 if report["summary"]["failed"] == 0 else 1
    if expected is not None and expected.get("errata") != report["errata"]:
        print("errata do not match expectation file", file=sys.stderr)
        status = 1
    return status


_WEIGHT_CODES = ("q", "qprime", "n", "nprime", "lift", "ones")


def _resolve_weight_code(p: int, m: int, name: str):
    if name == "lift":
        return lifted_residue_code(p, m)
    if name == "ones":
        quad_partition(p)  # a bad p raises before a p-sized list is built
        return code_from_divisor([1] * p, p, m)  # h = (x^p - 1)/(x - 1)
    fam = build_family(p, m)
    return {
        "q": fam.q,
        "qprime": fam.q_prime,
        "n": fam.n,
        "nprime": fam.n_prime,
    }[name]


def cmd_weight(args) -> int:
    if args.budget < 1:
        raise ConfigError(f"--budget {args.budget}: must be positive")
    code = _resolve_weight_code(args.p, args.m, args.code)
    report = min_weight(code, budget=args.budget)
    if args.format == "csv":
        print("p,m,code,log2_size,min_weight,exhaustive")
        print(
            f"{args.p},{args.m},{args.code},{code.log2_size},"
            f"{report.min_weight},{str(report.enumerated).lower()}"
        )
    else:
        _dump(
            {
                "schema_version": SCHEMA_VERSION,
                "p": args.p,
                "m": args.m,
                "code": args.code,
                "log2_size": code.log2_size,
                "report": report.as_dict(),
            }
        )
    return 0


def cmd_padic(args) -> int:
    p, m = args.p, args.m
    try:
        sign = family_params(p, m).sign
    except (BadResidueClass, NoValidK, OutOfFamilyRange):
        sign = None
    targets = {}
    for target in padic.Target:
        exp = padic.expand(target, p, m)
        entry = {"digits": list(exp.digits), "value": exp.value}
        if sign is not None and m >= 4:
            tpl = padic.expected_template(target, sign)
            entry["template"] = tpl.name
            entry["template_matches"] = padic.matches_template(exp, tpl)
        targets[target.name.lower()] = entry
    _dump(
        {
            "schema_version": SCHEMA_VERSION,
            "p": p,
            "m": m,
            "sign": sign,
            "targets": targets,
            "inverse_equals_self": padic.inverse_equals_self(p, m),
        }
    )
    return 0


def cmd_lift(args) -> int:
    # the lift checks the product and raises NotCoprime if it fails
    lifted = lifted_factors(args.p, args.m)
    _dump(
        {
            "schema_version": SCHEMA_VERSION,
            "p": args.p,
            "m": args.m,
            "f_unit": list(lifted.f_unit.coeffs),
            "f_q": list(lifted.f_q.coeffs),
            "f_n": list(lifted.f_n.coeffs),
            "product_ok": True,
        }
    )
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by main."""
    parser = argparse.ArgumentParser(
        prog="qr2m",
        description="Quadratic residue codes over Z/2^m: construction and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, with_m=True):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("p", type=int, help="odd prime, +-1 mod 8")
        if with_m:
            sp.add_argument("m", type=int, help="exponent of the modulus 2^m")
        sp.set_defaults(func=func)
        return sp

    add("partition", cmd_partition, "residue/nonresidue split mod p", with_m=False)
    add("identities", cmd_identities, "basis product identities at (p, m)")
    add("idempotents", cmd_idempotents, "all span idempotents at (p, m)")
    add("family", cmd_family, "construct the four-code family at (p, m)")
    wp = add("weight", cmd_weight, "minimum-weight report for one code")
    wp.add_argument("--code", choices=_WEIGHT_CODES, required=True)
    wp.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="most words the exact route may cover: socle words weighed plus "
        "shortened-code words counted",
    )
    wp.add_argument(
        "--exhaustive",
        action="store_true",
        help="accepted for compatibility; every report is exact",
    )
    wp.add_argument("--format", choices=("json", "csv"), default="json")
    add("padic", cmd_padic, "binary digit expansions of +-p, +-1/p")
    add("lift", cmd_lift, "factor x^p - 1 over Z/2^m")
    vp = sub.add_parser("verify", help="run the sweep verifier")
    vp.add_argument("--config", required=True, help="flat key = value sweep file")
    vp.add_argument("--expect", help="JSON file with the expected errata list")
    vp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "m" in vars(args):
            Modulus(args.m)  # a bad m exits 2 before any p-sized work
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except Qr2mError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
